"""Command line entry point.

One executable with five subcommands covering the pipeline: ``synth``
(generate datasets), ``train``, ``register`` (one pair), ``eval`` (report
over a dataset), and ``plot`` (per-pair SVG overlays).

Options resolve in precedence order: command line flag, then ``--config``
file entry, then built-in default. Config files use the same ``key=value``
lines as dataset manifests, keyed by the underlying config field names.
Every run logs its fully resolved configuration to stderr.
"""

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import datagen, evaluator, model, trainer

log = logging.getLogger("pointreg")

# config-file keys mirror SynthConfig and TrainConfig fields; the few extras
# cover what the subcommands need beyond those dataclasses
_CONFIG_KEYS = {
    "shape", "point_count",
    "deformation_level", "num_deform_controls", "noise_kind", "noise_level",
    "seed", "pair_count",
    "epochs", "batch_size", "learning_rate", "lr_decay",
    "sigma_initial", "sigma_floor", "checkpoint_every", "checkpoint_dir",
}


def _read_config(path) -> dict:
    entries = datagen.read_key_values(path)
    unknown = sorted(set(entries) - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
    return entries


class _Resolver:
    """Flag > config file > default, remembering every resolved value."""

    def __init__(self, args):
        self.args = args
        self.config = _read_config(args.config) if args.config else {}
        self.resolved = {}

    def get(self, key, default, cast):
        flag_value = getattr(self.args, key, None)
        if flag_value is not None:
            value = flag_value
        elif key in self.config:
            try:
                value = cast(self.config[key])
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"{self.args.config}: {key}: {exc}") from exc
        else:
            value = default
        self.resolved[key] = value
        return value

    def log_resolved(self, subcommand):
        items = ", ".join(f"{k}={v}" for k, v in self.resolved.items())
        log.info("resolved config [%s]: %s", subcommand, items)


def _int_at_least(text, low: int, what: str) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"expected {what} integer, got {text}")
    return value


def _positive_int(text):
    return _int_at_least(text, 1, "a positive")


def _non_negative_int(text):
    return _int_at_least(text, 0, "a non-negative")


def _add_globals(parser, suppress=False):
    # subparsers get SUPPRESS defaults so an absent flag never clobbers a
    # value already parsed before the subcommand name
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--config", metavar="FILE", default=default,
                        help="key=value config file; flags override its entries")
    parser.add_argument("--seed", type=int, default=default,
                        help="random seed (default: 0)")
    parser.add_argument("--verbose", action="store_true",
                        default=argparse.SUPPRESS if suppress else False,
                        help="debug-level logging (default: off)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pointreg",
        description="Learned non-rigid point-set registration pipeline.",
    )
    _add_globals(parser)
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    p = sub.add_parser("synth", help="generate a synthetic pair dataset",
                       description="Generate deformed (and optionally noisy) "
                                   "source/target pairs plus a manifest.")
    p.add_argument("--shape", help="builtin shape name or a points file (default: fish)")
    p.add_argument("--points", type=_positive_int, dest="point_count",
                   help="points per set (default: 96)")
    p.add_argument("--level", type=float, dest="deformation_level",
                   help="deformation level (default: 0.5)")
    p.add_argument("--noise", dest="noise_kind", choices=["none", "pd", "do", "di"],
                   help="noise kind: pd jitter, do outliers, di dropout (default: none)")
    p.add_argument("--noise-level", type=float,
                   help="noise magnitude or ratio (default: 0.0)")
    p.add_argument("--count", type=_positive_int, dest="pair_count",
                   help="number of pairs (default: 1)")
    p.add_argument("--out", required=True, help="output dataset directory")
    _add_globals(p, suppress=True)

    p = sub.add_parser("train", help="train a registration model",
                       description="Train on a synthesized dataset and write "
                                   "the final checkpoint.")
    p.add_argument("--data", required=True, help="training dataset directory")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--epochs", type=_positive_int, help="training epochs (required)")
    p.add_argument("--batch-size", type=int, dest="batch_size",
                   help="pairs per batch, at least 2 (default: 16)")
    p.add_argument("--lr", type=float, dest="learning_rate",
                   help="Adam learning rate (default: 0.0001)")
    p.add_argument("--lr-decay", type=float, dest="lr_decay",
                   help="per-epoch learning rate decay (default: 0.995)")
    p.add_argument("--sigma-floor", type=float, dest="sigma_floor",
                   help="annealing floor for the mixture bandwidth (default: 0.1)")
    p.add_argument("--checkpoint-every", type=int, dest="checkpoint_every",
                   help="epochs between periodic checkpoints, 0 disables (default: 0)")
    p.add_argument("--checkpoint-dir", dest="checkpoint_dir",
                   help="directory for periodic checkpoints (default: none)")
    p.add_argument("--history", help="history CSV path (default: <out>.history.csv)")
    _add_globals(p, suppress=True)

    p = sub.add_parser("register", help="register one source/target pair",
                       description="Run a trained model on two point files and "
                                   "print the Chamfer numbers.")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--src", required=True, help="source points file")
    p.add_argument("--tgt", required=True, help="target points file")
    p.add_argument("--out-svg", help="write an overlay plot here (default: none)")
    p.add_argument("--out-points", help="write transformed source points here (default: none)")
    _add_globals(p, suppress=True)

    p = sub.add_parser("eval", help="evaluate a model over a dataset",
                       description="Register every pair and write a CSV report.")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--report", required=True, help="report CSV path")
    _add_globals(p, suppress=True)

    p = sub.add_parser("plot", help="write per-pair overlay SVGs",
                       description="Register every pair and write one overlay "
                                   "SVG per pair.")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out-dir", required=True, help="output directory for SVGs")
    p.add_argument("--limit", type=_non_negative_int,
                   help="plot only the first N pairs, 0 for all (default: 0)")
    _add_globals(p, suppress=True)
    return parser


def _load_weights(path):
    weights, _, _ = trainer.load_checkpoint(path)
    return weights


def _cmd_synth(args):
    r = _Resolver(args)
    shape_name = r.get("shape", "fish", str)
    point_count = r.get("point_count", 96, int)
    cfg = datagen.SynthConfig(
        deformation_level=r.get("deformation_level", 0.5, float),
        num_deform_controls=r.get("num_deform_controls", 5, int),
        noise_kind=r.get("noise_kind", "none", str),
        noise_level=r.get("noise_level", 0.0, float),
        seed=r.get("seed", 0, int),
        pair_count=r.get("pair_count", 1, int),
    )
    r.log_resolved("synth")
    base = datagen.sample_shape(shape_name, point_count)
    ds = datagen.generate_dataset(base, cfg, args.out, shape_name=Path(shape_name).stem)
    print(f"wrote {ds.pair_count} pairs to {ds.directory}")
    return 0


def _cmd_train(args):
    r = _Resolver(args)
    seed = r.get("seed", 0, int)
    epochs = r.get("epochs", None, _positive_int)
    if epochs is None:
        raise ValueError("train: --epochs is required (flag or config file)")
    cfg = trainer.TrainConfig(
        epochs=epochs,
        batch_size=r.get("batch_size", 16, int),
        learning_rate=r.get("learning_rate", 1e-4, float),
        lr_decay=r.get("lr_decay", 0.995, float),
        sigma_initial=r.get("sigma_initial", 1.0, float),
        sigma_floor=r.get("sigma_floor", 0.1, float),
        seed=seed,
        checkpoint_every=r.get("checkpoint_every", 0, int),
        checkpoint_dir=r.get("checkpoint_dir", None, str),
    )
    r.log_resolved("train")
    ds = datagen.load_dataset(args.data)
    weights = model.init_weights(model.PrNetConfig.for_dim(ds.dim), seed=seed)
    state = ad.init_adam(weights.params(), cfg.learning_rate, cfg.lr_decay)

    def progress(stats):
        log.info(
            "epoch %d: sigma=%.4f lr=%.3e train_loss=%.4f val_cd=%.6f",
            stats.epoch, stats.sigma, stats.lr, stats.train_loss, stats.val_cd,
        )

    weights, history = trainer.train(cfg, ds, weights, adam_state=state, log=progress)
    out = Path(args.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    trainer.save_checkpoint(weights, state, epochs, out)
    history_path = args.history or f"{out}.history.csv"
    trainer.write_history_csv(history, history_path)
    print(f"trained {epochs} epochs on {ds.pair_count} pairs; "
          f"model {out}, history {history_path}")
    return 0


def _cmd_register(args):
    r = _Resolver(args)
    r.log_resolved("register")
    weights = _load_weights(args.model)
    src = datagen.load_points_file(args.src)
    tgt = datagen.load_points_file(args.tgt)
    result = evaluator.register(weights, src, tgt)
    if args.out_svg:
        evaluator.emit_overlay_svg(src, tgt, result.transformed, args.out_svg)
    if args.out_points:
        datagen.save_points_file(args.out_points, result.transformed)
    print(f"cd_pre={result.cd_pre!r} cd_post={result.cd_post!r} "
          f"elapsed_s={result.elapsed:.4f}")
    return 0


def _cmd_eval(args):
    r = _Resolver(args)
    r.log_resolved("eval")
    weights = _load_weights(args.model)
    summary = evaluator.evaluate(weights, args.data)
    evaluator.write_report_csv(summary, args.report)
    print(
        f"{summary.dataset_id}: pairs={summary.pair_count} "
        f"cd_pre_mean={summary.cd_pre_mean!r} cd_post_mean={summary.cd_post_mean!r} "
        f"model_time_s={summary.model_time_s:.3f}"
    )
    return 0


def _cmd_plot(args):
    r = _Resolver(args)
    limit = r.get("limit", 0, int)
    r.log_resolved("plot")
    weights = _load_weights(args.model)
    ds = datagen.load_dataset(args.data)
    count = ds.pair_count if limit == 0 else min(limit, ds.pair_count)
    pairs = [ds.load_pair(i) for i in range(count)]
    summary = evaluator.evaluate(weights, pairs)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, ((src, tgt), result) in enumerate(zip(pairs, summary.results)):
        evaluator.emit_overlay_svg(src, tgt, result.transformed, out_dir / f"pair_{i:06d}.svg")
    print(f"wrote {count} overlays to {out_dir}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "register": _cmd_register,
    "eval": _cmd_eval,
    "plot": _cmd_plot,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(message)s",
        stream=sys.stderr,
        force=True,
    )
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return _COMMANDS[args.subcommand](args)
    except (ValueError, OSError, datagen.DatasetError, datagen.PointFileError,
            model.CorruptCheckpointError, trainer.TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
