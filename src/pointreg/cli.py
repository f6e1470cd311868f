"""Command line entry point.

One executable with five subcommands covering the pipeline: ``synth``
(generate datasets), ``train``, ``register`` (one pair), ``eval`` (report
over a dataset), and ``plot`` (per-pair SVG overlays).

Options resolve in precedence order: command line flag, then ``--config``
file entry, then default. The defaults of ``synth`` and ``train`` options
are those of the ``datagen.SynthConfig`` and ``trainer.TrainConfig`` fields
they set, which ``--help`` reads too; ``_CLI_DEFAULTS`` holds the few keys
that are no such field. Config files use the same ``key=value`` lines as
dataset manifests, keyed by those field names and the keys of
``_CLI_DEFAULTS``. Every run logs its fully resolved configuration to
stderr.
"""

import argparse
import logging
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import datagen, evaluator, model, trainer

log = logging.getLogger("pointreg")

# the keys that are no SynthConfig or TrainConfig field, with their defaults
_CLI_DEFAULTS = {"shape": "fish", "point_count": 96, "limit": 0}
_CONFIG_KEYS = {*_CLI_DEFAULTS, *(f.name for cls in (datagen.SynthConfig, trainer.TrainConfig)
                                  for f in fields(cls))}


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

    def _resolve(self, key, default, cast):
        flag_value = getattr(self.args, key, None)
        if flag_value is not None:
            value = flag_value
        elif key in self.config:
            try:
                value = cast(self.config[key])
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"{self.args.config}: {key}: {exc}") from exc
        elif default is MISSING:
            raise ValueError(f"{self.args.subcommand}: --{key} is required (flag or config file)")
        else:
            value = default
        self.resolved[key] = value
        return value

    def get(self, key, cast):
        """A key of ``_CLI_DEFAULTS``; a config entry is cast by ``cast``,
        the type its flag parses with."""
        return self._resolve(key, _CLI_DEFAULTS[key], cast)

    def build(self, cls, **casts):
        """``cls`` with every field resolved. A config entry is cast by
        ``casts`` where it names the field, else to the default's type; a
        field without a default must be given."""
        return cls(**{f.name: self._resolve(f.name, f.default, casts.get(f.name, type(f.default)))
                      for f in fields(cls)})

    def log_resolved(self):
        items = ", ".join(f"{k}={v}" for k, v in self.resolved.items())
        log.info("resolved config [%s]: %s", self.args.subcommand, items)


def _int_at_least(text, low: int, what: str) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"expected {what} integer, got {text}")
    return value


def _positive_int(text):
    return _int_at_least(text, 1, "a positive")


def _non_negative_int(text):
    return _int_at_least(text, 0, "a non-negative")


def _add_globals(parser, suppress=False, config=None):
    # subparsers get SUPPRESS defaults so an absent flag never clobbers a
    # value already parsed before the subcommand name; ``config`` is the
    # dataclass whose seed the subcommand sets, and a subcommand without
    # one takes no --seed
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--config", metavar="FILE", default=default,
                        help="key=value config file; flags override its entries")
    if config is not None or not suppress:
        parser.add_argument("--seed", type=int, default=default,
                            help="random seed of synth and train" if config is None
                            else f"random seed (default: {config.seed})")
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

    synth = datagen.SynthConfig
    p = sub.add_parser("synth", help="generate a synthetic pair dataset",
                       description="Generate deformed (and optionally noisy) "
                                   "source/target pairs plus a manifest.")
    p.add_argument("--shape", help="builtin shape name or a points file "
                                   f"(default: {_CLI_DEFAULTS['shape']})")
    p.add_argument("--points", type=_positive_int, dest="point_count",
                   help=f"points per set (default: {_CLI_DEFAULTS['point_count']})")
    p.add_argument("--level", type=float, dest="deformation_level",
                   help=f"deformation level (default: {synth.deformation_level})")
    p.add_argument("--noise", dest="noise_kind",
                   help="noise kind: none, pd jitter, do outliers, di dropout "
                        f"(default: {synth.noise_kind})")
    p.add_argument("--noise-level", type=float,
                   help=f"noise magnitude or ratio (default: {synth.noise_level})")
    p.add_argument("--count", type=_positive_int, dest="pair_count",
                   help=f"number of pairs (default: {synth.pair_count})")
    p.add_argument("--out", required=True, help="output dataset directory")
    _add_globals(p, suppress=True, config=synth)

    train = trainer.TrainConfig
    p = sub.add_parser("train", help="train a registration model",
                       description="Train on a synthesized dataset and write "
                                   "the final checkpoint.")
    p.add_argument("--data", required=True, help="training dataset directory")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--epochs", type=_positive_int, help="training epochs (required)")
    p.add_argument("--batch-size", type=int, dest="batch_size",
                   help=f"pairs per batch, at least 2 (default: {train.batch_size})")
    p.add_argument("--lr", type=float, dest="learning_rate",
                   help=f"Adam learning rate (default: {train.learning_rate})")
    p.add_argument("--lr-decay", type=float, dest="lr_decay",
                   help=f"per-epoch learning rate decay (default: {train.lr_decay})")
    p.add_argument("--sigma-floor", type=float, dest="sigma_floor",
                   help=f"annealing floor for the mixture bandwidth (default: {train.sigma_floor})")
    p.add_argument("--checkpoint-every", type=int, dest="checkpoint_every",
                   help="epochs between periodic checkpoints, 0 disables "
                        f"(default: {train.checkpoint_every})")
    p.add_argument("--checkpoint-dir", dest="checkpoint_dir",
                   help=f"directory for periodic checkpoints (default: {train.checkpoint_dir})")
    p.add_argument("--history", help="history CSV path (default: <out>.history.csv)")
    _add_globals(p, suppress=True, config=train)

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
                   help=f"plot only the first N pairs, 0 for all (default: {_CLI_DEFAULTS['limit']})")
    _add_globals(p, suppress=True)
    return parser


def _cmd_synth(args):
    r = _Resolver(args)
    shape_name = r.get("shape", str)
    point_count = r.get("point_count", _positive_int)
    cfg = r.build(datagen.SynthConfig)
    r.log_resolved()
    base = datagen.sample_shape(shape_name, point_count)
    ds = datagen.generate_dataset(base, cfg, args.out, shape_name=Path(shape_name).stem)
    print(f"wrote {ds.pair_count} pairs to {ds.directory}")
    return 0


def _cmd_train(args):
    r = _Resolver(args)
    cfg = r.build(trainer.TrainConfig, epochs=_positive_int, checkpoint_dir=str)
    r.log_resolved()
    ds = datagen.load_dataset(args.data)
    weights = model.init_weights(model.PrNetConfig.for_dim(ds.dim), seed=cfg.seed)
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
    trainer.save_checkpoint(weights, state, cfg.epochs, out)
    history_path = args.history or f"{out}.history.csv"
    trainer.write_history_csv(history, history_path)
    print(f"trained {cfg.epochs} epochs on {ds.pair_count} pairs; "
          f"model {out}, history {history_path}")
    return 0


def _cmd_register(args):
    _Resolver(args).log_resolved()
    weights, _, _ = model.load_model(args.model)
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
    _Resolver(args).log_resolved()
    weights, _, _ = model.load_model(args.model)
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
    limit = r.get("limit", _non_negative_int)
    r.log_resolved()
    weights, _, _ = model.load_model(args.model)
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
