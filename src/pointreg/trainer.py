"""Training loop for the registration network.

Per epoch: seeded shuffle, mini-batches of pairs, mean symmetric GMM loss
per batch backpropagated through one ``model.train_forward`` of the whole
batch, whatever its pairs' sources, Adam with a per-epoch decayed learning
rate. The mixture bandwidth sigma anneals per optimizer step
(max(initial/sqrt(step), floor)), so the coarse phase lasts on the order of
a hundred batches and most of training runs at the floor. Every
piece of randomness is derived from (seed, epoch), so a run can be
reproduced or resumed from a checkpoint without replaying earlier epochs.

Training normalises by batch statistics only. The running statistics that
eval mode reads are computed at the end of every epoch from the weights as
they now stand, frozen, over that epoch's batches ("precise BN", Wu &
Johnson, arXiv 2105.07576), by one graph-free forward per batch;
validation, the ``log`` callback and the checkpoint all see those
statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import datagen
from . import losses
from . import model as prnet


class TrainingDivergedError(RuntimeError):
    """Raised when a batch produces a non-finite loss."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 16
    learning_rate: float = 1e-4
    lr_decay: float = 0.995
    sigma_initial: float = 1.0
    sigma_floor: float = 0.1
    seed: int = 0
    checkpoint_every: int = 0
    checkpoint_dir: object = None

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"TrainConfig: epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 2:
            raise ValueError(f"TrainConfig: batch_size must be >= 2 for batch norm, got {self.batch_size}")
        for name in ("learning_rate", "lr_decay", "sigma_initial", "sigma_floor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"TrainConfig: {name} must be positive and finite, got {value}")
        if self.checkpoint_every < 0:
            raise ValueError(f"TrainConfig: checkpoint_every must be >= 0, got {self.checkpoint_every}")
        if self.checkpoint_every > 0 and self.checkpoint_dir is None:
            raise ValueError("TrainConfig: checkpoint_every requires checkpoint_dir")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    sigma: float
    lr: float
    train_loss: float
    val_cd: float


HISTORY_HEADER = ("epoch", "sigma", "lr", "train_loss", "val_cd")


def write_history_csv(history, path) -> None:
    """Persist per-epoch stats under the fixed header, full float precision."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(HISTORY_HEADER) + "\n")
        for s in history:
            cols = [repr(float(v)) for v in (s.sigma, s.lr, s.train_loss, s.val_cd)]
            f.write(",".join([str(s.epoch), *cols]) + "\n")


# ---------------------------------------------------------------------------
# checkpointing

_COUNT_META = ("epoch", "adam_step_count")  # JSON integers >= 0
_RATE_META = ("adam_learning_rate", "adam_decay")  # finite and > 0, as in TrainConfig
_MOMENT_PREFIX = "adam."  # the moments of parameter i are adam.m.<i> and adam.v.<i>


def save_checkpoint(weights, adam_state: ad.AdamState, epoch: int, path) -> None:
    """Weights plus optimizer moments in one container; resuming from it
    reproduces the uninterrupted run."""
    extras = {}
    for i, (m, v) in enumerate(zip(adam_state.first_moment, adam_state.second_moment)):
        extras[f"{_MOMENT_PREFIX}m.{i:03d}"] = m
        extras[f"{_MOMENT_PREFIX}v.{i:03d}"] = v
    meta = {
        "epoch": int(epoch),
        "adam_step_count": int(adam_state.step_count),
        "adam_learning_rate": adam_state.learning_rate,
        "adam_decay": adam_state.decay,
    }
    prnet.save_model(path, weights, meta, extras)


def load_checkpoint(path):
    """Returns ``(weights, adam_state, epoch)`` from a file written by
    ``save_checkpoint``: the resume state of ``train(start_epoch=)``.
    Unlike ``model.load_model`` alone, it also reads the Adam moments.

    The file must carry every ``_COUNT_META`` and ``_RATE_META`` key with a
    valid value and both Adam moments of every parameter, each matching its
    parameter's shape and dtype. The moments are the file's own arrays, so
    a resumed run trains them in place.
    """
    weights, meta, extras = prnet.load_model(path, extra_prefix=_MOMENT_PREFIX)
    missing = [k for k in (*_COUNT_META, *_RATE_META) if k not in meta]
    if missing:
        raise prnet.CorruptCheckpointError(f"{path}: training meta lacks {', '.join(missing)}")
    bad = [k for k in _COUNT_META if type(meta[k]) is not int or meta[k] < 0]
    bad += [k for k in _RATE_META if type(meta[k]) is not float or not math.isfinite(meta[k]) or meta[k] <= 0]
    if bad:
        raise prnet.CorruptCheckpointError(f"{path}: invalid training meta ({bad[0]} is {meta[bad[0]]!r})")
    state = ad.AdamState(learning_rate=meta["adam_learning_rate"], decay=meta["adam_decay"],
                         step_count=meta["adam_step_count"])
    for i, p in enumerate(weights.params()):
        for kind, dest in (("m", state.first_moment), ("v", state.second_moment)):
            key = f"{_MOMENT_PREFIX}{kind}.{i:03d}"
            if key not in extras:
                raise prnet.CorruptCheckpointError(f"{path}: missing optimizer array {key}")
            moment = extras[key]
            if moment.shape != p.data.shape:
                raise prnet.CorruptCheckpointError(f"{path}: optimizer array {key} has wrong shape")
            if moment.dtype != p.data.dtype:
                raise prnet.CorruptCheckpointError(
                    f"{path}: optimizer array {key} has dtype {moment.dtype}, "
                    f"its parameter {p.data.dtype}"
                )
            dest.append(moment)
    return weights, state, meta["epoch"]


# ---------------------------------------------------------------------------
# training


def _train_batch(batch, weights, sigma, state):
    """One optimizer step on ``batch``, a list of pairs, by one
    ``model.train_forward``. Returns the symmetric GMM loss, in the network
    frame, averaged over its pairs."""
    _, transformed, targets = prnet.train_forward(batch, weights)
    loss = ad.batch_mean([losses.gmm_loss_symmetric(t, g, sigma) for t, g in zip(transformed, targets)])
    loss.backward()
    value = float(loss.data)
    ad.recycle_graph(loss)
    params = weights.params()
    if math.isfinite(value):
        ad.adam_step(params, state)
    ad.zero_grads(params)
    return value


def split_pairs(pairs):
    """``(train, val)``: the last 5% of pairs (at least one, given two or
    more) are held out for validation and never trained on."""
    n = len(pairs)
    n_val = max(1, int(round(0.05 * n))) if n >= 2 else 0
    return pairs[: n - n_val], pairs[n - n_val :]


def epoch_batches(train_pairs, batch_size: int, seed: int, epoch: int):
    """The epoch's mini-batches in order, as ``(batch_no, batch)``.

    The order is the ``(seed, epoch)`` permutation; a trailing batch of a
    single pair is skipped because batch norm cannot run on it.
    """
    order = np.random.default_rng([int(seed), epoch]).permutation(len(train_pairs))
    for batch_no, bstart in enumerate(range(0, len(order), batch_size), start=1):
        sel = order[bstart : bstart + batch_size]
        if len(sel) >= 2:
            yield batch_no, [train_pairs[k] for k in sel]


def recalibrate_batch_norm(batches, weights) -> None:
    """Recompute every batch-norm running mean and variance from the current,
    frozen weights ("precise BN").

    For each of ``batches`` (lists of two or more pairs), takes the batch
    statistics the training forward would see, from the graph-free forward
    with no transform (``model.batch_norm_statistics``). Each running
    statistic becomes the plain mean, in float64, of its per-batch values.
    All are written at the end, so a forward that raises leaves every one
    untouched.
    """
    layers = [layer for layer in weights.layers if layer.bn_mean is not None]
    sums = [np.zeros((2,) + layer.bias.data.shape) for layer in layers]
    count = 0
    for batch in batches:
        for acc, (mean, var) in zip(sums, prnet.batch_norm_statistics(batch, weights)):
            acc[0] += mean
            acc[1] += var
        count += 1
    if count:
        for layer, acc in zip(layers, sums):
            layer.bn_mean = (acc[0] / count).astype(layer.bn_mean.dtype)
            layer.bn_var = (acc[1] / count).astype(layer.bn_var.dtype)


def validation_cd(pairs, weights) -> float:
    """Mean normalized chamfer after registration, in the pairs' own frame,
    by ``model.forward_shared_source``, the path ``evaluator.evaluate``
    runs."""
    _, transformed = prnet.forward_shared_source(pairs, weights)
    return float(np.mean([losses.chamfer_normalized(t, g) for t, (_, g) in zip(transformed, pairs)]))


def train(cfg: TrainConfig, data, weights, adam_state: ad.AdamState = None,
          start_epoch: int = 1, log=None):
    """Optimize ``weights`` on a dataset; returns ``(weights, history)``.

    ``data`` is a dataset object or directory. The last 5% of pairs are held
    out for the per-epoch validation chamfer and never trained on. The
    network sees each pair in its source's network frame, as in evaluation
    (``model``); the loss is taken there, the validation chamfer in the
    data's own frame. Every pair is checked before the first step. Pass the
    optimizer state and ``start_epoch`` from ``load_checkpoint`` to resume;
    the resumed trajectory is identical to the uninterrupted one because
    shuffling draws from ``(seed, epoch)``, lr is closed-form in the epoch,
    and sigma is closed-form in the checkpointed optimizer step count.

    Each batch is one forward of all of its pairs, whatever their sources.
    Batch norm cannot normalise one pair, so fewer than two training pairs
    raise ``ValueError`` before the first epoch, and ``epoch_batches`` skips
    a trailing batch of one.

    Each epoch ends with ``recalibrate_batch_norm`` over that epoch's
    batches, so the running statistics are recomputed from the frozen
    weights rather than left as the moving average taken while they moved.
    Then come, in this order, the validation chamfer, ``log`` and the
    checkpoint, which therefore all describe the same network.
    """
    pairs, _ = datagen.load_pairs(data)
    prnet.source_runs(pairs, weights.config, "train")  # every pair checked before the first step
    train_pairs, val_pairs = split_pairs(pairs)
    if len(train_pairs) < 2:
        raise ValueError(f"train: {len(train_pairs)} training pairs (dataset has {len(pairs)}); "
                         "batch norm needs two or more")

    state = adam_state if adam_state is not None else ad.init_adam(
        weights.params(), learning_rate=cfg.learning_rate, decay=cfg.lr_decay
    )
    history = []

    for epoch in range(start_epoch, cfg.epochs + 1):
        state.epoch = epoch - 1  # effective lr = learning_rate * decay^(epoch-1)
        lr = ad.effective_lr(state)
        batches = list(epoch_batches(train_pairs, cfg.batch_size, cfg.seed, epoch))
        loss_sum = 0.0
        for batch_no, batch in batches:
            # the annealing index is the global optimizer step, so the
            # bandwidth narrows within the first epochs and survives resume
            # through the checkpointed step count
            sigma = losses.sigma_at(state.step_count + 1, cfg.sigma_initial, cfg.sigma_floor)
            value = _train_batch(batch, weights, sigma, state)
            if not math.isfinite(value):
                raise TrainingDivergedError(
                    f"non-finite loss {value} at epoch {epoch}, batch {batch_no}, "
                    f"sigma={sigma}, lr={lr}"
                )
            loss_sum += value * len(batch)
        recalibrate_batch_norm((b for _, b in batches), weights)
        stats = EpochStats(
            epoch=epoch,
            sigma=float(losses.sigma_at(max(state.step_count, 1), cfg.sigma_initial, cfg.sigma_floor)),
            lr=float(lr),
            train_loss=loss_sum / sum(len(b) for _, b in batches),
            val_cd=validation_cd(val_pairs, weights),
        )
        history.append(stats)
        if log is not None:
            log(stats)
        if cfg.checkpoint_every and epoch % cfg.checkpoint_every == 0:
            cdir = Path(cfg.checkpoint_dir)
            cdir.mkdir(parents=True, exist_ok=True)
            save_checkpoint(weights, state, epoch, cdir / f"checkpoint_{epoch:04d}.ckpt")
    return weights, history
