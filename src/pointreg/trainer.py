"""Training loop for the registration network.

Per epoch: seeded shuffle, mini-batches of pairs, mean symmetric GMM loss
per batch backpropagated through the shared-source forward pass, Adam with
a per-epoch decayed learning rate. The mixture bandwidth sigma anneals per optimizer
step (max(initial/sqrt(step), floor)), so the coarse phase lasts on the
order of a hundred batches and most of training runs at the floor. Every
piece of randomness is derived from (seed, epoch), so a run can be
reproduced or resumed from a checkpoint without replaying earlier epochs.

The batch-norm running statistics that eval mode reads are not the
step-wise moving average the ops keep while the weights move. At the end of
every epoch they are recomputed from the weights as they now stand, frozen,
in one train-mode pass over that epoch's batches ("precise BN", Wu &
Johnson, arXiv 2105.07576); validation, the ``log`` callback and the
checkpoint all see those statistics.
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
            if getattr(self, name) <= 0:
                raise ValueError(f"TrainConfig: {name} must be positive, got {getattr(self, name)}")
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

_TRAINING_META = ("epoch", "adam_learning_rate", "adam_decay", "adam_step_count")


def save_checkpoint(weights, adam_state: ad.AdamState, epoch: int, path) -> None:
    """Weights plus optimizer moments in one container; resuming from it
    reproduces the uninterrupted run."""
    extras = {}
    for i, (m, v) in enumerate(zip(adam_state.first_moment, adam_state.second_moment)):
        extras[f"adam.m.{i:03d}"] = m
        extras[f"adam.v.{i:03d}"] = v
    meta = {
        "epoch": int(epoch),
        "adam_step_count": int(adam_state.step_count),
        "adam_learning_rate": adam_state.learning_rate,
        "adam_decay": adam_state.decay,
    }
    prnet.save_model(path, weights, extra_meta=meta, extra_arrays=extras)


def load_checkpoint(path):
    """Returns ``(weights, adam_state, epoch)``.

    The optimizer moments are the checkpoint's own arrays, each checked
    against its parameter's shape and dtype, so a resumed run trains them
    in place; such a file must also carry every ``_TRAINING_META`` key.
    Plain model files (no optimizer arrays) load with a fresh optimizer at
    epoch 0, so the same loader serves both resuming and evaluation.
    """
    weights, meta, extras = prnet.load_model(path)
    params = weights.params()
    resumable = any(k.startswith("adam.") for k in extras)
    missing = [k for k in _TRAINING_META if k not in meta] if resumable else []
    if missing:
        raise prnet.CorruptCheckpointError(f"{path}: training meta lacks {', '.join(missing)}")
    try:
        epoch = int(meta.get("epoch", 0))
        learning_rate = float(meta.get("adam_learning_rate", 1e-4))
        decay = float(meta.get("adam_decay", 1.0))
        step_count = int(meta.get("adam_step_count", 0))
    except (TypeError, ValueError) as exc:
        raise prnet.CorruptCheckpointError(f"{path}: invalid training meta ({exc})") from exc
    if not resumable:
        return weights, ad.init_adam(params, learning_rate=learning_rate, decay=decay), epoch
    state = ad.AdamState(learning_rate=learning_rate, decay=decay, step_count=step_count)
    for i, p in enumerate(params):
        for kind, dest in (("m", state.first_moment), ("v", state.second_moment)):
            key = f"adam.{kind}.{i:03d}"
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
    return weights, state, epoch


# ---------------------------------------------------------------------------
# training


def _load_pairs(data, dim: int):
    ds = data if isinstance(data, datagen.Dataset) else datagen.load_dataset(data)
    pairs = []
    for i in range(ds.pair_count):
        src, tgt = ds.load_pair(i)
        if src.shape[1] != dim or tgt.shape[1] != dim:
            raise ValueError(
                f"pair {i}: dimension mismatch, model is {dim}D but pair is "
                f"{src.shape[1]}D/{tgt.shape[1]}D"
            )
        pairs.append((src, tgt))
    return pairs


def _source_groups(batch):
    """Consecutive runs of pairs sharing a bitwise-identical source."""
    groups = []
    for src, tgt in batch:
        key = src.tobytes()
        if groups and groups[-1][0] == key:
            groups[-1][2].append(tgt)
        else:
            groups.append((key, src, [tgt]))
    return groups


def _train_cache(caches, key, src, weights, grid):
    """Descriptor-free ``SourceCache`` for ``src``, made once per run: a cached
    descriptor would go stale with the next weight update."""
    cache = caches.get(key)
    if cache is None:
        cache = prnet.prepare_source(src, weights, grid, descriptor=False)
        caches[key] = cache
    return cache


def _train_batch(batch, weights, grid, caches, sigma, params, state):
    total = None
    for key, src, targets in _source_groups(batch):
        cache = _train_cache(caches, key, src, weights, grid)
        _, transformed = prnet.forward_shared_source(
            src, targets, weights, train=True, grid=grid, cache=cache
        )
        for t, g in zip(transformed, targets):
            term = losses.gmm_loss_symmetric(t, g, sigma)
            total = term if total is None else ad.add(total, term)
    loss = ad.scale(total, 1.0 / len(batch))
    loss.backward()
    value = float(loss.data)
    ad.recycle_graph(loss)
    if math.isfinite(value):
        ad.adam_step(params, state)
    ad.zero_grads(params, recycle=True)
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


def _bn_states(weights):
    return [layer.bn_state for layer in [*weights.mlp, *weights.convs, weights.fc1]]


def recalibrate_batch_norm(batches, weights, grid, caches) -> None:
    """Recompute every batch-norm running mean and variance from the current,
    frozen weights ("precise BN").

    Runs the train-mode forward over ``batches`` (lists of pairs) with no
    backward pass and no optimizer step. Each running statistic ends as the
    plain mean of the per-forward batch statistics: the op-level update
    ``(1 - m) * running + m * batch`` gives exactly that when the k-th
    forward runs at ``m = 1/k``. Every state's momentum is restored
    afterwards, also when a forward raises. ``caches`` maps source bytes to
    descriptor-free ``SourceCache``s, as in training.
    """
    states = _bn_states(weights)
    saved = [st.momentum for st in states]
    k = 0
    try:
        for batch in batches:
            for key, src, targets in _source_groups(batch):
                k += 1
                for st in states:
                    st.momentum = 1.0 / k
                deltas, _ = prnet.forward_shared_source(
                    src, targets, weights, train=True, grid=grid,
                    cache=_train_cache(caches, key, src, weights, grid),
                )
                ad.recycle_graph(deltas)
    finally:
        for st, m in zip(states, saved):
            st.momentum = m


def validation_cd(pairs, weights, grid=None, group_cap: int = 64) -> float:
    """Mean normalized chamfer after registration, eval mode, network frame."""
    if not pairs:
        return float("nan")
    if grid is None:
        cfg = weights.config
        grid = prnet.build_reference_grid(cfg.dim, cfg.grid_shape)
    caches = {}
    cds = []
    for key, src, targets in _source_groups(pairs):
        cache = caches.get(key)
        if cache is None:
            cache = prnet.prepare_source(src, weights, grid)
            caches[key] = cache
        for start in range(0, len(targets), group_cap):
            chunk = targets[start : start + group_cap]
            _, transformed = prnet.forward_shared_source(
                src, chunk, weights, train=False, grid=grid, cache=cache
            )
            for t, g in zip(transformed, chunk):
                cds.append(losses.chamfer_normalized(t.data, g))
    return float(np.mean(cds))


def train(cfg: TrainConfig, data, weights, adam_state: ad.AdamState = None,
          start_epoch: int = 1, log=None):
    """Optimize ``weights`` on a dataset; returns ``(weights, history)``.

    ``data`` is a dataset object or directory. The last 5% of pairs are held
    out for the per-epoch validation chamfer and never trained on. Pass the
    optimizer state and ``start_epoch`` from ``load_checkpoint`` to resume;
    the resumed trajectory is identical to the uninterrupted one because
    shuffling draws from ``(seed, epoch)``, lr is closed-form in the epoch,
    and sigma is closed-form in the checkpointed optimizer step count.

    Each epoch ends with ``recalibrate_batch_norm`` over that epoch's
    batches, so the running statistics are recomputed from the frozen
    weights rather than left as the moving average taken while they moved.
    Then come, in this order, the validation chamfer, ``log`` and the
    checkpoint, which therefore all describe the same network.
    """
    pairs = _load_pairs(data, weights.config.dim)
    train_pairs, val_pairs = split_pairs(pairs)
    if not train_pairs:
        raise ValueError(f"train: no training pairs (dataset has {len(pairs)})")

    params = weights.params()
    state = adam_state if adam_state is not None else ad.init_adam(
        params, learning_rate=cfg.learning_rate, decay=cfg.lr_decay
    )
    schedule = losses.AnnealingSchedule(cfg.sigma_initial, cfg.sigma_floor)
    grid = prnet.build_reference_grid(weights.config.dim, weights.config.grid_shape)
    caches = {}
    history = []

    for epoch in range(start_epoch, cfg.epochs + 1):
        state.epoch = epoch - 1  # effective lr = learning_rate * decay^(epoch-1)
        lr = ad.effective_lr(state)
        batches = list(epoch_batches(train_pairs, cfg.batch_size, cfg.seed, epoch))
        if not batches:
            raise ValueError(
                f"train: batch_size {cfg.batch_size} yields no usable batch "
                f"from {len(train_pairs)} training pairs"
            )
        loss_sum = 0.0
        counted = 0
        for batch_no, batch in batches:
            # the annealing index is the global optimizer step, so the
            # bandwidth narrows within the first epochs and survives resume
            # through the checkpointed step count
            sigma = losses.sigma_at(schedule, state.step_count + 1)
            value = _train_batch(batch, weights, grid, caches, sigma, params, state)
            if not math.isfinite(value):
                raise TrainingDivergedError(
                    f"non-finite loss {value} at epoch {epoch}, batch {batch_no}, "
                    f"sigma={sigma}, lr={lr}"
                )
            loss_sum += value * len(batch)
            counted += len(batch)
        recalibrate_batch_norm((b for _, b in batches), weights, grid, caches)
        stats = EpochStats(
            epoch=epoch,
            sigma=float(losses.sigma_at(schedule, max(state.step_count, 1))),
            lr=float(lr),
            train_loss=loss_sum / counted,
            val_cd=validation_cd(val_pairs, weights, grid),
        )
        history.append(stats)
        if log is not None:
            log(stats)
        if cfg.checkpoint_every and epoch % cfg.checkpoint_every == 0:
            cdir = Path(cfg.checkpoint_dir)
            cdir.mkdir(parents=True, exist_ok=True)
            save_checkpoint(weights, state, epoch, cdir / f"checkpoint_{epoch:04d}.ckpt")
    return weights, history
