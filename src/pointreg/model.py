"""The registration network.

Pipeline for one (source, target) pair in the network frame: a
per-grid-point MLP turns each set into a descriptor tensor over a fixed
reference grid, descriptors correlate all-to-all into a correlation
tensor, and a small CNN plus two fully connected layers regress
displacements of the control points (``PrNetConfig.control_points``) for a
thin-plate-spline warp of the source. The final layer starts at zero, so an
untrained model is the identity warp.

Descriptor computation sorts the input points canonically first. Max-pooling
makes the result mathematically order-free; the sort makes it bitwise
order-free, which the determinism guarantees elsewhere rely on.

Every forward takes a list of (source, target) pairs in the caller's
coordinates; this module alone decides how they reach the network
(``source_runs``). Consecutive pairs with one source share its descriptor,
and each pair is mapped into its source's network frame: the source's
centroid at the origin and its largest coordinate magnitude at 0.9
(``fit_normalizer``). Training, recalibration and inference all see pairs
in that frame, so a dataset and a scaled copy of it train alike. Each
target is correlated against its own source.

Training throughput note: one training forward takes the whole batch, and
its MLP is one op, ``autodiff.pooled_mlp``, under one set of batch
statistics over every set. Its rows (197k of them for a default 2D batch of
16: 17 sets of 96 points on 121 grid points) go through each layer in
blocks of ``autodiff.MLP_BLOCK`` grid points of one set, which fit in cache.
Each layer's statistics are known before its pass: the first layer's from
the grid's and the points' own moments, each later one's from the column
mean and Gram of the activation below it. Only the hidden activations
between the first and the last layer are stored; the first is recomputed,
and the last, the widest, is pooled block by block. Recalibration and
inference run the same forward (``_descriptors``).
"""

from __future__ import annotations

import json
import math
import numbers
import tokenize
import zipfile
import zlib
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from itertools import groupby, product

import numpy as np

from . import autodiff as ad
from . import tps


class CorruptCheckpointError(RuntimeError):
    """Raised when a checkpoint file is damaged, foreign or not a model."""


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class PrNetConfig:
    """Architecture hyperparameters; defaults follow the 2D reference setup.
    Every leaky ReLU uses the constant ``autodiff.LEAKY_SLOPE``."""

    dim: int = 2
    grid_shape: tuple = (11, 11)
    mlp_widths: tuple = (16, 32, 64, 128)
    conv_channels: tuple = (128, 256, 512)
    conv_kernels: tuple = (3, 4, 5)
    fc_hidden: int = 64
    dtype: str = "float32"

    def __post_init__(self):
        if not _is_int(self.dim) or self.dim not in (2, 3):
            raise ValueError(f"PrNetConfig: dim must be 2 or 3, got {self.dim!r}")
        for name in ("grid_shape", "mlp_widths", "conv_channels", "conv_kernels"):
            sizes = getattr(self, name)
            if not isinstance(sizes, (tuple, list)) or not sizes \
                    or not all(_is_int(s) and s >= 1 for s in sizes):
                raise ValueError(f"PrNetConfig: {name} must be positive integers, got {sizes!r}")
        if not _is_int(self.fc_hidden) or self.fc_hidden < 1:
            raise ValueError(f"PrNetConfig: fc_hidden must be a positive integer, got {self.fc_hidden!r}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"PrNetConfig: dtype must be float32 or float64, got {self.dtype!r}")
        if len(self.grid_shape) != self.dim or any(r < 2 for r in self.grid_shape):
            raise ValueError(f"PrNetConfig: grid_shape {self.grid_shape} invalid for dim {self.dim}")
        if len(self.conv_kernels) != len(self.conv_channels):
            raise ValueError("PrNetConfig: conv_kernels and conv_channels lengths differ")
        self.spatial_trace()  # validates the kernel chain fits the grid

    @staticmethod
    def for_dim(dim: int) -> "PrNetConfig":
        if dim == 3:
            return PrNetConfig(
                dim=3, grid_shape=(5, 5, 5), conv_kernels=(3, 2, 2), fc_hidden=512
            )
        return PrNetConfig()

    @property
    def grid_count(self) -> int:
        return int(np.prod(self.grid_shape))

    @property
    def theta_count(self) -> int:
        return 3**self.dim

    @property
    def output_size(self) -> int:
        return self.theta_count * self.dim

    def spatial_trace(self) -> list:
        """Spatial extents after each conv layer, validating the chain."""
        extents = list(self.grid_shape)
        trace = [tuple(extents)]
        for k in self.conv_kernels:
            extents = [e - k + 1 for e in extents]
            if any(e < 1 for e in extents):
                raise ValueError(
                    f"PrNetConfig: kernel chain {self.conv_kernels} does not fit grid {self.grid_shape}"
                )
            trace.append(tuple(extents))
        return trace

    def flat_features(self) -> int:
        return self.conv_channels[-1] * int(np.prod(self.spatial_trace()[-1]))

    @cached_property
    def reference_grid(self) -> np.ndarray:
        """The fixed grid the descriptors live on, built once per config."""
        return build_reference_grid(self.dim, self.grid_shape)

    @cached_property
    def control_points(self) -> np.ndarray:
        """The thin-plate-spline control lattice as read-only ``[3**dim,
        dim]`` float64 points: every combination of {-1, 0, 1} per axis, in
        lexicographic order, the row order of the predicted displacements."""
        pts = np.array(list(product((-1.0, 0.0, 1.0), repeat=self.dim)))
        pts.setflags(write=False)
        return pts

    def np_dtype(self):
        return np.dtype(self.dtype)


# ---------------------------------------------------------------------------
# reference grid


def build_reference_grid(dim: int, shape) -> np.ndarray:
    """Uniform lattice over [-1, 1]^dim as read-only ``[G, dim]`` float64
    points, row-major point order."""
    shape = tuple(int(s) for s in shape)
    if dim not in (2, 3) or len(shape) != dim:
        raise ValueError(f"build_reference_grid: shape {shape} invalid for dim {dim}")
    if any(s < 2 for s in shape):
        raise ValueError(f"build_reference_grid: every resolution must be >= 2, got {shape}")
    axes = [np.linspace(-1.0, 1.0, s) for s in shape]
    pts = np.array(list(product(*axes)), dtype=np.float64)
    pts.setflags(write=False)  # one grid serves every forward of a config
    return pts


# ---------------------------------------------------------------------------
# weights


@dataclass
class _Layer:
    """One layer's parameters under its name. A batch-norm layer also holds
    the running statistics that eval mode normalises by; they are not
    trainable, and ``trainer.recalibrate_batch_norm`` sets them. The output
    layer has no batch norm and leaves its four ``bn_`` fields ``None``.
    Each field after ``name`` holds the array named ``<name>.<field>``."""

    name: str
    weight: ad.Tensor
    bias: ad.Tensor
    bn_scale: ad.Tensor = None
    bn_shift: ad.Tensor = None
    bn_mean: np.ndarray = None
    bn_var: np.ndarray = None

    def arrays(self) -> list:
        """``(field, value)`` of every array the layer holds, in field order:
        trainable tensors, then running statistics as plain arrays."""
        return [(f.name, getattr(self, f.name)) for f in fields(self)[1:] if getattr(self, f.name) is not None]


@dataclass
class PrNetWeights:
    """The network's layers. ``layers`` holds all of them in forward order,
    as ``_build_weights`` appends them; ``params``, ``named_arrays`` and the
    batch-norm layers that ``trainer.recalibrate_batch_norm`` sets all follow
    it. ``mlp``, ``convs``, ``fc1`` and ``out`` name the same layers by their
    role in the forward."""

    config: PrNetConfig
    layers: list = field(default_factory=list)
    mlp: list = field(default_factory=list)
    convs: list = field(default_factory=list)
    fc1: _Layer = None
    out: _Layer = None

    def params(self) -> list:
        """Trainable tensors in a fixed order, the one the Adam moments of
        a checkpoint are numbered by: layer order, then field order."""
        return [v for layer in self.layers for _, v in layer.arrays() if isinstance(v, ad.Tensor)]

    def named_arrays(self) -> dict:
        """Every persistent array (parameters and running stats) by name."""
        return {f"{layer.name}.{name}": v.data if isinstance(v, ad.Tensor) else v
                for layer in self.layers for name, v in layer.arrays()}


def _build_weights(config: PrNetConfig, array) -> PrNetWeights:
    """Assemble the network layer by layer from ``array(name, shape, fan_in, fill)``.

    This is the one place the layer structure is written down.
    ``init_weights`` draws each array (uniform by ``fan_in`` where one is
    given, else the constant ``fill``) and ``load_model`` takes it from a
    checkpoint. Arrays are requested in layer order, weight first; that
    order fixes which random stream each initial weight is drawn from.
    """
    weights = PrNetWeights(config=config)

    def layer(name, weight_shape, fan_in, width, with_bn=True):
        values = [ad.Tensor(array(f"{name}.weight", weight_shape, fan_in, 0.0), requires_grad=True),
                  ad.Tensor(array(f"{name}.bias", (width,), None, 0.0), requires_grad=True)]
        if with_bn:
            values += [
                ad.Tensor(array(f"{name}.bn_scale", (width,), None, 1.0), requires_grad=True),
                ad.Tensor(array(f"{name}.bn_shift", (width,), None, 0.0), requires_grad=True),
                array(f"{name}.bn_mean", (width,), None, 0.0),
                array(f"{name}.bn_var", (width,), None, 1.0),
            ]
        weights.layers.append(_Layer(name, *values))
        return weights.layers[-1]

    in_w = 2 * config.dim
    for i, width in enumerate(config.mlp_widths):
        weights.mlp.append(layer(f"mlp{i}", (in_w, width), in_w, width))
        in_w = width

    in_c = config.grid_count
    for i, (ch, k) in enumerate(zip(config.conv_channels, config.conv_kernels)):
        kshape = (ch, in_c) + (k,) * config.dim
        weights.convs.append(layer(f"conv{i}", kshape, in_c * k**config.dim, ch))
        in_c = ch

    flat = config.flat_features()
    weights.fc1 = layer("fc1", (flat, config.fc_hidden), flat, config.fc_hidden)
    # the output layer starts at zero: an untrained model is the identity warp
    weights.out = layer("out", (config.fc_hidden, config.output_size), None,
                        config.output_size, with_bn=False)
    return weights


def init_weights(config: PrNetConfig, seed: int) -> PrNetWeights:
    """Fan-in-scaled uniform init everywhere; the output layer starts at zero."""
    dt = config.np_dtype()
    stream = 0

    def array(name, shape, fan_in, fill):
        nonlocal stream
        if fan_in is None:
            return np.full(shape, fill, dtype=dt)
        stream += 1
        limit = np.sqrt(6.0 / fan_in)
        rng = np.random.default_rng([int(seed), stream])
        return rng.uniform(-limit, limit, size=shape).astype(dt)

    return _build_weights(config, array)


# ---------------------------------------------------------------------------
# normalization into the unit box


@dataclass(frozen=True)
class Normalizer:
    """Similarity transform: subtract the center, then scale uniformly."""

    center: np.ndarray
    scale: float

    def apply(self, points: np.ndarray) -> np.ndarray:
        # a far set may overflow to inf, which the network's input check rejects
        with np.errstate(over="ignore"):
            return (np.asarray(points, dtype=np.float64) - self.center) * self.scale

    def invert(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=np.float64) / self.scale + self.center


_EXTENT = 0.9  # largest coordinate magnitude of a source in the network frame


def fit_normalizer(points) -> Normalizer:
    """Transform putting the centroid at the origin and the largest
    coordinate magnitude at 0.9: the network frame of a source."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError(f"fit_normalizer: need a nonempty [N, dim] set, got {pts.shape}")
    center = pts.mean(axis=0)
    spread = float(np.abs(pts - center).max())
    scale = _EXTENT / spread if spread > 0 else 1.0
    if not math.isfinite(scale):
        raise ValueError(f"fit_normalizer: spread {spread:.3g} is too small to scale to {_EXTENT}")
    return Normalizer(center=center, scale=scale)


# ---------------------------------------------------------------------------
# descriptor and correlation tensors


def canonical_order(points: np.ndarray) -> np.ndarray:
    """Points sorted lexicographically by coordinates.

    Descriptors are computed on this ordering, so any permutation of the
    input yields bitwise-identical results.
    """
    pts = np.asarray(points)
    return pts[np.lexsort(pts.T[::-1])]


def compute_correlation(f_s: ad.Tensor, f_g_all: ad.Tensor, grid_count: int) -> ad.Tensor:
    """Correlation tensors of one source against a stack of targets.

    ``f_s`` is the source descriptor ``[G, d]``; ``f_g_all`` stacks the
    targets' descriptors as ``[B*G, d]``. The result is ``[B*G, G]`` in conv
    layout: in each pair's block, row j (a target grid point, the channel)
    holds its inner products with every source grid point (the spatial
    position), and each column of the block is scaled to unit norm.
    """
    if f_s.data.shape[1] != f_g_all.data.shape[1]:
        raise ValueError(
            f"compute_correlation: feature dims differ, {f_s.data.shape} vs {f_g_all.data.shape}"
        )
    return ad.l2_normalize_block_cols(ad.matmul(f_g_all, f_s, transpose_b=True), grid_count)


# ---------------------------------------------------------------------------
# graph-free forward
#
# Two stages, descriptors and head, compute what the training graph computes
# without recording one. Each takes ``stats``: ``None`` normalises every
# batch-norm layer by its running statistics (eval); a list normalises by
# the call's own batch statistics and appends each layer's ``(mean, var)``
# to it, in layer order (recalibration). Either way each stage runs the
# training ops' own forward: ``autodiff.pooled_mlp_forward`` for the MLP,
# ``autodiff.bn_act_forward`` for the norm and activation of the head.


def _bn_act(x, w, layer: _Layer, stats) -> np.ndarray:
    """``leaky_relu(batch_norm(x @ w + bias))`` for rows ``x``; ``w`` is the
    layer's weight as ``[in, out]``.

    The statistics apply to the product rows, not folded into ``w``: in the
    head, which calls this with running statistics, the weights outnumber
    the rows (conv2 alone has 3.3M entries against 4 rows per pair).
    """
    z = x @ w
    z += layer.bias.data
    running = (layer.bn_mean, layer.bn_var) if stats is None else ()
    act, mean, var, _, _ = ad.bn_act_forward(z, layer.bn_scale.data, layer.bn_shift.data, *running, out=z)
    if stats is not None:
        stats.append((mean, var))
    return act


def _descriptors(ordered_sets, weights: PrNetWeights, stats) -> np.ndarray:
    """Unit-norm descriptors of pre-sorted sets, stacked as ``[(num_sets * G), d]``.

    The MLP and its pool are ``autodiff.pooled_mlp_forward``, the training
    op's own forward, by running statistics or, with ``stats``, by batch
    statistics, whose ``(mean, var)`` per layer it appends. The pooled rows
    are normalised in place by ``autodiff.unit_rows``, the forward of
    training's ``l2_normalize_rows``, so the head's batch statistics are
    the training forward's bit for bit.
    """
    mlp = ad.pooled_mlp_forward(ordered_sets, weights.config.reference_grid, weights.mlp, stats is not None)
    mlp.release()
    if stats is not None:
        stats += mlp.stats
    return ad.unit_rows(mlp.out, out=mlp.out)[0]


def _correlations(desc: ad.Tensor, owners, g: int) -> ad.Tensor:
    """Each target's correlation tensor against its own source, stacked as
    ``[B*G, G]``. ``desc`` stacks descriptors of ``G`` rows, first the
    ``owners[-1] + 1`` sources of ``source_runs``, then the B targets."""
    parts, lo = [], owners[-1] + 1
    for owner, run in groupby(owners):
        hi = lo + len(list(run))
        parts.append(compute_correlation(ad.row_slice(desc, owner * g, (owner + 1) * g),
                                         ad.row_slice(desc, lo * g, hi * g), g))
        lo = hi
    return ad.concat_rows(parts)


def _head(corr: np.ndarray, weights: PrNetWeights, stats) -> np.ndarray:
    """Control-point displacements ``[B, theta_count*dim]`` from the stacked
    correlation tensors ``[B*G, G]`` of ``_correlations``."""
    cfg = weights.config
    g = cfg.grid_count
    batch = corr.shape[0] // g
    h = corr.reshape((batch, g) + cfg.grid_shape)
    for layer in weights.convs:
        kd = layer.weight.data
        cols, out_spatial = ad.window_rows(h, kd.shape[2:])
        act = _bn_act(cols, kd.reshape(kd.shape[0], -1).T, layer, stats)
        h = np.moveaxis(act.reshape((batch,) + out_spatial + (-1,)), -1, 1)
    h = _bn_act(h.reshape(batch, -1), weights.fc1.weight.data, weights.fc1, stats)
    return h @ weights.out.weight.data + weights.out.bias.data


# ---------------------------------------------------------------------------
# full forward

# Pairs per graph-free inference pass: bounds the conv stage's window rows,
# which grow with the batch (81 rows of 1089 columns per pair at conv0 of
# the default 2D net).
EVAL_CHUNK = 64


def _checked_points(points, cfg: PrNetConfig, where: str, role: str, limit: float) -> np.ndarray:
    """A nonempty ``[N, dim]`` float64 set with no NaN and no coordinate
    larger in magnitude than ``limit``, in the caller's point order."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != cfg.dim:
        raise ValueError(f"{where}: dimension mismatch, {role} points {pts.shape} do not match "
                         f"model dim {cfg.dim}")
    if pts.shape[0] == 0:
        raise ValueError(f"{where}: empty {role} set")
    peak = np.abs(pts).max()
    if np.isnan(peak):
        raise ValueError(f"{where}: {role} coordinates must be finite, got NaN")
    if peak > limit:
        raise ValueError(f"{where}: {role} coordinate of magnitude {peak:.3g} exceeds the {cfg.dtype} range")
    return pts


def source_runs(pairs, cfg: PrNetConfig, where: str) -> tuple:
    """``(runs, owners, targets)``: a nonempty list of ``(source, target)``
    pairs mapped into the network frame.

    Consecutive pairs whose sources are bitwise identical form a run, which
    shares one source descriptor and one frame, the ``fit_normalizer`` of
    its raw source. ``runs`` holds each run's ``(normalizer, source)``, the
    source mapped into that frame, and ``owners[i]`` indexes pair ``i``'s
    run. ``targets`` are the pairs' targets in their run's frame, checked to
    fit the network dtype. Both keep the caller's point order. Every raw
    set is checked before any frame is fitted, so a malformed pair anywhere
    in the list raises before any forward work.
    """
    if len(pairs) == 0:
        raise ValueError(f"{where}: no pairs")
    raw = [[_checked_points(pts, cfg, f"{where}: pair {i}", role, np.finfo(np.float64).max)
            for pts, role in zip(pair, ("source", "target"))] for i, pair in enumerate(pairs)]
    runs, owners, key = [], [], None
    for src, _ in raw:
        if (src.shape, src.tobytes()) != key:
            key = (src.shape, src.tobytes())
            norm = fit_normalizer(src)
            runs.append((norm, norm.apply(src)))
        owners.append(len(runs) - 1)
    limit = np.finfo(cfg.np_dtype()).max
    targets = [_checked_points(runs[o][0].apply(tgt), cfg, f"{where}: pair {i}", "target", limit)
               for i, (o, (_, tgt)) in enumerate(zip(owners, raw))]
    return runs, owners, targets


def prepare_source(source, weights: PrNetWeights) -> tuple:
    """``(ordered, basis)`` of a source in the network frame: the checked,
    canonically ordered points and their float64 thin-plate-spline warp
    basis, which both forwards apply to the predicted control points."""
    cfg = weights.config
    src = canonical_order(_checked_points(source, cfg, "prepare_source", "source",
                                          np.finfo(cfg.np_dtype()).max))
    return src, tps.tps_basis(cfg.control_points, src)


def forward_shared_source(pairs, weights: PrNetWeights):
    """Inference for a list of ``(source, target)`` pairs of point sets: the
    one path by which ``evaluator.evaluate`` and ``trainer.validation_cd``
    run the network.

    Returns plain arrays ``(thetas, transformed)``: the float64 ``[B,
    theta_count, dim]`` control-point targets in the network frame, each
    ``control_points`` plus the predicted displacement rounded to the
    network dtype, and per pair the warped, canonically ordered source,
    ``basis @ theta`` by exactly that theta, mapped back from the network
    frame into the caller's.

    Graph-free, with every batch norm by its running statistics. The pairs
    go through ``EVAL_CHUNK`` at a time; in a chunk, each run of pairs with
    one source (``source_runs``) computes its descriptor once.
    """
    cfg = weights.config
    runs, owners, targets = source_runs(pairs, cfg, "forward_shared_source")
    prepared = [prepare_source(src, weights) for _, src in runs]
    theta0 = cfg.control_points.reshape(1, -1)
    thetas, transformed = [], []
    for lo in range(0, len(pairs), EVAL_CHUNK):
        chunk_owners = owners[lo:lo + EVAL_CHUNK]
        first = chunk_owners[0]
        sets = [src for src, _ in prepared[first:chunk_owners[-1] + 1]]
        sets += [canonical_order(t) for t in targets[lo:lo + EVAL_CHUNK]]
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught below
            desc = _descriptors(sets, weights, None)
            corr = _correlations(ad.Tensor(desc), [o - first for o in chunk_owners], cfg.grid_count)
            deltas = _head(corr.data, weights, None)
        bad = np.flatnonzero(~np.isfinite(deltas).all(axis=1))
        if bad.size:  # coordinates in the dtype's range can still overflow the network
            raise ValueError(f"forward_shared_source: pair {lo + bad[0]} overflows the {cfg.dtype} network")
        # theta is exact at identity, so with the full-precision basis the
        # transform round-trips to solver precision, not the network dtype's
        chunk = (deltas + theta0.astype(deltas.dtype)).astype(np.float64).reshape(-1, cfg.theta_count, cfg.dim)
        transformed += [runs[o][0].invert(prepared[o][1] @ theta) for o, theta in zip(chunk_owners, chunk)]
        thetas.append(chunk)
    return np.concatenate(thetas), transformed


def train_forward(pairs, weights: PrNetWeights):
    """The training forward of a batch of ``(source, target)`` pairs: the
    network of ``forward_shared_source``, recorded as an autodiff graph and
    normalized by batch statistics. Only the trainer calls it.

    One forward for the whole batch: its sources (one per run of
    ``source_runs``) and targets share the MLP's batch statistics, and the
    head's statistics span all its pairs, so it needs two or more. Returns
    ``(deltas, transformed, targets)``, all in the network frame: tensors of
    the displacements and of each pair's warped source (by the basis in the
    network dtype), and each pair's target as an array in the caller's
    point order, which the loss scores the warped source against.
    """
    cfg = weights.config
    runs, owners, targets = source_runs(pairs, cfg, "train_forward")
    prepared = [prepare_source(src, weights) for _, src in runs]
    batch = len(targets)
    g = cfg.grid_count
    sets = [src for src, _ in prepared] + [canonical_order(t) for t in targets]
    desc = ad.l2_normalize_rows(ad.pooled_mlp(sets, cfg.reference_grid, weights.mlp))
    h = ad.reshape(_correlations(desc, owners, g), (batch, g) + cfg.grid_shape)
    for layer in weights.convs:
        h = ad.conv_bn_act_batch(h, layer.weight, layer.bias, layer.bn_scale, layer.bn_shift)
    fc1 = weights.fc1
    h = ad.dense_bn_act(ad.reshape(h, (batch, cfg.flat_features())), fc1.weight, fc1.bias,
                        fc1.bn_scale, fc1.bn_shift)
    deltas = ad.linear(h, weights.out.weight, weights.out.bias)

    theta0 = cfg.control_points.astype(deltas.data.dtype).reshape(1, -1)
    bases = [ad.Tensor(basis.astype(cfg.np_dtype())) for _, basis in prepared]
    transformed = []
    for i, owner in enumerate(owners):
        theta_i = ad.reshape(ad.add(ad.row_slice(deltas, i, i + 1), theta0), (cfg.theta_count, cfg.dim))
        transformed.append(ad.matmul(bases[owner], theta_i))
    return deltas, transformed, targets


def batch_norm_statistics(pairs, weights: PrNetWeights) -> list:
    """``(mean, var)`` of every batch-norm layer, in layer order (MLP,
    convs, fc1), as ``train_forward`` of the same pairs computes them: the
    same network frame and batch, with no graph and no transform, so no
    warp basis. The MLP's are float64, from the forward that
    ``autodiff.pooled_mlp`` runs, the head's in the network dtype."""
    cfg = weights.config
    runs, owners, targets = source_runs(pairs, cfg, "batch_norm_statistics")
    if len(targets) < 2:
        raise ValueError("batch_norm_statistics: fc1's batch norm needs two or more pairs, got 1")
    stats = []
    sets = [canonical_order(s) for s in [*(src for _, src in runs), *targets]]
    desc = _descriptors(sets, weights, stats)
    _head(_correlations(ad.Tensor(desc), owners, cfg.grid_count).data, weights, stats)
    return stats


# ---------------------------------------------------------------------------
# checkpoint file
#
# A checkpoint is an uncompressed numpy ``.npz``: a zip of one ``.npy``
# member per named array, plus the member ``meta``, the sorted-key JSON meta
# as uint8 bytes. Each zip member carries a CRC-32 that ``zipfile`` checks
# once the member is read to its end, so every member is read to its end.

_META = "meta"
# what numpy and zipfile raise on a damaged or foreign file once it is open.
# A member's .npy header is parsed before its CRC-32 is checked, so a damaged
# header raises what numpy's parser does: SyntaxError, TokenError, or
# TypeError for a shape that holds a bool. RuntimeError is zipfile's on a
# member flagged as encrypted, OSError a seek to a damaged offset.
_READ_ERRORS = (zipfile.BadZipFile, ValueError, TypeError, SyntaxError, tokenize.TokenError,
                RuntimeError, OSError, EOFError, NotImplementedError, zlib.error)
# the fields of a layer's arrays, which ``load_model`` reads as ``<layer>.<field>``
_LAYER_FIELDS = {f.name for f in fields(_Layer)[1:]}


def _member(path, archive: zipfile.ZipFile, filename: str) -> np.ndarray:
    """The array in member ``filename`` of the open ``archive``, as a new
    buffer of its own. The member is read to its end whatever its ``.npy``
    header says, so zipfile checks its CRC-32: a damaged header length
    would otherwise shift the array and leave the check unmade."""
    try:
        with archive.open(filename) as f:
            arr = np.lib.format.read_array(f, allow_pickle=False)
            rest = f.read()
    except _READ_ERRORS as exc:
        raise CorruptCheckpointError(f"{path}: unreadable member {filename} ({exc})") from exc
    if rest:
        raise CorruptCheckpointError(f"{path}: member {filename} holds {len(rest)} bytes past its array")
    return arr


def read_checkpoint(path, keep=None) -> tuple:
    """``(arrays, meta)`` of a checkpoint: its meta and each array member
    whose name ``keep`` accepts, or every one when ``keep`` is None.

    Only the accepted members are read. Each array is a new buffer of its
    own, and the file is closed on return, so it may then be overwritten.
    A file that is no zip, a repeated member name, a damaged or non-``.npy``
    member or a meta that is not a JSON object raises
    ``CorruptCheckpointError``.
    """
    with open(path, "rb") as f:
        try:
            archive = zipfile.ZipFile(f)
        except _READ_ERRORS as exc:
            raise CorruptCheckpointError(f"{path}: not an .npz checkpoint") from exc
        members = {filename.removesuffix(".npy"): filename for filename in archive.namelist()}
        if len(members) != len(archive.namelist()):
            raise CorruptCheckpointError(f"{path}: a member name is repeated")
        if _META not in members:
            raise CorruptCheckpointError(f"{path}: no {_META} member")
        try:
            meta = json.loads(_member(path, archive, members[_META]).tobytes().decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise CorruptCheckpointError(f"{path}: unreadable meta ({exc})") from exc
        if not isinstance(meta, dict):
            raise CorruptCheckpointError(f"{path}: meta is not a JSON object")
        arrays = {name: _member(path, archive, filename) for name, filename in members.items()
                  if name != _META and (keep is None or keep(name))}
    return arrays, meta


def save_model(path, weights: PrNetWeights, extra_meta: dict, extra_arrays: dict) -> None:
    """Write ``weights``, their config and the optimizer state that
    ``trainer.save_checkpoint`` passes as extra meta keys and arrays, to
    exactly ``path``: ``np.savez`` is handed the open file, since given a
    name it would append ``.npz``."""
    meta = {"kind": "pointreg-model", "config": asdict(weights.config), **extra_meta}
    arrays = weights.named_arrays()
    overlap = (set(arrays) | {_META}) & set(extra_arrays)
    if overlap:
        raise ValueError(f"save_model: extra array names collide: {sorted(overlap)}")
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        np.savez(f, **{_META: np.frombuffer(blob, dtype=np.uint8)}, **arrays, **extra_arrays)


def _config_from_meta(path, meta: dict) -> PrNetConfig:
    c = meta.get("config")
    if not isinstance(c, dict):
        raise CorruptCheckpointError(f"{path}: model meta has no config")
    names = [f.name for f in fields(PrNetConfig)]
    missing = [n for n in names if n not in c]
    if missing:
        raise CorruptCheckpointError(f"{path}: config lacks {', '.join(missing)}")
    unknown = sorted(set(c) - set(names))
    if unknown:
        raise CorruptCheckpointError(f"{path}: invalid config (no field {', '.join(unknown)})")
    try:
        return PrNetConfig(**{n: tuple(c[n]) if isinstance(c[n], list) else c[n] for n in names})
    except (TypeError, ValueError) as exc:
        raise CorruptCheckpointError(f"{path}: invalid config ({exc})") from exc


def load_model(path, extra_prefix=None) -> tuple:
    """``(weights, meta, extras)`` from a checkpoint.

    Reads the meta and the members named ``<layer>.<field>`` only; with
    ``extra_prefix``, also every member whose name starts with it. The
    weights are built around the arrays ``read_checkpoint`` returns, each
    checked for name, shape and dtype, with no further copy; ``extras``
    holds the arrays read that the model does not use.
    """
    def keep(name):
        return name.partition(".")[2] in _LAYER_FIELDS or (
            extra_prefix is not None and name.startswith(extra_prefix))

    arrays, meta = read_checkpoint(path, keep)
    if meta.get("kind") != "pointreg-model":
        raise CorruptCheckpointError(f"{path}: not a model checkpoint")
    cfg = _config_from_meta(path, meta)
    dt = cfg.np_dtype()

    def array(name, shape, fan_in, fill):
        arr = arrays.pop(name, None)
        if arr is None:
            raise CorruptCheckpointError(f"{path}: missing array {name}")
        if arr.shape != shape:
            raise CorruptCheckpointError(f"{path}: array {name} has shape {arr.shape}, expected {shape}")
        if arr.dtype != dt:
            raise CorruptCheckpointError(f"{path}: array {name} has dtype {arr.dtype}, expected {dt}")
        return arr

    weights = _build_weights(cfg, array)
    return weights, meta, arrays
