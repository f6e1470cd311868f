"""The registration network.

Pipeline for one (source, target) pair, both sets normalized into the unit
box: a per-grid-point MLP turns each set into a descriptor tensor over a
fixed reference grid, descriptors correlate all-to-all into a correlation
tensor, and a small CNN plus two fully connected layers regress control-point
displacements for a thin-plate-spline warp of the source. The final layer
starts at zero, so an untrained model is the identity warp.

Descriptor computation sorts the input points canonically first. Max-pooling
makes the result mathematically order-free; the sort makes it bitwise
order-free, which the determinism guarantees elsewhere rely on.

Training throughput note: all per-pair MLP rows of a batch are pushed
through one stacked matrix product with per-pair batch-norm groups, which is
considerably faster than looping pairs on one core.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, field, fields
from itertools import product

import numpy as np

from . import autodiff as ad
from . import tps


class CorruptCheckpointError(RuntimeError):
    """Raised when a checkpoint fails structural or checksum validation."""


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class PrNetConfig:
    """Architecture hyperparameters; defaults follow the 2D reference setup."""

    dim: int = 2
    grid_shape: tuple = (11, 11)
    mlp_widths: tuple = (16, 32, 64, 128)
    conv_channels: tuple = (128, 256, 512)
    conv_kernels: tuple = (3, 4, 5)
    fc_hidden: int = 64
    leaky_slope: float = 0.1
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
        if not isinstance(self.leaky_slope, numbers.Real) or isinstance(self.leaky_slope, bool):
            raise ValueError(f"PrNetConfig: leaky_slope must be a number, got {self.leaky_slope!r}")
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

    def np_dtype(self):
        return np.dtype(self.dtype)


# ---------------------------------------------------------------------------
# reference grid


@dataclass(frozen=True)
class ReferenceGrid:
    dim: int
    shape: tuple
    points: np.ndarray

    @property
    def count(self) -> int:
        return self.points.shape[0]


def build_reference_grid(dim: int, shape) -> ReferenceGrid:
    """Uniform lattice over [-1, 1]^dim, row-major point order."""
    shape = tuple(int(s) for s in shape)
    if dim not in (2, 3) or len(shape) != dim:
        raise ValueError(f"build_reference_grid: shape {shape} invalid for dim {dim}")
    if any(s < 2 for s in shape):
        raise ValueError(f"build_reference_grid: every resolution must be >= 2, got {shape}")
    axes = [np.linspace(-1.0, 1.0, s) for s in shape]
    pts = np.array(list(product(*axes)), dtype=np.float64)
    return ReferenceGrid(dim=dim, shape=shape, points=pts)


# ---------------------------------------------------------------------------
# weights


@dataclass
class _Layer:
    weight: ad.Tensor
    bias: ad.Tensor
    bn_scale: ad.Tensor = None
    bn_shift: ad.Tensor = None
    bn_state: ad.BatchNormState = None


@dataclass
class PrNetWeights:
    config: PrNetConfig
    mlp: list = field(default_factory=list)
    convs: list = field(default_factory=list)
    fc1: _Layer = None
    out: _Layer = None

    def params(self) -> list:
        """Trainable tensors in a fixed, documented order."""
        ps = []
        for layer in [*self.mlp, *self.convs, self.fc1]:
            ps.extend([layer.weight, layer.bias, layer.bn_scale, layer.bn_shift])
        ps.extend([self.out.weight, self.out.bias])
        return ps

    def named_arrays(self) -> dict:
        """Every persistent array (parameters and running stats) by name."""
        out = {}

        def put(prefix, layer, with_bn=True):
            out[f"{prefix}.weight"] = layer.weight.data
            out[f"{prefix}.bias"] = layer.bias.data
            if with_bn:
                out[f"{prefix}.bn_scale"] = layer.bn_scale.data
                out[f"{prefix}.bn_shift"] = layer.bn_shift.data
                out[f"{prefix}.bn_mean"] = layer.bn_state.running_mean
                out[f"{prefix}.bn_var"] = layer.bn_state.running_var

        for i, layer in enumerate(self.mlp):
            put(f"mlp{i}", layer)
        for i, layer in enumerate(self.convs):
            put(f"conv{i}", layer)
        put("fc1", self.fc1)
        put("out", self.out, with_bn=False)
        return out


def _build_weights(config: PrNetConfig, array) -> PrNetWeights:
    """Assemble the network layer by layer from ``array(name, shape, fan_in, fill)``.

    This is the one place the layer structure is written down.
    ``init_weights`` draws each array (uniform by ``fan_in`` where one is
    given, else the constant ``fill``) and ``load_model`` takes it from a
    checkpoint. Arrays are requested in layer order, weight first; that
    order fixes which random stream each initial weight is drawn from.
    """

    def layer(prefix, weight_shape, fan_in, width, with_bn=True):
        weight = ad.Tensor(array(f"{prefix}.weight", weight_shape, fan_in, 0.0), requires_grad=True)
        bias = ad.Tensor(array(f"{prefix}.bias", (width,), None, 0.0), requires_grad=True)
        if not with_bn:
            return _Layer(weight, bias)
        return _Layer(
            weight, bias,
            ad.Tensor(array(f"{prefix}.bn_scale", (width,), None, 1.0), requires_grad=True),
            ad.Tensor(array(f"{prefix}.bn_shift", (width,), None, 0.0), requires_grad=True),
            ad.BatchNormState(
                running_mean=array(f"{prefix}.bn_mean", (width,), None, 0.0),
                running_var=array(f"{prefix}.bn_var", (width,), None, 1.0),
            ),
        )

    weights = PrNetWeights(config=config)
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
        return (np.asarray(points, dtype=np.float64) - self.center) * self.scale

    def invert(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=np.float64) / self.scale + self.center


def fit_normalizer(points, extent: float = 0.9) -> Normalizer:
    """Transform putting the centroid at the origin and the largest
    coordinate magnitude at ``extent``."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError(f"fit_normalizer: need a nonempty [N, dim] set, got {pts.shape}")
    center = pts.mean(axis=0)
    spread = np.abs(pts - center).max()
    scale = extent / spread if spread > 0 else 1.0
    return Normalizer(center=center, scale=float(scale))


# ---------------------------------------------------------------------------
# descriptor and correlation tensors


def canonical_order(points: np.ndarray) -> np.ndarray:
    """Points sorted lexicographically by coordinates.

    Descriptors are computed on this ordering, so any permutation of the
    input yields bitwise-identical results.
    """
    pts = np.asarray(points)
    return pts[np.lexsort(pts.T[::-1])]


def _descriptor_rows(point_sets, grid: ReferenceGrid, dtype) -> np.ndarray:
    """Stacked MLP input rows [grid_point, set_point] for each set in order."""
    g = grid.points.astype(dtype)
    k_counts = [p.shape[0] for p in point_sets]
    blocks = []
    left = None
    for pts, k in zip(point_sets, k_counts):
        if left is None or left.shape[0] != grid.count * k:
            left = np.repeat(g, k, axis=0)
        right = np.tile(np.asarray(pts, dtype=dtype), (grid.count, 1))
        blocks.append(np.concatenate([left, right], axis=1))
    return np.concatenate(blocks, axis=0) if len(blocks) > 1 else blocks[0]


def _mlp_chain(rows: np.ndarray, weights: PrNetWeights, train: bool) -> ad.Tensor:
    cfg = weights.config
    h = rows
    for layer in weights.mlp:
        h = ad.dense_bn_act(
            h, layer.weight, layer.bias, layer.bn_scale, layer.bn_shift,
            layer.bn_state, train, cfg.leaky_slope,
        )
    return h


def _descriptor_block(ordered_sets, grid: ReferenceGrid, weights: PrNetWeights, train: bool) -> ad.Tensor:
    """Descriptors for pre-sorted sets, stacked as [(num_sets * G), d].

    All sets share a single MLP pass (and in train mode a single set of
    batch statistics); pooling happens per set afterwards. Runs of sets with
    equal point counts pool together in one reshape.
    """
    g = grid.count
    rows = _descriptor_rows(ordered_sets, grid, weights.config.np_dtype())
    h = _mlp_chain(rows, weights, train)
    counts = [s.shape[0] for s in ordered_sets]
    parts = []
    offset = 0
    i = 0
    while i < len(counts):
        j = i
        while j < len(counts) and counts[j] == counts[i]:
            j += 1
        n_rows = (j - i) * g * counts[i]
        segment = h if n_rows == h.data.shape[0] else ad.row_slice(h, offset, offset + n_rows)
        parts.append(ad.max_pool_rows(segment, counts[i]))
        offset += n_rows
        i = j
    pooled = parts[0] if len(parts) == 1 else ad.concat_rows(parts)
    return ad.l2_normalize_rows(pooled)


def _folded_mlp(weights: PrNetWeights) -> list:
    """Per-layer (weight, bias) with the eval-mode batch norm folded in."""
    dt = weights.config.np_dtype()
    layers = []
    for layer in weights.mlp:
        st = layer.bn_state
        inv = 1.0 / np.sqrt(st.running_var.astype(dt) + st.eps)
        alpha = layer.bn_scale.data * inv
        wf = np.ascontiguousarray(layer.weight.data * alpha)
        bf = (layer.bias.data - st.running_mean.astype(dt)) * alpha + layer.bn_shift.data
        layers.append((wf, bf))
    return layers


def _sdt_eval(ordered_sets, grid: ReferenceGrid, weights: PrNetWeights) -> np.ndarray:
    """Descriptors for pre-sorted sets without graph bookkeeping.

    Inference twin of ``_descriptor_block``: one set at a time so the
    intermediates stay cache-sized, batch norm folded into the weights, and
    all scratch recycled. Differences from the graph path are float rounding
    only.
    """
    cfg = weights.config
    dt = cfg.np_dtype()
    slope = cfg.leaky_slope
    gpts = grid.points.astype(dt)
    g, dim = gpts.shape
    layers = _folded_mlp(weights)
    widths = [wf.shape[1] for wf, _ in layers]
    out = np.empty((len(ordered_sets) * g, widths[-1]), dtype=dt)
    cap = g * max(p.shape[0] for p in ordered_sets)
    buf_in = ad._scratch.take((cap, 2 * dim), dt)
    bufs = [ad._scratch.take((cap, wd), dt) for wd in widths]
    lows = [ad._scratch.take((cap, wd), dt) for wd in widths]
    for si, pts in enumerate(ordered_sets):
        k = pts.shape[0]
        rows = g * k
        rin = buf_in[:rows]
        rv = rin.reshape(g, k, 2 * dim)
        rv[:, :, :dim] = gpts[:, None, :]
        rv[:, :, dim:] = np.asarray(pts, dtype=dt)
        h = rin
        for (wf, bf), buf, low in zip(layers, bufs, lows):
            z = np.matmul(h, wf, out=buf[:rows])
            z += bf
            np.multiply(z, slope, out=low[:rows])
            np.maximum(z, low[:rows], out=z)
            h = z
        np.max(h.reshape(g, k, widths[-1]), axis=1, out=out[si * g:(si + 1) * g])
    for b in [buf_in] + bufs + lows:
        ad._scratch.give(b)
    norms = np.sqrt(np.einsum("nd,nd->n", out, out))[:, None]
    np.maximum(norms, 1e-12, out=norms)
    out /= norms
    return out


def compute_sdt(points, grid: ReferenceGrid, weights: PrNetWeights, train: bool = False) -> ad.Tensor:
    """Shape descriptor tensor: one unit-norm feature row per grid point.

    Eval mode returns a constant tensor (no gradients flow back to the
    weights); train mode participates in the graph.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != grid.dim:
        raise ValueError(f"compute_sdt: points {pts.shape} do not match grid dim {grid.dim}")
    if pts.shape[0] == 0:
        raise ValueError("compute_sdt: empty point set")
    if train:
        return _descriptor_block([canonical_order(pts)], grid, weights, train)
    return ad.Tensor(_sdt_eval([canonical_order(pts)], grid, weights))


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
# prediction head


def _fc_head(flat_rows: ad.Tensor, weights: PrNetWeights, train: bool) -> ad.Tensor:
    cfg = weights.config
    h = ad.dense_bn_act(
        flat_rows, weights.fc1.weight, weights.fc1.bias, weights.fc1.bn_scale,
        weights.fc1.bn_shift, weights.fc1.bn_state, train, cfg.leaky_slope,
    )
    return ad.linear(h, weights.out.weight, weights.out.bias)


# ---------------------------------------------------------------------------
# full forward


@dataclass
class SourceCache:
    """Per-source constants reused across pairs: sorted points, warp basis
    (full precision plus the network dtype), and (eval mode only) the frozen
    source descriptor.

    The descriptor belongs to the weights it was computed with; a cache must
    not outlive a weight update (the trainer keeps descriptor-free caches
    for exactly that reason).
    """

    ordered: np.ndarray
    basis: np.ndarray
    basis_f64: np.ndarray
    sdt_eval: np.ndarray = None


def prepare_source(source, weights: PrNetWeights, grid: ReferenceGrid,
                   descriptor: bool = True) -> SourceCache:
    src = canonical_order(np.asarray(source, dtype=np.float64))
    control = tps.make_control_grid(weights.config.dim)
    basis = tps.tps_basis(control, src)
    cache = SourceCache(
        ordered=src, basis=basis.astype(weights.config.np_dtype()), basis_f64=basis
    )
    if descriptor:
        cache.sdt_eval = _sdt_eval([src], grid, weights)
    return cache


def forward_shared_source(
    source,
    targets,
    weights: PrNetWeights,
    train: bool = False,
    grid: ReferenceGrid = None,
    cache: SourceCache = None,
    with_graph: bool = None,
):
    """Forward pass for one source against ``targets`` (list of point sets).

    Returns ``(deltas, transformed)``: the ``[B, theta_count*dim]`` tensor of
    predicted control-point displacements and a list of transformed source
    sets. Target sets of equal size share one batched descriptor pass.
    Coordinates are taken as already being in the network frame (the training
    data is generated there); ``forward`` and the evaluator fit and invert
    the similarity normalization around this call.

    Training always builds the autodiff graph. Eval skips it by default and
    runs the fast inference descriptors; pass ``with_graph=True`` to get
    eval-mode outputs that still backpropagate to the weights.
    """
    cfg = weights.config
    if grid is None:
        grid = build_reference_grid(cfg.dim, cfg.grid_shape)
    if cache is None:
        cache = prepare_source(source, weights, grid)
    batch = len(targets)
    if batch == 0:
        raise ValueError("forward_shared_source: no targets")

    ordered = [canonical_order(np.asarray(t, dtype=np.float64)) for t in targets]
    if any(t.shape[0] == 0 for t in ordered):
        raise ValueError("forward_shared_source: empty target set")
    g = grid.count

    if train or with_graph:
        # The source rides along in the same pass; in train mode its
        # descriptor then sees the same batch statistics as the targets'.
        desc = _descriptor_block([cache.ordered] + ordered, grid, weights, train=train)
        f_s = ad.row_slice(desc, 0, g)
        f_g_all = ad.row_slice(desc, g, (1 + batch) * g)
    else:
        if cache.sdt_eval is None:
            cache.sdt_eval = _sdt_eval([cache.ordered], grid, weights)
        f_s = ad.Tensor(cache.sdt_eval)
        f_g_all = ad.Tensor(_sdt_eval(ordered, grid, weights))

    corr = compute_correlation(f_s, f_g_all, g)
    h = ad.reshape(corr, (batch, g) + cfg.grid_shape)
    for layer in weights.convs:
        h = ad.conv_bn_act_batch(
            h, layer.weight, layer.bias, layer.bn_scale, layer.bn_shift,
            layer.bn_state, train, cfg.leaky_slope,
        )
    flat = ad.reshape(h, (batch, cfg.flat_features()))
    deltas = _fc_head(flat, weights, train)

    theta0 = tps.make_control_grid(cfg.dim).points.astype(deltas.data.dtype).reshape(1, -1)
    # The plain eval path takes the full-precision basis: theta is exact at
    # identity, so the transform round-trips to solver precision, not f32's.
    basis = cache.basis if (train or with_graph) else cache.basis_f64
    transformed = []
    for i in range(batch):
        theta_i = ad.reshape(ad.add(ad.row_slice(deltas, i, i + 1), theta0), (cfg.theta_count, cfg.dim))
        transformed.append(ad.matmul(ad.Tensor(basis), theta_i))
    return deltas, transformed


def forward(source, target, weights: PrNetWeights):
    """Single-pair inference in original coordinates.

    The similarity normalization is fitted on the source, applied to both
    sets before the network, and inverted on the output points. Returns the
    fitted warp (network frame) and the transformed, canonically ordered
    source points (original frame, plain arrays, eval mode).
    """
    cfg = weights.config
    norm = fit_normalizer(source)
    grid = build_reference_grid(cfg.dim, cfg.grid_shape)
    cache = prepare_source(norm.apply(source), weights, grid)
    thetas, transformed = forward_shared_source(
        None, [norm.apply(target)], weights, train=False, grid=grid, cache=cache
    )
    control = tps.make_control_grid(cfg.dim)
    delta = np.asarray(thetas.data[0], dtype=np.float64).reshape(cfg.theta_count, cfg.dim)
    warp = tps.TpsWarp(grid=control, theta=control.points + delta)
    return warp, norm.invert(np.asarray(transformed[0].data, dtype=np.float64))


# ---------------------------------------------------------------------------
# checkpoint container

_MAGIC = b"PTREGCK1"
_HEADER_SIZE = len(_MAGIC) + 4  # magic, then the <u4 manifest length
_ARRAY_DTYPES = ("<f4", "<f8")


def write_checkpoint(path, arrays: dict, meta: dict) -> None:
    """Write named arrays plus JSON metadata; bit-exact on round-trip.

    Layout: magic, ``<u4`` manifest length, sorted-key JSON manifest (array
    names, shapes, dtypes, payload checksum, user metadata), then the raw
    little-endian arrays in name order.

    The payload is never assembled in memory: the checksum is updated array
    by array and each array is then written from its own buffer, so the data
    is not copied at all (an array that is not C-contiguous is copied once
    into C order first).
    """
    entries = []
    blocks = []
    digest = hashlib.sha256()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        if arr.dtype.kind != "f" or arr.dtype.itemsize not in (4, 8):
            raise ValueError(f"write_checkpoint: array {name} has dtype {arr.dtype}, not float32 or float64")
        le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        entries.append({"name": name, "shape": list(arr.shape), "dtype": le.dtype.str})
        digest.update(le)
        blocks.append(le)
    manifest = {
        "version": 1,
        "arrays": entries,
        "meta": meta,
        "payload_sha256": digest.hexdigest(),
    }
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(len(blob).to_bytes(4, "little"))
        f.write(blob)
        for le in blocks:
            f.write(le)


def _parse_manifest(path, blob: bytes) -> tuple:
    """``(entries, meta, checksum)`` from the manifest bytes, with every
    entry checked: a string name used once, a ``<f4`` or ``<f8`` dtype and a
    shape of non-negative integers."""
    try:
        manifest = json.loads(blob.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CorruptCheckpointError(f"{path}: unreadable manifest ({exc})") from exc
    if not isinstance(manifest, dict):
        raise CorruptCheckpointError(f"{path}: manifest is not a JSON object")
    listed = manifest.get("arrays")
    if not isinstance(listed, list):
        raise CorruptCheckpointError(f"{path}: manifest has no list of arrays")
    meta = manifest.get("meta")
    if not isinstance(meta, dict):
        raise CorruptCheckpointError(f"{path}: manifest meta is not a JSON object")
    entries = []
    names = set()
    for i, entry in enumerate(listed):
        if not isinstance(entry, dict) or not {"name", "shape", "dtype"} <= entry.keys():
            raise CorruptCheckpointError(f"{path}: array entry {i} lacks a name, shape or dtype")
        name, shape, dtype = entry["name"], entry["shape"], entry["dtype"]
        if not isinstance(name, str) or name in names:
            raise CorruptCheckpointError(f"{path}: array entry {i} has a bad or repeated name")
        if dtype not in _ARRAY_DTYPES:
            raise CorruptCheckpointError(f"{path}: array {name} has unsupported dtype {dtype!r}")
        if not isinstance(shape, list) or not all(_is_int(d) and d >= 0 for d in shape):
            raise CorruptCheckpointError(f"{path}: array {name} has invalid shape {shape!r}")
        names.add(name)
        entries.append((name, tuple(shape), np.dtype(dtype)))
    return entries, meta, manifest.get("payload_sha256")


def read_checkpoint(path) -> tuple:
    """Read a checkpoint written by ``write_checkpoint``; verifies the checksum.

    The manifest is checked against the file size before any payload byte
    is read. Each array then gets its own new buffer (aligned, C-contiguous,
    writable), which ``readinto`` fills straight from the file and the
    checksum reads in place: the data is copied once, from the file into
    the array that is returned, and no two arrays share memory. The whole
    payload's sha256 is verified before any array is returned. The file is
    read, never memory-mapped, so it may be overwritten once this returns.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        header = f.read(_HEADER_SIZE)
        if header[: len(_MAGIC)] != _MAGIC:
            raise CorruptCheckpointError(f"{path}: bad magic, not a checkpoint file")
        if len(header) != _HEADER_SIZE:
            raise CorruptCheckpointError(f"{path}: file ends inside the header")
        mlen = int.from_bytes(header[len(_MAGIC):], "little")
        payload_size = size - _HEADER_SIZE - mlen
        if payload_size < 0:
            raise CorruptCheckpointError(f"{path}: manifest length {mlen} runs past the end of the file")
        entries, meta, checksum = _parse_manifest(path, f.read(mlen))
        listed = sum(math.prod(shape) * dtype.itemsize for _, shape, dtype in entries)
        if listed != payload_size:
            raise CorruptCheckpointError(
                f"{path}: manifest lists {listed} payload bytes, the file holds {payload_size}"
            )
        digest = hashlib.sha256()
        arrays = {}
        for name, shape, dtype in entries:
            arr = np.empty(shape, dtype)
            if f.readinto(arr) != arr.nbytes:
                raise CorruptCheckpointError(f"{path}: truncated payload at array {name}")
            digest.update(arr)
            arrays[name] = arr
    if digest.hexdigest() != checksum:
        raise CorruptCheckpointError(f"{path}: payload checksum mismatch")
    return arrays, meta


def save_model(path, weights: PrNetWeights, extra_meta: dict = None, extra_arrays: dict = None) -> None:
    meta = {"kind": "pointreg-model", "config": asdict(weights.config)}
    if extra_meta:
        meta.update(extra_meta)
    arrays = weights.named_arrays()
    if extra_arrays:
        overlap = set(arrays) & set(extra_arrays)
        if overlap:
            raise ValueError(f"save_model: extra array names collide: {sorted(overlap)}")
        arrays = {**arrays, **extra_arrays}
    write_checkpoint(path, arrays, meta)


def _config_from_meta(path, meta: dict) -> PrNetConfig:
    c = meta.get("config")
    if not isinstance(c, dict):
        raise CorruptCheckpointError(f"{path}: model meta has no config")
    names = [f.name for f in fields(PrNetConfig)]
    missing = [n for n in names if n not in c]
    if missing:
        raise CorruptCheckpointError(f"{path}: config lacks {', '.join(missing)}")
    try:
        return PrNetConfig(**{n: tuple(c[n]) if isinstance(c[n], list) else c[n] for n in names})
    except (TypeError, ValueError) as exc:
        raise CorruptCheckpointError(f"{path}: invalid config ({exc})") from exc


def load_model(path) -> tuple:
    """Load weights plus (meta, extra arrays not belonging to the model).

    The weights are built around the arrays ``read_checkpoint`` returns,
    each checked for name, shape and dtype, with no further copy.
    """
    arrays, meta = read_checkpoint(path)
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
