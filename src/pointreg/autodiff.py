"""Reverse-mode automatic differentiation over numpy arrays.

The engine is deliberately small. A ``Tensor`` wraps a float32 or float64
array; each op computes its result eagerly and attaches a closure that knows
how to push gradients back to the op's inputs. ``Tensor.backward`` walks the
recorded graph once in reverse topological order.

The ops are the network's stages, each with its own closed-form backward:
the descriptor MLP with its pool (``pooled_mlp``), the correlation
(``correlation``), the head's conv and fully connected layers
(``conv_bn_act_batch``, ``dense_bn_act``, ``linear``, joined by
``reshape``), each pair's warp (``warp``) and loss (``gmm_symmetric``), and
the batch mean (``batch_mean``). A training step of B pairs records 10 + 2B
nodes.

Two properties the rest of the package relies on:

* gradients only flow where they are needed. An op inspects its inputs at
  build time and skips gradient work for plain constants, so feeding large
  constant arrays through the network costs nothing extra on the way back.
* every reduction uses a fixed numpy evaluation order, so repeated runs on
  identical inputs produce bitwise-identical results.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

_FLOAT_DTYPES = (np.float32, np.float64)


class ShapeError(ValueError):
    """Raised when op inputs have incompatible shapes."""


class GraphError(RuntimeError):
    """Raised on misuse of the graph API (bad backward call, missing grad)."""


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse-mode autodiff.

    ``requires_grad`` marks trainable leaves. Tensors produced by ops keep
    references to their inputs in ``_parents`` and a ``_backward`` closure;
    both stay ``None`` for leaves.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        if arr.ndim > 0 and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}{flag})"

    def backward(self):
        """Accumulate gradients of this scalar into every tensor that needs them.

        A graph supports one backward pass. Gradients of intermediate nodes
        are dropped once their own backward has consumed them; only tensors
        the caller built (leaves) keep ``.grad`` afterwards.
        """
        if self.data.size != 1:
            raise GraphError(
                f"backward() needs a scalar, got shape {self.data.shape}"
            )
        order = _topological_order(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None


def _topological_order(root: Tensor) -> list[Tensor]:
    # Iterative post-order walk; training graphs are a few hundred nodes but
    # chains from long loss sums would overflow the recursion limit.
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


class _BufferPool:
    """Free-list of large scratch arrays keyed by shape and dtype.

    Its one customer is ``pooled_mlp_forward``, whose stored activations,
    ``pick`` and ``y`` ``BlockedMlp.release`` gives back. glibc sends every
    allocation beyond a few MB straight to mmap, and a fresh anonymous
    mapping costs a page fault plus a kernel zero-fill per touched page:
    allocated fresh, those arrays (50 MB and more per pass at the default
    batch) made every batch-statistics pass fault in new memory, and the
    training step's time spread from run to run. Every other op allocates
    plainly. Arrays under ``MIN_BYTES`` are left to malloc; the pool holds
    at most ``MAX_BYTES``. It is not locked: only the main thread takes and
    gives, ``pooled_mlp_forward`` before any worker thread's task starts.
    """

    MIN_BYTES = 1 << 20
    MAX_BYTES = 2 << 30

    def __init__(self):
        self._free: dict = {}
        self._held = 0

    def take(self, shape, dtype) -> np.ndarray:
        key = (tuple(shape), np.dtype(dtype).str)
        stack = self._free.get(key)
        if stack:
            arr = stack.pop()
            self._held -= arr.nbytes
            return arr
        return np.empty(shape, dtype)

    def give(self, arr) -> None:
        if (
            arr is None
            or arr.nbytes < self.MIN_BYTES
            or not arr.flags["C_CONTIGUOUS"]
            or not arr.flags["OWNDATA"]
            or self._held + arr.nbytes > self.MAX_BYTES
        ):
            return
        self._free.setdefault((arr.shape, arr.dtype.str), []).append(arr)
        self._held += arr.nbytes

    def clear(self) -> None:
        self._free.clear()
        self._held = 0


_scratch = _BufferPool()


def _needs_grad(t) -> bool:
    return isinstance(t, Tensor) and (t.requires_grad or t._backward is not None)


def _accumulate(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    # fresh=True promises g is a newly allocated array owned by the caller,
    # letting the first accumulation adopt it instead of copying.
    if t.grad is None:
        if fresh and g.dtype == t.data.dtype:
            t.grad = g if g.shape == t.data.shape else g.reshape(t.data.shape)
            return
        t.grad = g.astype(t.data.dtype, order="C").reshape(t.data.shape)
        return
    t.grad += g.astype(t.data.dtype, copy=False).reshape(t.data.shape)


def _as_array(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x)


def _make_node(data: np.ndarray, parents: tuple, backward) -> Tensor:
    out = Tensor(data)
    if any(_needs_grad(p) for p in parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if isinstance(p, Tensor))
        out._backward = backward
    return out


def zero_grads(params) -> None:
    """Clear gradients."""
    for p in params:
        p.grad = None


def recycle_graph(root: Tensor) -> None:
    """Drop every intermediate array below ``root``, with the closures that
    hold its saved arrays, so their memory is free before the optimizer
    step.

    Call after ``backward()`` when nothing will read the graph's tensors
    again (``root``'s own value stays valid). Leaves are untouched.
    """
    for node in _topological_order(root):
        if node is root or node._backward is None:
            continue
        node.data = np.empty(0, node.data.dtype)
        node._parents = ()
        node._backward = None


# ---------------------------------------------------------------------------
# shape plumbing and linear algebra


def reshape(x: Tensor, shape) -> Tensor:
    out_data = x.data.reshape(shape)

    def grad_fn(gradient):
        _accumulate(x, gradient.reshape(x.data.shape))

    return _make_node(out_data, (x,), grad_fn)


def linear(x, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map of row vectors: ``x @ weight + bias``."""
    xd = _as_array(x)
    if xd.ndim != 2 or weight.data.ndim != 2:
        raise ShapeError(f"linear: expected 2-d x and weight, got {xd.shape} and {weight.data.shape}")
    if xd.shape[1] != weight.data.shape[0]:
        raise ShapeError(f"linear: x {xd.shape} does not match weight {weight.data.shape}")
    if bias.data.shape != (weight.data.shape[1],):
        raise ShapeError(f"linear: bias {bias.data.shape} does not match weight {weight.data.shape}")
    out_data = xd @ weight.data + bias.data

    def grad_fn(gradient):
        if _needs_grad(x):
            _accumulate(x, gradient @ weight.data.T)
        if _needs_grad(weight):
            _accumulate(weight, xd.T @ gradient)
        if _needs_grad(bias):
            _accumulate(bias, gradient.sum(axis=0))

    return _make_node(out_data, (x, weight, bias), grad_fn)


# ---------------------------------------------------------------------------
# pooling


def max_pool_rows(x: Tensor, group_size: int) -> Tensor:
    """Columnwise max over consecutive blocks of ``group_size`` rows.

    Maps ``[G*K, d]`` to ``[G, d]``. Ties route the gradient to the first
    maximal row, matching ``argmax``.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"max_pool_rows: expected 2-d input, got {x.data.shape}")
    n, d = x.data.shape
    if group_size < 1 or n % group_size != 0:
        raise ShapeError(f"max_pool_rows: {n} rows not divisible into blocks of {group_size}")
    groups = n // group_size
    blocks = x.data.reshape(groups, group_size, d)
    if not _needs_grad(x):
        return Tensor(blocks.max(axis=1))
    idx = np.argmax(blocks, axis=1)
    out_data = np.take_along_axis(blocks, idx[:, None, :], axis=1)[:, 0, :]

    def grad_fn(gradient):
        g = np.zeros_like(x.data)
        np.put_along_axis(g.reshape(blocks.shape), idx[:, None, :], gradient[:, None, :], axis=1)
        _accumulate(x, g, fresh=True)

    return _make_node(out_data, (x,), grad_fn)


# ---------------------------------------------------------------------------
# normalization


BN_EPS = 1e-5  # added to every batch-norm variance
LEAKY_SLOPE = 0.1  # every leaky ReLU of the network maps x < 0 to 0.1 * x
_NORM_EPS = 1e-12  # the smallest norm an L2 normalisation divides by


def batch_stats(z: np.ndarray) -> tuple:
    """Centre the columns of ``z`` in place; return their ``(mean, var)``
    (biased variance). Every batch-norm layer takes its statistics here."""
    mean = z.mean(axis=0)
    z -= mean
    return mean, np.einsum("nf,nf->f", z, z) / z.shape[0]


def window_rows(xd: np.ndarray, ksize, out=None) -> tuple:
    """Valid-convolution windows of ``[B, C, *spatial]`` as rows ``[B * P,
    C * prod(k)]``, batch-major, one row per output position: the window
    view reshaped, which copies it where windows overlap. With ``out``, a
    flat array of at least as many entries, the rows are copied into its
    head instead of a new array. Returns ``(rows, out_spatial)``."""
    nd = xd.ndim - 2
    out_spatial = tuple(s - k + 1 for s, k in zip(xd.shape[2:], ksize))
    windows = np.lib.stride_tricks.sliding_window_view(xd, ksize, axis=tuple(range(2, nd + 2)))
    windows = np.moveaxis(windows, 1, nd + 1)  # (B, *out, C, *k)
    width = xd.shape[1] * int(np.prod(ksize))
    if out is None:
        return windows.reshape(-1, width), out_spatial
    rows = out[:windows.size].reshape(windows.shape)
    np.copyto(rows, windows)
    return rows.reshape(-1, width), out_spatial


def _unwindow(drows: np.ndarray, x_shape, ksize) -> np.ndarray:
    """Adjoint of ``window_rows``: sums the gradients of the window rows
    back onto a fresh ``[B, C, *spatial]`` array."""
    nd = len(ksize)
    out_spatial = tuple(s - k + 1 for s, k in zip(x_shape[2:], ksize))
    d = drows.reshape((x_shape[0],) + out_spatial + (x_shape[1],) + tuple(ksize))
    dx = np.zeros(x_shape, drows.dtype)
    for offset in np.ndindex(*ksize):
        piece = np.moveaxis(d[(...,) + offset], nd + 1, 1)
        region = tuple(slice(j, j + o) for j, o in zip(offset, out_spatial))
        dx[(slice(None), slice(None)) + region] += piece
    return dx


def bn_act_forward(z, scale, shift, mean=None, var=None, out=None) -> tuple:
    """Batch norm plus leaky ReLU (``LEAKY_SLOPE``) of pre-norm rows ``z``
    ``[N, F]``: the one forward of every such layer, in training and in the
    graph-free model.

    With ``mean`` None the statistics are ``z``'s own (``batch_stats``),
    otherwise the given ``(mean, var)``, cast to ``z``'s dtype. Either way
    ``z`` is centred in place. The activation goes to ``out`` (``z`` itself
    is allowed) or a new array. Returns ``(out, mean, var, inv_std,
    alpha)``, where ``alpha = scale * inv_std`` folds the 1/std and the
    learned scale into one broadcast multiply.
    """
    if mean is None:
        mean, var = batch_stats(z)
    else:
        mean, var = mean.astype(z.dtype), var.astype(z.dtype)
        z -= mean
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    alpha = scale * inv_std
    out = np.multiply(z, alpha, out=out)
    out += shift
    np.maximum(out, out * LEAKY_SLOPE, out=out)
    return out, mean, var, inv_std, alpha


def _slope(out: np.ndarray) -> np.ndarray:
    """The leaky ReLU's derivative, 1 or ``LEAKY_SLOPE``, at each entry of
    its output ``out``: the output keeps its input's sign. (A masked
    multiply or copy runs several times slower than these three passes.)"""
    d = np.greater(out, 0).astype(out.dtype)
    d *= 1.0 - LEAKY_SLOPE
    d += LEAKY_SLOPE
    return d


def _bn_act_backward(gradient, out, z, inv_std, alpha, bias_t, scale_t, shift_t) -> np.ndarray:
    """Backward of ``bn_act_forward`` under batch statistics: accumulates
    ``d scale``, ``d shift`` and a ``d bias`` of exactly 0 (batch norm
    removes the bias of the pre-norm rows), and returns the gradient of the
    pre-norm rows. ``z`` is the centred pre-norm array, which this
    consumes."""
    dy = gradient * _slope(out)
    # every reduction the norm's backward needs comes from these sums
    n = dy.shape[0]
    col_sum = dy.sum(axis=0)
    col_dot = np.einsum("nf,nf->f", dy, z)
    if _needs_grad(scale_t):
        _accumulate(scale_t, col_dot * inv_std)
    if _needs_grad(shift_t):
        _accumulate(shift_t, col_sum)
    if _needs_grad(bias_t):
        _accumulate(bias_t, np.zeros_like(bias_t.data), fresh=True)
    dy *= alpha
    dy -= alpha * (col_sum / n)
    dy -= np.multiply(z, alpha * inv_std * inv_std * (col_dot / n), out=z)
    return dy


def dense_bn_act(
    x,
    weight: Tensor,
    bias: Tensor,
    scale_t: Tensor,
    shift_t: Tensor,
) -> Tensor:
    """Fused linear + batch norm (batch statistics) + leaky ReLU
    (``LEAKY_SLOPE``) over ``[N, in] -> [N, out]``: the matrix product,
    then ``bn_act_forward``.

    Serves fc1's batch rows. The activation mask is recovered from the
    output's sign in the backward pass, so only the pre-norm product is
    kept.
    """
    xd = _as_array(x)
    if xd.ndim != 2 or xd.shape[1] != weight.data.shape[0]:
        raise ShapeError(f"dense_bn_act: x {xd.shape} does not match weight {weight.data.shape}")
    n = xd.shape[0]
    if n < 2:
        raise ShapeError(f"dense_bn_act: needs at least 2 rows, got {n}")
    z = xd @ weight.data
    z += bias.data
    out_data, _, _, inv_std, alpha = bn_act_forward(z, scale_t.data, shift_t.data)

    def grad_fn(gradient):
        nonlocal z
        if z is None:
            raise GraphError("dense_bn_act: graph already consumed by backward()")
        dy = _bn_act_backward(gradient, out_data, z, inv_std, alpha, bias, scale_t, shift_t)
        z = None
        if _needs_grad(weight):
            _accumulate(weight, xd.T @ dy, fresh=True)
        if _needs_grad(x):
            _accumulate(x, dy @ weight.data.T, fresh=True)

    return _make_node(out_data, (x, weight, bias, scale_t, shift_t), grad_fn)


MLP_BLOCK = 16  # grid points of one set per block of ``pooled_mlp_forward``


def _block_moments(a) -> tuple:
    """Row count, float64 column mean and centred Gram ``cᵀc`` (in ``a``'s
    dtype) of the rows ``a`` of one block, centred at their own mean."""
    r = a.shape[0]
    block_mean = (np.ones(r, a.dtype) @ a).astype(np.float64) / r
    c = a - block_mean.astype(a.dtype)
    return r, block_mean, c.T @ c


def _moments(parts) -> tuple:
    """Float64 column mean and centred Gram ``Σ (a - mean)ᵀ (a - mean)``
    (not divided by the row count) of every block's rows, merged from their
    ``_block_moments`` by Chan's update in the order given, so no block
    needs the overall mean in advance."""
    n, mean, gram = 0, 0.0, 0.0
    for r, block_mean, cc in parts:
        delta = block_mean - mean
        gram = gram + cc + np.outer(delta, delta) * (n * r / (n + r))
        mean = mean + delta * (r / (n + r))
        n += r
    return mean, gram


MAX_WORKERS = 2  # the most worker threads measured; each holds one block's arrays at a time
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
_workers = None  # the executor of ``each_run``, made on its first call


def _worker_count() -> int:
    """Worker threads of ``each_run``: the cores this process may run
    on, divided by BLAS's threads, at most ``MAX_WORKERS``. BLAS's threads
    are the first positive count among its own variables; unset, it runs one
    per core, which leaves one worker, since more workers only oversubscribe
    the cores together with BLAS's threads."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    counts = (os.environ.get(name, "").strip() for name in _BLAS_THREADS)
    blas = next((int(c) for c in counts if c.isdigit() and int(c) > 0), cores)
    return max(1, min(MAX_WORKERS, cores // blas))


def each_run(fn, items, sizes) -> list:
    """``fn(item)`` for every item, the results in item order. The items
    split into one contiguous run per worker (``_worker_count``) of about
    equal total ``sizes``: an item joins the run in which its first unit
    falls. The calling thread runs the first run, and a worker thread each
    other one. The blocked MLP's passes and the eval head's pair blocks run
    here.

    numpy's matrix products and ufuncs release the GIL, so the runs go
    side by side. A worker's task runs in a copy of the caller's context,
    so the caller's ``np.errstate`` holds in it. An exception raised in a
    run reaches the caller once every run of the call has finished. Only
    the main thread calls this, and a task never does. With one worker no
    thread starts.
    """
    global _workers
    if _workers is None:
        _workers = ThreadPoolExecutor(_worker_count())
    count = _workers._max_workers
    total = sum(sizes)
    runs = [[] for _ in range(count)]
    start = 0
    for item, size in zip(items, sizes):
        runs[start * count // total].append(item)
        start += size
    futures = [_workers.submit(contextvars.copy_context().run, lambda run: [fn(i) for i in run], run)
               for run in runs[1:] if run]
    try:
        first = [fn(i) for i in runs[0]]
    finally:
        wait(futures)
    return first + [r for f in futures for r in f.result()]


class BlockedMlp:
    """What ``pooled_mlp_forward`` computes and its backward reads. A
    block is ``(set, first row, first grid point, end grid point)``: the
    rows of up to ``MLP_BLOCK`` grid points of one set of ``k`` points, row
    ``g * k + j`` of a set pairing grid point ``g`` with point ``j``;
    ``blocks`` lists them in row order. The partition depends on each set's
    own size only."""

    def __init__(self, sets, grid, layers):
        dt = layers[0].weight.data.dtype
        self.layers = layers
        self.grid = np.asarray(grid).astype(dt)
        self.points = [np.asarray(s).astype(dt) for s in sets]
        if not self.points or min(len(p) for p in self.points) < 1:
            raise ShapeError(f"pooled_mlp: need at least one set and no empty one, got {len(self.points)} sets")
        g = len(self.grid)
        self.blocks = []
        lo = 0
        for s, pts in enumerate(self.points):
            self.blocks += [(s, lo + g0 * len(pts), g0, min(g0 + MLP_BLOCK, g)) for g0 in range(0, g, MLP_BLOCK)]
            lo += g * len(pts)
        self.n = lo
        self.folded, self.alpha, self.inv_std, self.stats, self.moments = [], [], [], [], []
        self.hidden = [None] * len(layers)  # stored activations, then their gradients

    def fold(self, mean, var) -> None:
        """Fold the next layer's batch norm by ``(mean, var)`` into its
        weights: ``y = x @ (W α) + (b - mean) α + shift`` with ``α = scale /
        sqrt(var + BN_EPS)``, computed in float64, kept in the input dtype."""
        layer = self.layers[len(self.folded)]
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        alpha = layer.bn_scale.data * inv_std
        w = layer.weight.data.astype(np.float64) * alpha
        b = (layer.bias.data - mean) * alpha + layer.bn_shift.data
        self.folded.append((w.astype(self.grid.dtype), b.astype(self.grid.dtype)))
        self.alpha.append(alpha)
        self.inv_std.append(inv_std)
        self.stats.append((mean, var))

    def each_block(self, fn) -> list:
        """``fn(block)`` for every block, in runs of about equal rows per
        worker (``each_run``); the results in block order. ``fn`` writes
        only its own block's rows of shared arrays."""
        return each_run(fn, self.blocks, [(g1 - g0) * len(self.points[s]) for s, _, g0, g1 in self.blocks])

    def rows(self, block) -> slice:
        s, lo, g0, g1 = block
        return slice(lo, lo + (g1 - g0) * len(self.points[s]))

    def layer_input(self, block, l: int) -> np.ndarray:
        """The rows of layer ``l``'s input in ``block``: the ``[grid point,
        set point]`` rows for ``l == 0``, else layer ``l - 1``'s activation,
        stored or recomputed."""
        if l == 0:
            s, _, g0, g1 = block
            halves = np.broadcast_arrays(self.grid[g0:g1, None], self.points[s][None])
            return np.concatenate(halves, axis=2).reshape(-1, 2 * self.grid.shape[1])
        if self.hidden[l - 1] is not None:
            return self.hidden[l - 1][self.rows(block)]
        return self.layer_output(block, l - 1)

    def halves(self, block) -> tuple:
        """Layer 0's folded pre-activation in ``block`` as the two terms of
        its outer sum, one per half of its weight: ``grid @ W_g + b`` over
        the block's grid points and ``points @ W_p`` over the set's."""
        s, _, g0, g1 = block
        w, b = self.folded[0]
        dim = self.grid.shape[1]
        return self.grid[g0:g1] @ w[:dim] + b, self.points[s] @ w[dim:]

    def layer_output(self, block, l: int, out=None) -> np.ndarray:
        """Layer ``l``'s activation rows in ``block``, written to ``out`` when
        given. For the last layer, which only the batch-statistics pool
        reads here, its pre-activation ``[width, grid points, set points]``,
        so that ``argmax`` runs along contiguous memory. Layer 0 is the outer
        sum of its ``halves``."""
        _, _, g0, g1 = block
        w, b = self.folded[l]
        top = l == len(self.layers) - 1
        if l == 0:
            gpart, ppart = self.halves(block)
            if top:
                return gpart.T[:, :, None] + ppart.T[:, None, :]
            z = (gpart[:, None, :] + ppart).reshape(-1, len(b))
        elif top:
            z = w.T @ self.layer_input(block, l).T
            z += b[:, None]
            return z.reshape(len(b), g1 - g0, -1)
        else:
            z = np.matmul(self.layer_input(block, l), w, out=out)
            z += b
        np.maximum(z, z * LEAKY_SLOPE, out=z)
        return z

    def finish_layer(self, l: int, p, col_sum) -> tuple:
        """Accumulate layer ``l``'s parameter gradients from ``P = xᵀ dy``
        and the column sums of ``dy``, both float64 over every row; return
        ``(-M, row)`` of its input's gradient, in the input dtype."""
        layer = self.layers[l]
        x_mean, gram = self.moments[l]
        w = layer.weight.data.astype(np.float64)
        pc = p - np.outer(x_mean, col_sum)
        d_scale = self.inv_std[l] * np.einsum("if,if->f", w, pc)
        wv = w * (self.alpha[l] * self.inv_std[l] * d_scale / self.n)
        dt = self.grid.dtype
        for t, g in ((layer.weight, pc * self.alpha[l] - gram @ wv), (layer.bias, np.zeros(len(col_sum))),
                     (layer.bn_scale, d_scale), (layer.bn_shift, col_sum)):
            if _needs_grad(t):
                _accumulate(t, g.astype(dt), fresh=True)
        m = wv @ w.T
        return (-m).astype(dt), (m @ x_mean - w @ (self.alpha[l] * col_sum / self.n)).astype(dt)

    def backward(self, gradient) -> None:
        """Accumulate every layer's parameter gradients from the gradient of
        ``out``: one pass over the blocks per layer, top down (see
        ``pooled_mlp``)."""
        dt = self.grid.dtype
        top = len(self.layers) - 1
        g = len(self.grid)
        dy = gradient * _slope(self.y)

        def selected(block):
            # the last layer's dy scattered onto the block's rows, [grid points, k, width]
            s, _, g0, g1 = block
            st = np.zeros((g1 - g0, len(self.points[s]), dy.shape[1]), dt)
            np.put_along_axis(st, self.pick[s * g + g0:s * g + g1, None, :], dy[s * g + g0:s * g + g1, None, :],
                              axis=1)
            return st.reshape(-1, dy.shape[1])

        def gathered(block):
            # the last layer reaches one row per grid point and column: its part of P
            s, _, g0, g1 = block
            picked = self.pick[s * g + g0:s * g + g1] + len(self.points[s]) * np.arange(g1 - g0)[:, None]
            return np.einsum("gfi,gf->if", self.layer_input(block, top)[picked], dy[s * g + g0:s * g + g1])

        def step(block):
            # the gradient of layer l + 1's input, then of layer l's pre-activation,
            # stored over layer l's activation; returns the block's parts of s and P
            rows = self.rows(block)
            a = self.hidden[l][rows] if l else self.layer_output(block, 0)
            d_next = selected(block) if l + 1 == top else self.hidden[l + 1][rows]
            da = a @ neg_m
            da += d_next @ w_next.T
            da += row
            da *= _slope(a)
            if l:
                a[...] = da
            return np.ones(len(da), dt) @ da, self.layer_input(block, l).T @ da

        # the float64 sums take the blocks' parts in block order, whatever the threads did
        p = np.zeros(self.folded[top][0].shape)
        for part in self.each_block(gathered):
            p += part
        neg_m, row = self.finish_layer(top, p, dy.sum(axis=0, dtype=np.float64))
        for l in range(top - 1, -1, -1):
            w_next = self.folded[l + 1][0]
            width = w_next.shape[0]
            p = np.zeros((self.folded[l][0].shape[0], width))
            col_sum = np.zeros(width)
            for block_sum, part in self.each_block(step):
                col_sum += block_sum
                p += part
            neg_m, row = self.finish_layer(l, p, col_sum)
        self.release()

    def release(self) -> None:
        """Hand ``hidden``, ``pick`` and ``y`` back to the scratch pool they came from: ``backward`` ends
        with this, and a forward run without one must call it. Each is given back once."""
        for a in (*self.hidden, self.pick, self.y):
            _scratch.give(a)
        self.hidden, self.pick, self.y = [None] * len(self.layers), None, None


def pooled_mlp_forward(sets, grid, layers, batch: bool) -> BlockedMlp:
    """The descriptor MLP of every set over the ``[G, dim]`` reference grid,
    max-pooled per set and grid point: the one forward of training,
    recalibration and inference. ``sets`` are canonically ordered ``[k,
    dim]`` arrays; ``layers`` hold ``weight``, ``bias``, ``bn_scale`` and
    ``bn_shift`` tensors, and the running ``bn_mean`` and ``bn_var`` that
    they normalise by unless ``batch``. The returned ``BlockedMlp``'s
    ``out`` is the pooled activation ``[num_sets * G, width]`` in the
    weights' dtype, its ``stats`` each layer's float64 ``(mean, var)``.

    With running statistics each block goes through every layer in one
    pass. With batch statistics each layer's are known before its pass,
    from its input's column mean ``x̄`` and centred Gram ``C``
    (``moments``): ``mean = x̄ W + b``, ``var = diag(Wᵀ C W) / N`` over all
    ``N`` rows. Layer 0's are exact from the grid's and the points' own,
    since every set meets every grid point, so the halves of its input
    ``[grid point, set point]`` are uncorrelated. Each later layer's come
    from the pass that makes its input, which stores that activation, but
    for layer 0's, which is recomputed where it is read. Either way a layer
    applies its folded batch norm (``BlockedMlp.fold``) and the leaky ReLU,
    which is increasing: the last layer pools the folded pre-activation of
    each block into ``y`` and activates the maximum.

    Under batch statistics the pool runs ``argmax`` along the points of
    ``BlockedMlp.layer_output``'s ``[width, grid points, set points]``
    layout, ties to the first point, and keeps the pooled point's index,
    ``pick``, for the backward. Under running statistics nothing reads the
    index (``pick`` is None): the last layer's product ``x @ W`` stays in
    its own ``[grid points, set points, width]`` rows, ``np.max`` pools it,
    and the folded bias is added to the pooled rows alone. Rounding is
    monotone, so ``max_j fl(z_j + b) = fl(max_j z_j + b)``, and on OpenBLAS
    ``x @ W`` gives the bits of ``(Wᵀ xᵀ)ᵀ``: the output has the bits
    that pooling ``z + b`` by ``argmax`` gives, but for the sign of a zero
    maximum where the bias is ``-0.0``. A one-layer MLP pools layer 0's
    outer sum, whose bias is in its grid half (``BlockedMlp.halves``).

    Each pass splits the blocks into one contiguous run per worker, the
    first run on this thread (``BlockedMlp.each_block``). A run writes only
    its own blocks' rows of the stored activations, ``pick`` and ``y``, and
    returns its blocks' moments, which this thread merges in block order. So every
    output and statistic is the same bits for any number of workers. The
    arrays come from the scratch pool, on this thread, before the tasks
    start.
    """
    mlp = BlockedMlp(sets, grid, layers)
    if batch:
        g64, p64 = mlp.grid.astype(np.float64), np.concatenate(mlp.points).astype(np.float64)
        gc, pc = g64 - g64.mean(axis=0), p64 - p64.mean(axis=0)
        dim = g64.shape[1]
        x_mean = np.concatenate([g64.mean(axis=0), p64.mean(axis=0)])
        gram = np.zeros((2 * dim, 2 * dim))
        gram[:dim, :dim] = len(p64) * (gc.T @ gc)
        gram[dim:, dim:] = len(g64) * (pc.T @ pc)
    for l, layer in enumerate(layers):
        if not batch:
            mlp.fold(layer.bn_mean.astype(np.float64), layer.bn_var.astype(np.float64))
            continue
        w = layer.weight.data.astype(np.float64)
        mlp.moments.append((x_mean, gram))
        mlp.fold(x_mean @ w + layer.bias.data, np.einsum("if,ij,jf->f", w, gram, w) / mlp.n)
        if l == len(layers) - 1:
            break
        if l:
            mlp.hidden[l] = _scratch.take((mlp.n, w.shape[1]), mlp.grid.dtype)
        x_mean, gram = _moments(mlp.each_block(
            lambda block: _block_moments(mlp.layer_output(block, l, mlp.hidden[l][mlp.rows(block)] if l else None))))
    g, top = len(mlp.grid), len(layers) - 1
    mlp.y = _scratch.take((len(mlp.points) * g, layers[-1].weight.data.shape[1]), mlp.grid.dtype)
    mlp.pick = _scratch.take(mlp.y.shape, np.intp) if batch else None

    def pool(block):
        s, _, g0, g1 = block
        y = mlp.y[s * g + g0:s * g + g1]
        if batch:
            z = mlp.layer_output(block, top)
            pick = np.argmax(z, axis=2)
            mlp.pick[s * g + g0:s * g + g1] = pick.T
            y[...] = np.take_along_axis(z, pick[..., None], axis=2)[..., 0].T
        elif top:
            w, b = mlp.folded[top]
            z = mlp.layer_input(block, top) @ w
            np.max(z.reshape(g1 - g0, -1, len(b)), axis=1, out=y)
            y += b
        else:
            gpart, ppart = mlp.halves(block)
            np.max(gpart[:, None, :] + ppart, axis=1, out=y)

    mlp.each_block(pool)
    mlp.out = np.maximum(mlp.y * LEAKY_SLOPE, mlp.y)
    return mlp


def pooled_mlp(sets, grid, layers) -> Tensor:
    """``pooled_mlp_forward`` under batch statistics as an autodiff op over
    every layer's weight, bias, scale and shift; the sets and the grid are
    constants.

    The backward is one pass over the blocks per layer, top down. For a
    layer with input rows ``x``, folded scale ``α`` and ``dy`` the gradient
    of its normalised output, each pass sums ``s = Σ dy`` and ``P = xᵀ dy``
    block by block (the last layer's ``dy`` reaches one row per grid point
    and column, so ``P`` gathers those rows). Then in float64, with ``x̄``
    and ``C`` the forward's moments, ``Pc = P - x̄ sᵀ`` and ``v = α inv_std
    d_scale / N``:

    * ``d shift = s`` and ``d scale = inv_std * colsum(W ⊙ Pc)``,
    * ``dW = Pc diag(α) - C W diag(v)``,
    * ``d bias = 0``: batch norm removes the bias exactly,
    * ``dx = dy (αW)ᵀ - x M + row`` with ``M = W diag(v) Wᵀ`` and ``row =
      x̄ M - W (α s / N)``.

    ``dx`` times the slope of the input's own activation is the ``dy`` of
    the layer below, made in the pass below and stored over that layer's
    activation, which it no longer needs. Layer 0's input is constant, so
    it needs no ``dx``.

    Like the forward's, each backward pass runs one contiguous run of
    blocks per worker. Each block's ``s`` and ``P`` (for the last layer its
    gathered ``P``) come back to the calling thread, which
    adds them to the float64 sums in block order, so the gradients are the
    same bits for any number of workers; ``release`` gives the arrays back
    on that thread.
    """
    mlp = pooled_mlp_forward(sets, grid, layers, batch=True)

    def grad_fn(gradient):
        nonlocal mlp
        if mlp is None:
            raise GraphError("pooled_mlp: graph already consumed by backward()")
        mlp.backward(gradient)
        mlp = None

    params = tuple(t for layer in layers for t in (layer.weight, layer.bias, layer.bn_scale, layer.bn_shift))
    return _make_node(mlp.out, params, grad_fn)


def conv_bn_act_batch(
    x: Tensor,
    kernel: Tensor,
    bias: Tensor,
    scale_t: Tensor,
    shift_t: Tensor,
) -> Tensor:
    """Fused valid convolution + batch norm (batch statistics) + leaky ReLU
    (``LEAKY_SLOPE``) over a batch.

    ``x`` is ``[B, C_in, *spatial]``; normalization statistics pool every
    output position of every batch element per channel. All batch elements
    share a single flattened-window matrix product, forward and backward.
    """
    xd, kd = x.data, kernel.data
    nd = xd.ndim - 2
    if nd not in (2, 3):
        raise ShapeError(f"conv_bn_act_batch: expected [B, C, ...] input, got {xd.shape}")
    if kd.ndim != nd + 2 or kd.shape[1] != xd.shape[1]:
        raise ShapeError(f"conv_bn_act_batch: kernel {kd.shape} does not match input {xd.shape}")
    ksize = kd.shape[2:]
    out_spatial = tuple(s - k + 1 for s, k in zip(xd.shape[2:], ksize))
    if any(o < 1 for o in out_spatial):
        raise ShapeError(f"conv_bn_act_batch: kernel {ksize} larger than input extent {xd.shape[2:]}")
    batch, c_out = xd.shape[0], kd.shape[0]
    rows = batch * int(np.prod(out_spatial))
    if rows < 2:
        raise ShapeError(f"conv_bn_act_batch: needs at least 2 rows, got {rows}")

    cols, _ = window_rows(xd, ksize)
    w2 = kd.reshape(c_out, -1)
    z = cols @ w2.T
    z += bias.data
    act, _, _, inv_std, alpha = bn_act_forward(z, scale_t.data, shift_t.data)
    out_data = np.ascontiguousarray(
        np.moveaxis(act.reshape((batch,) + out_spatial + (c_out,)), nd + 1, 1)
    )

    def grad_fn(gradient):
        nonlocal z
        if z is None:
            raise GraphError("conv_bn_act_batch: graph already consumed by backward()")
        gf = np.ascontiguousarray(np.moveaxis(gradient, 1, nd + 1)).reshape(rows, c_out)
        dy = _bn_act_backward(gf, act, z, inv_std, alpha, bias, scale_t, shift_t)
        z = None
        if _needs_grad(kernel):
            _accumulate(kernel, (dy.T @ cols).reshape(kd.shape), fresh=True)
        if _needs_grad(x):
            _accumulate(x, _unwindow(dy @ w2, xd.shape, ksize), fresh=True)

    return _make_node(out_data, (x, kernel, bias, scale_t, shift_t), grad_fn)


# ---------------------------------------------------------------------------
# the stages after the descriptor MLP: correlation, warp, loss, batch mean


def unit_rows(x: np.ndarray, out=None) -> tuple:
    """``(out, safe)``: the rows of ``[N, F]`` divided by their Euclidean
    norms, written to ``out`` (``x`` itself is allowed) or a new array, and
    the ``[N, 1]`` norms clamped below at ``_NORM_EPS`` that they were
    divided by. The clamp is a constant to ``correlation``'s backward."""
    norms = np.sqrt(np.sum(x * x, axis=1, keepdims=True))
    safe = np.maximum(norms, _NORM_EPS)
    return np.divide(x, safe, out=out), safe


def correlation_forward(x: np.ndarray, owners, g: int, out=None) -> tuple:
    """``(corr, saved)``: each target's correlation tensor against its own
    source, from the pooled descriptors ``x``, the one correlation of
    training, recalibration and inference.

    ``x`` stacks descriptors of ``g`` rows: first the ``owners[-1] + 1``
    sources of ``model.source_runs``, then one target per entry of
    ``owners``, which indexes that target's source. The rows are scaled to
    unit norm by ``unit_rows`` into ``out`` (``x`` itself is allowed) or a
    new array. Each run of targets with one source takes ``tgt @ src.T``,
    and each column of a target's ``[g, g]`` block is scaled to unit norm
    (clamped at ``_NORM_EPS``): ``corr`` stacks the blocks as ``[B*g, g]``
    in conv layout, row j of a block (a target grid point, the channel)
    against every source grid point (the spatial position). ``saved`` holds
    what ``correlation``'s backward reads, among it every run's pre-norm
    products, so a caller that only needs ``corr`` drops it at once.
    """
    unit, safe = unit_rows(x, out=out)
    parts, runs, lo = [], [], owners[-1] + 1
    for owner, run in groupby(owners):
        hi = lo + len(list(run))
        blocks = (unit[lo * g:hi * g] @ unit[owner * g:(owner + 1) * g].T).reshape(hi - lo, g, g)
        col_safe = np.maximum(np.sqrt(np.einsum("brs,brs->bs", blocks, blocks))[:, None, :], _NORM_EPS)
        parts.append((blocks / col_safe).reshape(-1, g))
        runs.append((owner, lo, hi, blocks, col_safe))
        lo = hi
    corr = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return corr, (unit, safe, runs)


def correlation(x: Tensor, owners, g: int) -> Tensor:
    """``correlation_forward`` as an autodiff op over the pooled descriptors
    ``x``. The backward takes each run's block-column norms back, then its
    product to both descriptor slices, summed into a zero-filled gradient,
    then the row norms, in the arithmetic of the composed route."""
    corr, (unit, safe, runs) = correlation_forward(x.data, owners, g)
    first = owners[-1] + 1

    def grad_fn(gradient):
        d_unit = np.zeros_like(unit)
        for owner, lo, hi, blocks, col_safe in runs:
            gb = gradient[(lo - first) * g:(hi - first) * g].reshape(blocks.shape)
            dot = np.einsum("brs,brs->bs", gb, blocks)[:, None, :]
            d_prod = (gb / col_safe - blocks * (dot / (col_safe * col_safe * col_safe))).reshape(-1, g)
            src, tgt = slice(owner * g, (owner + 1) * g), slice(lo * g, hi * g)
            d_unit[tgt] += d_prod @ unit[src]
            d_unit[src] += d_prod.T @ unit[tgt]
        dot = np.sum(d_unit * x.data, axis=1, keepdims=True)
        _accumulate(x, d_unit / safe - x.data * (dot / (safe * safe * safe)), fresh=True)

    return _make_node(corr, (x,), grad_fn)


def warp(deltas: Tensor, i: int, basis: np.ndarray, theta0: np.ndarray) -> Tensor:
    """Pair ``i``'s warped source ``basis @ (deltas[i] + theta0)``: ``basis``
    is the ``[N, K]`` warp basis and ``theta0`` the ``[1, K * dim]``
    flattened control points, both in ``deltas``' dtype. An autodiff op over
    ``deltas`` alone, whose backward adds into row ``i`` of a zero-filled
    gradient."""
    theta = (deltas.data[i:i + 1] + theta0).reshape(basis.shape[1], -1)

    def grad_fn(gradient):
        if deltas.grad is None:
            deltas.grad = np.zeros_like(deltas.data)
        deltas.grad[i:i + 1] += (basis.T @ gradient).reshape(1, -1)

    return _make_node(basis @ theta, (deltas,), grad_fn)


def sqdists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances ``[|a|, |b|]`` between the rows of ``a``
    and ``b``, in ``np.result_type(a, b)``. The squared differences are
    summed one coordinate at a time, the order in which numpy sums a
    length-2 or length-3 axis, so the result is the bits of ``np.sum(diff *
    diff, axis=2)`` with no ``[|a|, |b|, dim]`` array."""
    d = np.zeros((a.shape[0], b.shape[0]), np.result_type(a, b))
    for k in range(a.shape[1]):
        diff = a[:, None, k] - b[None, :, k]
        diff *= diff
        d += diff
    return d


def _log_sum_exp(z: np.ndarray, axis: int) -> tuple:
    """``log(sum(exp(z), axis))`` by the maximum along ``axis``, which is
    removed, and the softmax weights ``exp(z - max) / sum`` of its
    gradient."""
    m = np.max(z, axis=axis, keepdims=True)
    w = np.exp(z - m)
    s = np.sum(w, axis=axis, keepdims=True)
    out = np.squeeze(m + np.log(s), axis=axis)
    w /= s
    return out, w


def gmm_symmetric(x: Tensor, y: np.ndarray, c: float) -> Tensor:
    """``-(Σ_i lse_j(c d_ij) + Σ_j lse_i(c d_ij))`` for the squared distances
    ``d = sqdists(x, y)`` of the ``[N, dim]`` rows of ``x`` and the constant
    ``[M, dim]`` ``y``: the symmetric GMM loss of ``losses`` with ``c =
    -1 / (2 sigma²)``. An autodiff op over ``x`` alone. ``d`` is in the
    wider dtype of the two, and so is the gradient until it is handed to
    ``x``."""
    xd = x.data
    z = sqdists(xd, y)
    z *= c
    fwd, w_fwd = _log_sum_exp(z, 1)
    rev, w_rev = _log_sum_exp(z, 0)
    out = (np.sum(fwd) + np.sum(rev)) * -1.0

    def grad_fn(gradient):
        g = gradient * -1.0
        dz = g * w_fwd
        dz += g * w_rev
        dz *= c
        _accumulate(x, 2.0 * (xd * dz.sum(axis=1, keepdims=True) - dz @ y), fresh=True)

    return _make_node(out, (x,), grad_fn)


def batch_mean(terms) -> Tensor:
    """The mean of the scalar tensors ``terms``, an autodiff op over each:
    their sum in order, times ``1 / len(terms)``."""
    c = 1.0 / len(terms)
    total = terms[0].data
    for t in terms[1:]:
        total = total + t.data

    def grad_fn(gradient):
        g = gradient * c
        for t in terms:
            if _needs_grad(t):
                _accumulate(t, g)

    return _make_node(total * c, tuple(terms), grad_fn)


# ---------------------------------------------------------------------------
# optimizer

_ADAM_BETA1 = 0.9  # first-moment decay
_ADAM_BETA2 = 0.999  # second-moment decay
_ADAM_EPS = 1e-8  # added to the root of the corrected second moment


@dataclass
class AdamState:
    """Per-parameter Adam moments plus the shared schedule counters."""

    learning_rate: float
    decay: float = 1.0
    epoch: int = 0
    step_count: int = 0
    first_moment: list = field(default_factory=list)
    second_moment: list = field(default_factory=list)


def init_adam(params: list, learning_rate: float, decay: float = 1.0) -> AdamState:
    state = AdamState(learning_rate=float(learning_rate), decay=float(decay))
    state.first_moment = [np.zeros_like(p.data) for p in params]
    state.second_moment = [np.zeros_like(p.data) for p in params]
    return state


def effective_lr(state: AdamState) -> float:
    return state.learning_rate * state.decay**state.epoch


def adam_step(params: list, state: AdamState) -> None:
    """One Adam update; requires a populated grad on every parameter."""
    if len(params) != len(state.first_moment):
        raise GraphError(
            f"adam_step: got {len(params)} params, state tracks {len(state.first_moment)}"
        )
    for i, p in enumerate(params):
        if p.grad is None:
            raise GraphError(f"adam_step: parameter {i} has no gradient")
    state.step_count += 1
    t = state.step_count
    lr = effective_lr(state)
    c1 = 1.0 - _ADAM_BETA1**t
    c2 = 1.0 - _ADAM_BETA2**t
    # p -= lr * (m/c1) / (sqrt(v/c2) + eps), refactored so the per-element
    # work is a handful of in-place passes.
    denom_scale = c1 / np.sqrt(c2)
    denom_shift = c1 * _ADAM_EPS
    for p, m, v in zip(params, state.first_moment, state.second_moment):
        g = p.grad
        m *= _ADAM_BETA1
        m += (1.0 - _ADAM_BETA1) * g
        v *= _ADAM_BETA2
        step = g * g
        step *= 1.0 - _ADAM_BETA2
        v += step
        np.sqrt(v, out=step)
        step *= denom_scale
        step += denom_shift
        np.divide(m, step, out=step)
        step *= lr
        p.data -= step
