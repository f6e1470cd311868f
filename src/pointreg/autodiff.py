"""Reverse-mode automatic differentiation over numpy arrays.

The engine is deliberately small. A ``Tensor`` wraps a float32 or float64
array; each op computes its result eagerly and attaches a closure that knows
how to push gradients back to the op's inputs. ``Tensor.backward`` walks the
recorded graph once in reverse topological order.

Two properties the rest of the package relies on:

* gradients only flow where they are needed. An op inspects its inputs at
  build time and skips gradient work for plain constants, so feeding large
  constant arrays through the network costs nothing extra on the way back.
* every reduction uses a fixed numpy evaluation order, so repeated runs on
  identical inputs produce bitwise-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    at most ``MAX_BYTES``.
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
# arithmetic


def add(a: Tensor, b) -> Tensor:
    """Elementwise sum; ``b`` may be a Tensor or a constant array."""
    bd = _as_array(b)
    if a.data.shape != bd.shape:
        raise ShapeError(f"add: shapes {a.data.shape} and {bd.shape} differ")
    out_data = a.data + bd

    def grad_fn(gradient):
        if _needs_grad(a):
            _accumulate(a, gradient)
        if _needs_grad(b):
            _accumulate(b, gradient)

    return _make_node(out_data, (a, b), grad_fn)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    out_data = x.data * c

    def grad_fn(gradient):
        _accumulate(x, gradient * c)

    return _make_node(out_data, (x,), grad_fn)


def neg(x: Tensor) -> Tensor:
    return scale(x, -1.0)


def tensor_sum(x: Tensor) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    out_data = np.sum(x.data)

    def grad_fn(gradient):
        _accumulate(x, np.broadcast_to(gradient, x.data.shape))

    return _make_node(out_data, (x,), grad_fn)


# ---------------------------------------------------------------------------
# shape plumbing


def reshape(x: Tensor, shape) -> Tensor:
    out_data = x.data.reshape(shape)

    def grad_fn(gradient):
        _accumulate(x, gradient.reshape(x.data.shape))

    return _make_node(out_data, (x,), grad_fn)


def row_slice(x: Tensor, start: int, stop: int) -> Tensor:
    """Rows ``start:stop`` of a 2-d tensor."""
    if x.data.ndim != 2:
        raise ShapeError(f"row_slice: expected 2-d input, got {x.data.shape}")
    out_data = x.data[start:stop]

    def grad_fn(gradient):
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        x.grad[start:stop] += gradient.astype(x.data.dtype, copy=False)

    return _make_node(out_data, (x,), grad_fn)


def concat_rows(parts) -> Tensor:
    """2-d tensors of equal width stacked by rows; the backward hands each
    part its slice of the gradient. A single part is returned as it is."""
    if len(parts) == 1:
        return parts[0]
    out_data = np.concatenate([p.data for p in parts])
    stops = np.cumsum([p.data.shape[0] for p in parts])

    def grad_fn(gradient):
        for p, stop in zip(parts, stops):
            if _needs_grad(p):
                _accumulate(p, gradient[stop - p.data.shape[0]:stop])

    return _make_node(out_data, tuple(parts), grad_fn)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b, transpose_b: bool = False) -> Tensor:
    """``a @ b`` (or ``a @ b.T``); either operand may be a constant array."""
    ad, bd = _as_array(a), _as_array(b)
    if ad.ndim != 2 or bd.ndim != 2:
        raise ShapeError(f"matmul: expected 2-d operands, got {ad.shape} and {bd.shape}")
    inner = bd.shape[1] if transpose_b else bd.shape[0]
    if ad.shape[1] != inner:
        raise ShapeError(f"matmul: inner dims {ad.shape} vs {bd.shape} (transpose_b={transpose_b})")
    out_data = ad @ bd.T if transpose_b else ad @ bd

    def grad_fn(gradient):
        if transpose_b:
            if _needs_grad(a):
                _accumulate(a, gradient @ bd)
            if _needs_grad(b):
                _accumulate(b, gradient.T @ ad)
        else:
            if _needs_grad(a):
                _accumulate(a, gradient @ bd.T)
            if _needs_grad(b):
                _accumulate(b, ad.T @ gradient)

    return _make_node(out_data, (a, b), grad_fn)


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


def window_rows(xd: np.ndarray, ksize) -> tuple:
    """Valid-convolution windows of ``[B, C, *spatial]`` as rows ``[B * P,
    C * prod(k)]``, batch-major, one row per output position: the window
    view reshaped, which copies it where windows overlap. Returns ``(rows,
    out_spatial)``."""
    nd = xd.ndim - 2
    out_spatial = tuple(s - k + 1 for s, k in zip(xd.shape[2:], ksize))
    windows = np.lib.stride_tricks.sliding_window_view(xd, ksize, axis=tuple(range(2, nd + 2)))
    windows = np.moveaxis(windows, 1, nd + 1)  # (B, *out, C, *k)
    return windows.reshape(-1, xd.shape[1] * int(np.prod(ksize))), out_spatial


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


def _moments(blocks) -> tuple:
    """Float64 column mean and centred Gram ``Σ (a - mean)ᵀ (a - mean)``
    (not divided by the row count) of the rows of ``blocks``, an iterable of
    arrays. Each block is centred at its own mean and merged by Chan's
    update, so no block needs the overall mean in advance."""
    n, mean, gram = 0, 0.0, 0.0
    for a in blocks:
        r = a.shape[0]
        block_mean = (np.ones(r, a.dtype) @ a).astype(np.float64) / r
        c = a - block_mean.astype(a.dtype)
        delta = block_mean - mean
        gram = gram + c.T @ c + np.outer(delta, delta) * (n * r / (n + r))
        mean = mean + delta * (r / (n + r))
        n += r
    return mean, gram


class BlockedMlp:
    """What ``pooled_mlp_forward`` computes and its backward reads. A
    block is ``(set, first row, first grid point, end grid point)``: the
    rows of up to ``MLP_BLOCK`` grid points of one set of ``k`` points, row
    ``g * k + j`` of a set pairing grid point ``g`` with point ``j``. The
    partition depends on each set's own size only."""

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

    def layer_output(self, block, l: int, out=None) -> np.ndarray:
        """Layer ``l``'s activation rows in ``block``, written to ``out`` when
        given; for the last layer its pre-activation ``[width, grid points,
        set points]``, so that the pool runs along contiguous memory. Layer 0
        is the outer sum ``grid @ W_g + points @ W_p + b`` of the halves of
        its weight."""
        s, _, g0, g1 = block
        w, b = self.folded[l]
        top = l == len(self.layers) - 1
        if l == 0:
            dim = self.grid.shape[1]
            gpart = self.grid[g0:g1] @ w[:dim] + b
            ppart = self.points[s] @ w[dim:]
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

        # the last layer reaches one row per grid point and column: gather them
        p = np.zeros(self.folded[top][0].shape)
        for block in self.blocks:
            s, _, g0, g1 = block
            picked = self.pick[s * g + g0:s * g + g1] + len(self.points[s]) * np.arange(g1 - g0)[:, None]
            p += np.einsum("gfi,gf->if", self.layer_input(block, top)[picked], dy[s * g + g0:s * g + g1])
        neg_m, row = self.finish_layer(top, p, dy.sum(axis=0, dtype=np.float64))
        for l in range(top - 1, -1, -1):
            w_next = self.folded[l + 1][0]
            width = w_next.shape[0]
            p = np.zeros((self.folded[l][0].shape[0], width))
            col_sum = np.zeros(width)
            for block in self.blocks:
                rows = self.rows(block)
                a = self.hidden[l][rows] if l else self.layer_output(block, 0)
                d_next = selected(block) if l + 1 == top else self.hidden[l + 1][rows]
                # the gradient of layer l + 1's input, then of layer l's pre-activation
                da = a @ neg_m
                da += d_next @ w_next.T
                da += row
                da *= _slope(a)
                col_sum += np.ones(len(da), dt) @ da
                p += self.layer_input(block, l).T @ da
                if l:
                    a[...] = da
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
    each block, ties to the first point, and activates the maximum.
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
        x_mean, gram = _moments(mlp.layer_output(block, l, mlp.hidden[l][mlp.rows(block)] if l else None)
                                for block in mlp.blocks)
    g = len(mlp.grid)
    mlp.pick = _scratch.take((len(mlp.points) * g, layers[-1].weight.data.shape[1]), np.intp)
    mlp.y = _scratch.take(mlp.pick.shape, mlp.grid.dtype)
    for block in mlp.blocks:
        s, _, g0, g1 = block
        z = mlp.layer_output(block, len(layers) - 1)
        pick = np.argmax(z, axis=2)
        mlp.pick[s * g + g0:s * g + g1] = pick.T
        mlp.y[s * g + g0:s * g + g1] = np.take_along_axis(z, pick[..., None], axis=2)[..., 0].T
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


def l2_normalize_block_cols(x: Tensor, block_rows: int) -> Tensor:
    """Normalize each column to unit norm within consecutive row blocks.

    ``[B*R, S]`` input is treated as B blocks of R rows; every length-R
    column vector inside a block is scaled to unit Euclidean norm.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"l2_normalize_block_cols: expected 2-d input, got {x.data.shape}")
    n, s = x.data.shape
    if block_rows < 1 or n % block_rows != 0:
        raise ShapeError(f"l2_normalize_block_cols: {n} rows not divisible into blocks of {block_rows}")
    blocks = x.data.reshape(n // block_rows, block_rows, s)
    norms = np.sqrt(np.einsum("brs,brs->bs", blocks, blocks))[:, None, :]
    safe = np.maximum(norms, _NORM_EPS)
    out_data = (blocks / safe).reshape(n, s)

    def grad_fn(gradient):
        gb = gradient.reshape(blocks.shape)
        dot = np.einsum("brs,brs->bs", gb, blocks)[:, None, :]
        dx = gb / safe - blocks * (dot / (safe * safe * safe))
        _accumulate(x, dx.reshape(n, s), fresh=True)

    return _make_node(out_data, (x,), grad_fn)


def unit_rows(x: np.ndarray, out=None) -> tuple:
    """Plain-array forward of ``l2_normalize_rows``: ``(out, safe)``, the
    rows of ``[N, F]`` divided by their Euclidean norms, written to ``out``
    (``x`` itself is allowed) or a new array, and the ``[N, 1]`` norms
    clamped below at ``_NORM_EPS`` that they were divided by."""
    norms = np.sqrt(np.sum(x * x, axis=1, keepdims=True))
    safe = np.maximum(norms, _NORM_EPS)
    return np.divide(x, safe, out=out), safe


def l2_normalize_rows(x: Tensor) -> Tensor:
    """Scale each row of ``[N, F]`` to unit Euclidean norm (``unit_rows``).

    Rows with norm below ``_NORM_EPS`` divide by it instead, and the clamp is
    treated as constant in the backward pass.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"l2_normalize_rows: expected 2-d input, got {x.data.shape}")
    out_data, safe = unit_rows(x.data)

    def grad_fn(gradient):
        dot = np.sum(gradient * x.data, axis=1, keepdims=True)
        _accumulate(x, gradient / safe - x.data * (dot / (safe * safe * safe)))

    return _make_node(out_data, (x,), grad_fn)


# ---------------------------------------------------------------------------
# distance and log-sum-exp

def pairwise_sqdist(x, y) -> Tensor:
    """Squared Euclidean distances between rows of ``[N, d]`` and ``[M, d]``."""
    xd, yd = _as_array(x), _as_array(y)
    if xd.ndim != 2 or yd.ndim != 2 or xd.shape[1] != yd.shape[1]:
        raise ShapeError(f"pairwise_sqdist: incompatible shapes {xd.shape} and {yd.shape}")
    diff = xd[:, None, :] - yd[None, :, :]
    out_data = np.sum(diff * diff, axis=2)

    def grad_fn(gradient):
        if _needs_grad(x):
            _accumulate(x, 2.0 * (xd * gradient.sum(axis=1, keepdims=True) - gradient @ yd))
        if _needs_grad(y):
            _accumulate(y, 2.0 * (yd * gradient.sum(axis=0)[:, None] - gradient.T @ xd))

    return _make_node(out_data, (x, y), grad_fn)


def log_sum_exp(x: Tensor, axis: int) -> Tensor:
    """``log(sum(exp(x), axis))`` evaluated stably; the axis is removed."""
    xd = x.data
    if not -xd.ndim <= axis < xd.ndim:
        raise ShapeError(f"log_sum_exp: axis {axis} out of range for shape {xd.shape}")
    m = np.max(xd, axis=axis, keepdims=True)
    w = np.exp(xd - m)
    s = np.sum(w, axis=axis, keepdims=True)
    out_data = np.squeeze(m + np.log(s), axis=axis)

    def grad_fn(gradient):
        _accumulate(x, np.expand_dims(gradient, axis) * (w / s))

    return _make_node(out_data, (x,), grad_fn)


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
