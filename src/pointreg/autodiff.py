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
        are recycled as scratch once their own backward has consumed them;
        only tensors the caller built (leaves) keep ``.grad`` afterwards.
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
                g = node.grad
                node.grad = None
                _scratch.give(g)


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

    glibc sends every allocation beyond a few MB straight to mmap, and a fresh
    anonymous mapping costs a page fault plus a kernel zero-fill per touched
    page. One training batch churns through the same big temporary shapes
    over and over, so handing them back for reuse removes most of that cost.
    Arrays under ``MIN_BYTES`` are left to malloc; the pool holds at most
    ``MAX_BYTES``.
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
        buf = _scratch.take(t.data.shape, t.data.dtype)
        np.copyto(buf, g.reshape(t.data.shape))
        t.grad = buf
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
    """Clear gradients, handing the buffers back to the scratch pool: no
    reference to a gradient may be kept past this call."""
    for p in params:
        _scratch.give(p.grad)
        p.grad = None


def recycle_graph(root: Tensor) -> None:
    """Return every intermediate array below ``root`` to the scratch pool.

    Call after ``backward()`` when nothing will read the graph's tensors
    again (``root``'s own value stays valid). Leaves are untouched.
    """
    for node in _topological_order(root):
        if node is root or node._backward is None:
            continue
        d = node.data
        node.data = np.empty(0, d.dtype)
        node._parents = ()
        node._backward = None
        _scratch.give(d)


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
            x.grad = _scratch.take(x.data.shape, x.data.dtype)
            x.grad[...] = 0
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
        g = _scratch.take((n, d), x.data.dtype)
        g[...] = 0
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
    """Valid-convolution windows of ``[B, C, *spatial]`` as the rows of a
    scratch array ``[B * P, C * prod(k)]``, batch-major, one row per output
    position; returns ``(rows, out_spatial)``."""
    nd = xd.ndim - 2
    out_spatial = tuple(s - k + 1 for s, k in zip(xd.shape[2:], ksize))
    windows = np.lib.stride_tricks.sliding_window_view(xd, ksize, axis=tuple(range(2, nd + 2)))
    windows = np.moveaxis(windows, 1, nd + 1)  # (B, *out, C, *k)
    rows = _scratch.take((xd.shape[0] * int(np.prod(out_spatial)), xd.shape[1] * int(np.prod(ksize))),
                         xd.dtype)
    np.copyto(rows.reshape(windows.shape), windows)
    return rows, out_spatial


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
    low = np.multiply(out, LEAKY_SLOPE, out=_scratch.take(out.shape, out.dtype))
    np.maximum(out, low, out=out)
    _scratch.give(low)
    return out, mean, var, inv_std, alpha


def _bn_act_backward(gradient, out, z, inv_std, alpha, scale_t, shift_t) -> np.ndarray:
    """Backward of ``bn_act_forward`` under batch statistics: accumulates
    ``d scale`` and ``d shift`` and returns the gradient of the pre-norm
    rows. ``z`` is the centred pre-norm array, which this consumes."""
    # leaky ReLU keeps the sign of its input, so the output's sign recovers
    # which branch was active
    mask = np.greater(out, 0, out=_scratch.take(out.shape, np.bool_))
    dy = np.multiply(gradient, LEAKY_SLOPE, out=_scratch.take(gradient.shape, gradient.dtype))
    np.copyto(dy, gradient, where=mask)
    _scratch.give(mask)
    # every reduction the norm's backward needs comes from these sums
    n = dy.shape[0]
    col_sum = dy.sum(axis=0)
    col_dot = np.einsum("nf,nf->f", dy, z)
    if _needs_grad(scale_t):
        _accumulate(scale_t, col_dot * inv_std)
    if _needs_grad(shift_t):
        _accumulate(shift_t, col_sum)
    dy *= alpha
    dy -= alpha * (col_sum / n)
    dy -= np.multiply(z, alpha * inv_std * inv_std * (col_dot / n), out=z)
    _scratch.give(z)
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

    Matches composing the three ops but touches the large activation arrays
    far fewer times, which is what the training loop's throughput lives on.
    The activation mask is recovered from the output's sign in the backward
    pass, so only the pre-norm product is kept.
    """
    xd = _as_array(x)
    if xd.ndim != 2 or xd.shape[1] != weight.data.shape[0]:
        raise ShapeError(f"dense_bn_act: x {xd.shape} does not match weight {weight.data.shape}")
    n = xd.shape[0]
    if n < 2:
        raise ShapeError(f"dense_bn_act: needs at least 2 rows, got {n}")
    z = np.matmul(xd, weight.data, out=_scratch.take((n, weight.data.shape[1]), xd.dtype))
    z += bias.data
    out_data, _, _, inv_std, alpha = bn_act_forward(z, scale_t.data, shift_t.data,
                                                    out=_scratch.take(z.shape, z.dtype))

    def grad_fn(gradient):
        nonlocal z
        if z is None:
            raise GraphError("dense_bn_act: graph already consumed by backward()")
        dy = _bn_act_backward(gradient, out_data, z, inv_std, alpha, scale_t, shift_t)
        z = None
        if _needs_grad(bias):
            _accumulate(bias, dy.sum(axis=0))
        if _needs_grad(weight):
            _accumulate(weight, xd.T @ dy, fresh=True)
        if _needs_grad(x):
            _accumulate(x, np.matmul(dy, weight.data.T, out=_scratch.take(xd.shape, dy.dtype)), fresh=True)
        _scratch.give(dy)

    return _make_node(out_data, (x, weight, bias, scale_t, shift_t), grad_fn)


def _set_spans(set_sizes, groups: int, n: int) -> list:
    """``(lo, hi, k)`` row span and point count of each set of a pooled
    block: set ``s`` of ``k`` points owns ``groups * k`` consecutive rows,
    group-major, so row ``g * k + j`` is point ``j`` of group ``g``."""
    sizes = [int(k) for k in set_sizes]
    if groups < 1 or not sizes or min(sizes) < 1:
        raise ShapeError(f"dense_bn_act_pool: need at least one set, every set and group count >= 1, "
                         f"got sets {sizes} and {groups} groups")
    if groups * sum(sizes) != n:
        raise ShapeError(f"dense_bn_act_pool: {n} rows do not hold sets of {sizes} points in {groups} groups")
    spans = []
    lo = 0
    for k in sizes:
        spans.append((lo, lo + groups * k, k))
        lo += groups * k
    return spans


@dataclass
class PooledForward:
    """What ``dense_bn_act_pool_forward`` computes. ``out`` is the pooled
    activation ``[num_sets * groups, out]`` in the input dtype; ``mean`` and
    ``var`` are the float64 batch statistics of ``z = x @ weight + bias``
    over every row. The rest is what the backward reads: the column mean
    and centred Gram of ``x``, and per pooled entry its selected row (local
    to its set, laid out ``[out, num_sets * groups]``) and normalised value."""

    out: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    spans: list
    x_mean: np.ndarray
    gram: np.ndarray
    rows: np.ndarray
    xhat: np.ndarray
    alpha: np.ndarray
    inv_std: np.ndarray
    slope_mask: np.ndarray


def dense_bn_act_pool_forward(xd, w, b, scale, shift, set_sizes, groups: int) -> PooledForward:
    """Plain-array forward of ``dense_bn_act_pool``; the graph-free batch
    mode of the model runs the same function, so its statistics and pooled
    output are the training forward's.

    The batch statistics come from the input: ``mean = x̄ @ w + b`` and
    ``var = diag(wᵀ C w)``, where ``C`` is the centred Gram of ``x``, each
    set's part taken in the input dtype and summed in float64. Leaky ReLU
    after the affine norm is monotone in ``z`` with the direction of the
    column's scale, so the pooled output is the activation of the group max
    of ``z * sign(scale)``. ``z`` is made one set at a time, transposed so
    the group max runs along contiguous memory, and dropped. Ties go to the
    first row; a column of zero scale has a constant activation, on which
    every row ties, so its first row is selected.
    """
    n, d_in = xd.shape
    f = w.shape[1]
    dt = xd.dtype
    spans = _set_spans(set_sizes, groups, n)
    cap = max(hi - lo for lo, hi, _ in spans)

    # statistics from the input: column sums by a vector product per set,
    # then the Gram of each set centred at the mean (rounded to the input
    # dtype, which moves C by the square of that rounding)
    ones = np.ones(cap, dt)
    x_mean = sum((ones[:hi - lo] @ xd[lo:hi]).astype(np.float64) for lo, hi, _ in spans) / n
    centre = x_mean.astype(dt)
    xc = _scratch.take((cap, d_in), dt)
    gram = np.zeros((d_in, d_in))
    for lo, hi, _ in spans:
        c = np.subtract(xd[lo:hi], centre, out=xc[:hi - lo])
        gram += c.T @ c
    _scratch.give(xc)
    gram /= n
    w64 = w.astype(np.float64)
    mean = x_mean @ w64 + b
    var = np.einsum("if,ij,jf->f", w64, gram, w64)
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    alpha = scale * inv_std

    # pool before the activation
    sign = np.where(scale < 0, -1, 1).astype(dt)
    ws = np.ascontiguousarray((w * sign).T)
    bs = (b * sign)[:, None]
    zero_scale = scale == 0
    zbuf = _scratch.take((f * cap,), dt)
    rows = np.empty((f, len(spans) * groups), np.intp)
    zsel = np.empty((f, len(spans) * groups), dt)
    base = np.arange(groups)
    for s, (lo, hi, k) in enumerate(spans):
        z = np.matmul(ws, xd[lo:hi].T, out=zbuf[:f * (hi - lo)].reshape(f, hi - lo))
        z += bs
        z3 = z.reshape(f, groups, k)
        pick = np.argmax(z3, axis=2)
        pick[zero_scale] = 0
        cols = slice(s * groups, (s + 1) * groups)
        zsel[:, cols] = np.take_along_axis(z3, pick[..., None], axis=2)[..., 0]
        rows[:, cols] = pick + base * k
    _scratch.give(zbuf)
    zsel *= sign[:, None]
    xhat = (zsel.T - mean) * inv_std
    y = xhat * scale + shift
    slope_mask = np.where(y > 0, 1.0, LEAKY_SLOPE)
    # y is laid out like zsel.T; the rows are made C-ordered here, so that
    # unit_rows sums each row's squares in one order on every path
    out = (y * slope_mask).astype(dt, order="C")
    return PooledForward(out, mean, var, spans, x_mean, gram, rows, xhat, alpha, inv_std, slope_mask)


def dense_bn_act_pool(
    x,
    weight: Tensor,
    bias: Tensor,
    scale_t: Tensor,
    shift_t: Tensor,
    set_sizes,
    groups: int,
) -> Tensor:
    """Fused linear + batch norm (batch statistics over every row) + leaky
    ReLU (``LEAKY_SLOPE``) + per-set, per-group columnwise max over
    ``[N, in]`` rows, giving ``[num_sets * groups, out]``; the row layout
    is ``_set_spans``'.

    Equal to ``dense_bn_act`` followed by ``max_pool_rows`` on each set,
    but the ``[N, out]`` activation is never stored (see
    ``dense_bn_act_pool_forward``). The pooled gradient reaches one row per
    group and column, so the backward is sparse: with the means over all
    ``n`` rows ``u = -alpha * mean(dy)`` and ``v = alpha * inv_std *
    mean(dy * xhat)``, and the gathered part ``S`` (``alpha * dy`` at the
    selected rows, zero elsewhere),

    * ``dW = xᵀS + n x̄ uᵀ - n C W diag(v)``,
    * ``dx = S Wᵀ - x M + x̄ M + W u`` with ``M = W diag(v) Wᵀ``,
    * ``d bias = 0``: batch norm removes the bias exactly.

    ``S`` is scattered one set at a time into a zeroed ``[out, rows]``
    buffer, which feeds both matrix products.
    """
    xd = _as_array(x)
    if xd.ndim != 2 or xd.shape[1] != weight.data.shape[0]:
        raise ShapeError(f"dense_bn_act_pool: x {xd.shape} does not match weight {weight.data.shape}")
    f = weight.data.shape[1]
    for name, t in (("bias", bias), ("scale", scale_t), ("shift", shift_t)):
        if t.data.shape != (f,):
            raise ShapeError(f"dense_bn_act_pool: {name} {t.data.shape} does not match {f} features")
    n = xd.shape[0]
    if n < 2:
        raise ShapeError(f"dense_bn_act_pool: needs at least 2 rows, got {n}")
    fw = dense_bn_act_pool_forward(xd, weight.data, bias.data, scale_t.data, shift_t.data,
                                   set_sizes, groups)

    def grad_fn(gradient):
        dt = xd.dtype
        w = weight.data
        dy = gradient * fw.slope_mask
        d_shift = dy.sum(axis=0)
        d_scale = np.einsum("pf,pf->f", dy, fw.xhat)
        if _needs_grad(scale_t):
            _accumulate(scale_t, d_scale)
        if _needs_grad(shift_t):
            _accumulate(shift_t, d_shift)
        if _needs_grad(bias):
            _accumulate(bias, np.zeros(f, bias.data.dtype), fresh=True)
        need_w, need_x = _needs_grad(weight), _needs_grad(x)
        if not (need_w or need_x):
            return
        u = -fw.alpha * (d_shift / n)
        v = fw.alpha * fw.inv_std * (d_scale / n)
        gathered = (dy * fw.alpha).T.astype(dt)  # [out, num_sets * groups]
        w64 = w.astype(np.float64)
        wv = w64 * v
        if need_x:
            neg_m = (-(wv @ w64.T)).astype(dt)
            row = (fw.x_mean @ wv @ w64.T + w64 @ u).astype(dt)
            dx = _scratch.take(xd.shape, dt)
        cap = max(hi - lo for lo, hi, _ in fw.spans)
        sbuf = _scratch.take((f * cap,), dt)
        sbuf[...] = 0
        tmp = _scratch.take((cap, xd.shape[1]), dt) if need_x else None
        dw_t = np.zeros((f, xd.shape[1]))
        for s, (lo, hi, k) in enumerate(fw.spans):
            cols = slice(s * groups, (s + 1) * groups)
            st = sbuf[:f * (hi - lo)].reshape(f, hi - lo)
            np.put_along_axis(st, fw.rows[:, cols], gathered[:, cols], axis=1)
            if need_w:
                dw_t += st @ xd[lo:hi]
            if need_x:
                part = np.matmul(xd[lo:hi], neg_m, out=dx[lo:hi])
                part += np.matmul(st.T, w.T, out=tmp[:hi - lo])
                part += row
            np.put_along_axis(st, fw.rows[:, cols], 0, axis=1)
        _scratch.give(sbuf)
        _scratch.give(tmp)
        if need_w:
            dw = dw_t.T + n * np.outer(fw.x_mean, u) - n * (fw.gram @ wv)
            _accumulate(weight, dw.astype(w.dtype), fresh=True)
        if need_x:
            _accumulate(x, dx, fresh=True)

    return _make_node(fw.out, (x, weight, bias, scale_t, shift_t), grad_fn)


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
        nonlocal z, cols
        if z is None:
            raise GraphError("conv_bn_act_batch: graph already consumed by backward()")
        gf = np.ascontiguousarray(np.moveaxis(gradient, 1, nd + 1)).reshape(rows, c_out)
        dy = _bn_act_backward(gf, act, z, inv_std, alpha, scale_t, shift_t)
        z = None
        if _needs_grad(bias):
            _accumulate(bias, dy.sum(axis=0))
        if _needs_grad(kernel):
            _accumulate(kernel, (dy.T @ cols).reshape(kd.shape), fresh=True)
        _scratch.give(cols)
        cols = None
        if _needs_grad(x):
            _accumulate(x, _unwindow(dy @ w2, xd.shape, ksize), fresh=True)
        _scratch.give(dy)

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
