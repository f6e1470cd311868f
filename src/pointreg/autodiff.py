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

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        if arr.ndim > 0 and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

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
    """

    def __init__(self, min_bytes: int = 1 << 20, max_bytes: int = 2 << 30):
        self._free: dict = {}
        self._held = 0
        self.min_bytes = min_bytes
        self.max_bytes = max_bytes

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
            or arr.nbytes < self.min_bytes
            or not arr.flags["C_CONTIGUOUS"]
            or not arr.flags["OWNDATA"]
            or self._held + arr.nbytes > self.max_bytes
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


def zero_grads(params, recycle: bool = False) -> None:
    """Clear gradients. ``recycle`` hands the buffers back to the scratch
    pool, which is only safe when no other reference to them is kept."""
    for p in params:
        if recycle:
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


def transpose2d(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose2d: expected 2-d input, got {x.data.shape}")
    out_data = np.ascontiguousarray(x.data.T)

    def grad_fn(gradient):
        _accumulate(x, gradient.T)

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


def concat_rows(parts: list) -> Tensor:
    """Concatenate 2-d tensors (or constant arrays) along axis 0."""
    if not parts:
        raise ShapeError("concat_rows: empty input list")
    arrays = [_as_array(p) for p in parts]
    out_data = np.concatenate(arrays, axis=0)
    offsets = np.cumsum([0] + [a.shape[0] for a in arrays])

    def grad_fn(gradient):
        for part, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if _needs_grad(part):
                _accumulate(part, gradient[lo:hi])

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
# nonlinearities and pooling


def leaky_relu(x: Tensor, slope: float = 0.1) -> Tensor:
    slope = float(slope)
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky_relu: slope must lie in (0, 1), got {slope}")
    xd = x.data
    out_data = np.where(xd > 0, xd, slope * xd)

    def grad_fn(gradient):
        _accumulate(x, gradient * np.where(xd > 0, 1.0, slope))

    return _make_node(out_data, (x,), grad_fn)


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


@dataclass
class BatchNormState:
    """Running statistics for one batch-norm layer. Not trainable.

    Every train-mode call folds its batch statistics in as
    ``(1 - momentum) * running + momentum * batch``. During training that
    moving average lags the moving weights, so the trainer does not keep it:
    at the end of each epoch it recomputes the statistics from the frozen
    weights by running this same update with ``momentum = 1/k`` on the k-th
    call (see ``trainer.recalibrate_batch_norm``), then restores
    ``momentum``. Eval mode reads the result.
    """

    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1
    eps: float = 1e-5


def init_batch_norm(features: int, dtype=np.float32) -> BatchNormState:
    return BatchNormState(
        running_mean=np.zeros(features, dtype=dtype),
        running_var=np.ones(features, dtype=dtype),
    )


def _update_running_stats(state: BatchNormState, mean: np.ndarray, var: np.ndarray) -> None:
    mom = state.momentum
    rm = (1.0 - mom) * state.running_mean.astype(np.float64) + mom * mean.astype(np.float64)
    rv = (1.0 - mom) * state.running_var.astype(np.float64) + mom * var.astype(np.float64)
    state.running_mean = rm.astype(state.running_mean.dtype)
    state.running_var = rv.astype(state.running_var.dtype)


def batch_norm(
    x: Tensor,
    scale_t: Tensor,
    shift_t: Tensor,
    state: BatchNormState,
    train: bool,
) -> Tensor:
    """Normalize feature columns of ``[N, F]`` rows, then apply scale and shift.

    Train mode uses batch statistics (biased variance) and updates the
    running statistics in ``state`` in place; eval mode only reads them.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"batch_norm: expected 2-d input, got {x.data.shape}")
    n, f = x.data.shape
    if scale_t.data.shape != (f,) or shift_t.data.shape != (f,):
        raise ShapeError(
            f"batch_norm: scale {scale_t.data.shape} / shift {shift_t.data.shape} do not match {f} features"
        )
    if state.running_mean.shape != (f,):
        raise ShapeError(f"batch_norm: state holds {state.running_mean.shape[0]} features, input has {f}")
    eps = state.eps

    if not train:
        inv = 1.0 / np.sqrt(state.running_var.astype(x.data.dtype) + eps)
        a = scale_t.data * inv
        b = shift_t.data - state.running_mean.astype(x.data.dtype) * a
        out_data = x.data * a + b

        def grad_fn_eval(gradient):
            if _needs_grad(x):
                _accumulate(x, gradient * a, fresh=True)
            if _needs_grad(scale_t):
                xhat = (x.data - state.running_mean.astype(x.data.dtype)) * inv
                _accumulate(scale_t, np.einsum("nf,nf->f", gradient, xhat))
            if _needs_grad(shift_t):
                _accumulate(shift_t, gradient.sum(axis=0))

        return _make_node(out_data, (x, scale_t, shift_t), grad_fn_eval)

    if n < 2:
        raise ShapeError(f"batch_norm: train mode needs at least 2 rows, got {n}")

    mean = x.data.mean(axis=0)
    var = x.data.var(axis=0)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * inv_std
    out_data = xhat * scale_t.data + shift_t.data
    _update_running_stats(state, mean, var)

    def grad_fn(gradient):
        if _needs_grad(scale_t):
            _accumulate(scale_t, np.einsum("nf,nf->f", gradient, xhat))
        if _needs_grad(shift_t):
            _accumulate(shift_t, gradient.sum(axis=0))
        if _needs_grad(x):
            gs = gradient * scale_t.data
            g_mean = gs.mean(axis=0)
            gx_mean = np.einsum("nf,nf->f", gs, xhat) / n
            gs -= g_mean
            gs -= xhat * gx_mean
            gs *= inv_std
            _accumulate(x, gs, fresh=True)

    return _make_node(out_data, (x, scale_t, shift_t), grad_fn)


def dense_bn_act(
    x,
    weight: Tensor,
    bias: Tensor,
    scale_t: Tensor,
    shift_t: Tensor,
    state: BatchNormState,
    train: bool,
    slope: float = 0.1,
) -> Tensor:
    """Fused linear + batch norm + leaky ReLU over ``[N, in] -> [N, out]``.

    Matches composing the three ops but touches the large activation arrays
    far fewer times, which is what the training loop's throughput lives on.
    The activation mask is recovered from the output's sign in the backward
    pass, so only the pre-norm product is kept.
    """
    xd = _as_array(x)
    if xd.ndim != 2 or xd.shape[1] != weight.data.shape[0]:
        raise ShapeError(f"dense_bn_act: x {xd.shape} does not match weight {weight.data.shape}")
    if not 0.0 < slope < 1.0:
        raise ValueError(f"dense_bn_act: slope must lie in (0, 1), got {slope}")
    n = xd.shape[0]
    eps = state.eps
    parents = (x, weight, bias, scale_t, shift_t)
    needs = any(_needs_grad(t) for t in parents)

    if not train and not needs:
        # Inference fast path: the normalisation is an affine map with fixed
        # running statistics, so it folds into the weights and the whole layer
        # becomes one matrix product plus an in-place activation.
        inv_std = 1.0 / np.sqrt(state.running_var.astype(xd.dtype) + eps)
        alpha = scale_t.data * inv_std
        out = xd @ (weight.data * alpha)
        out += bias.data * alpha + shift_t.data - state.running_mean.astype(xd.dtype) * alpha
        low = out * slope
        np.maximum(out, low, out=out)
        return Tensor(out)

    if train and n < 2:
        raise ShapeError(f"dense_bn_act: train mode needs at least 2 rows, got {n}")
    f = weight.data.shape[1]
    if xd.dtype == weight.data.dtype:
        z = np.matmul(xd, weight.data, out=_scratch.take((n, f), xd.dtype))
    else:
        z = xd @ weight.data
    z += bias.data
    if train:
        mean = z.mean(axis=0)
        z -= mean
        var = np.einsum("nf,nf->f", z, z) / n
        inv_std = 1.0 / np.sqrt(var + eps)
        _update_running_stats(state, mean, var)
    else:
        mean = state.running_mean.astype(z.dtype)
        inv_std = 1.0 / np.sqrt(state.running_var.astype(z.dtype) + eps)
        z -= mean
    # z now holds the centered pre-norm values; alpha folds the 1/std and
    # the learned scale into one broadcast multiply
    alpha = scale_t.data * inv_std
    out_data = np.multiply(z, alpha, out=_scratch.take(z.shape, z.dtype))
    out_data += shift_t.data
    low = np.multiply(out_data, slope, out=_scratch.take(z.shape, z.dtype))
    np.maximum(out_data, low, out=out_data)
    _scratch.give(low)
    del low

    def grad_fn(gradient):
        nonlocal z
        if z is None:
            raise GraphError("dense_bn_act: graph already consumed by backward()")
        # leaky ReLU keeps the sign of its input, so the output's sign
        # recovers which branch was active
        mask = np.greater(out_data, 0, out=_scratch.take(out_data.shape, np.bool_))
        dy = np.multiply(gradient, slope, out=_scratch.take(gradient.shape, gradient.dtype))
        np.copyto(dy, gradient, where=mask)
        _scratch.give(mask)
        # every reduction the norm's backward needs comes from these sums
        col_sum = dy.sum(axis=0)
        col_dot = np.einsum("nf,nf->f", dy, z)
        if _needs_grad(scale_t):
            _accumulate(scale_t, col_dot * inv_std)
        if _needs_grad(shift_t):
            _accumulate(shift_t, col_sum)
        dy *= alpha
        if train:
            dy -= alpha * (col_sum / n)
            low2 = np.multiply(z, alpha * inv_std * inv_std * (col_dot / n), out=z)
            dy -= low2
        _scratch.give(z)
        z = None
        if _needs_grad(bias):
            _accumulate(bias, dy.sum(axis=0))
        if _needs_grad(weight):
            _accumulate(weight, xd.T @ dy, fresh=True)
        if _needs_grad(x):
            if dy.dtype == weight.data.dtype:
                dx = np.matmul(dy, weight.data.T, out=_scratch.take(xd.shape, dy.dtype))
            else:
                dx = dy @ weight.data.T
            _accumulate(x, dx, fresh=True)
        _scratch.give(dy)

    return _make_node(out_data, parents, grad_fn)


def conv_bn_act_batch(
    x: Tensor,
    kernel: Tensor,
    bias: Tensor,
    scale_t: Tensor,
    shift_t: Tensor,
    state: BatchNormState,
    train: bool,
    slope: float = 0.1,
) -> Tensor:
    """Fused valid convolution + batch norm + leaky ReLU over a batch.

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
    batch, c_in = xd.shape[0], xd.shape[1]
    c_out = kd.shape[0]
    ksize = kd.shape[2:]
    spatial = xd.shape[2:]
    out_spatial = tuple(s - k + 1 for s, k in zip(spatial, ksize))
    if any(o < 1 for o in out_spatial):
        raise ShapeError(f"conv_bn_act_batch: kernel {ksize} larger than input extent {spatial}")
    positions = int(np.prod(out_spatial))
    rows = batch * positions
    if train and rows < 2:
        raise ShapeError(f"conv_bn_act_batch: train mode needs at least 2 rows, got {rows}")
    eps = state.eps

    windows = np.lib.stride_tricks.sliding_window_view(xd, ksize, axis=tuple(range(2, nd + 2)))
    windows = np.moveaxis(windows, 1, nd + 1)  # (B, *out, C_in, *k)
    k_flat = c_in * int(np.prod(ksize))
    cols = _scratch.take((rows, k_flat), xd.dtype)
    np.copyto(cols.reshape(windows.shape), windows)
    w2 = kd.reshape(c_out, -1)
    z = cols @ w2.T + bias.data

    if train:
        mean = z.mean(axis=0)
        z -= mean
        var = np.einsum("nf,nf->f", z, z) / rows
        inv_std = 1.0 / np.sqrt(var + eps)
        _update_running_stats(state, mean, var)
    else:
        mean = state.running_mean.astype(z.dtype)
        inv_std = 1.0 / np.sqrt(state.running_var.astype(z.dtype) + eps)
        z -= mean
    alpha = scale_t.data * inv_std
    act = z * alpha
    act += shift_t.data
    np.maximum(act, act * slope, out=act)
    out_data = np.ascontiguousarray(
        np.moveaxis(act.reshape((batch,) + out_spatial + (c_out,)), nd + 1, 1)
    )

    def grad_fn(gradient):
        nonlocal z, cols
        if z is None:
            raise GraphError("conv_bn_act_batch: graph already consumed by backward()")
        gf = np.ascontiguousarray(np.moveaxis(gradient, 1, nd + 1)).reshape(rows, c_out)
        dy = gf * slope
        np.copyto(dy, gf, where=act > 0)
        col_sum = dy.sum(axis=0)
        col_dot = np.einsum("nf,nf->f", dy, z)
        if _needs_grad(scale_t):
            _accumulate(scale_t, col_dot * inv_std)
        if _needs_grad(shift_t):
            _accumulate(shift_t, col_sum)
        dy *= alpha
        if train:
            dy -= alpha * (col_sum / rows)
            dy -= np.multiply(z, alpha * inv_std * inv_std * (col_dot / rows), out=z)
        _scratch.give(z)
        z = None
        if _needs_grad(bias):
            _accumulate(bias, dy.sum(axis=0))
        if _needs_grad(kernel):
            _accumulate(kernel, (dy.T @ cols).reshape(kd.shape), fresh=True)
        _scratch.give(cols)
        cols = None
        if _needs_grad(x):
            dcols = (dy @ w2).reshape((batch,) + out_spatial + (c_in,) + ksize)
            dx = np.zeros_like(xd)
            for offset in np.ndindex(*ksize):
                piece = np.moveaxis(dcols[(...,) + offset], nd + 1, 1)
                region = tuple(slice(j, j + o) for j, o in zip(offset, out_spatial))
                dx[(slice(None), slice(None)) + region] += piece
            _accumulate(x, dx, fresh=True)

    return _make_node(out_data, (x, kernel, bias, scale_t, shift_t), grad_fn)


def l2_normalize_block_cols(x: Tensor, block_rows: int, eps: float = 1e-12) -> Tensor:
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
    safe = np.maximum(norms, eps)
    out_data = (blocks / safe).reshape(n, s)

    def grad_fn(gradient):
        gb = gradient.reshape(blocks.shape)
        dot = np.einsum("brs,brs->bs", gb, blocks)[:, None, :]
        dx = gb / safe - blocks * (dot / (safe * safe * safe))
        _accumulate(x, dx.reshape(n, s), fresh=True)

    return _make_node(out_data, (x,), grad_fn)


def l2_normalize_rows(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Scale each row of ``[N, F]`` to unit Euclidean norm.

    Rows with norm below ``eps`` divide by ``eps`` instead, and the clamp is
    treated as constant in the backward pass.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"l2_normalize_rows: expected 2-d input, got {x.data.shape}")
    norms = np.sqrt(np.sum(x.data * x.data, axis=1, keepdims=True))
    safe = np.maximum(norms, eps)
    out_data = x.data / safe

    def grad_fn(gradient):
        dot = np.sum(gradient * x.data, axis=1, keepdims=True)
        _accumulate(x, gradient / safe - x.data * (dot / (safe * safe * safe)))

    return _make_node(out_data, (x,), grad_fn)


# ---------------------------------------------------------------------------
# convolution


def conv_valid(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Valid (no padding, stride 1) cross-correlation on a 2-d or 3-d grid.

    ``x`` is ``[C_in, *spatial]``, ``kernel`` is ``[C_out, C_in, *k]``, and the
    output is ``[C_out, *(spatial - k + 1)]``. Internally the input windows are
    flattened so the whole convolution is one matrix product.
    """
    xd, kd = x.data, kernel.data
    nd = xd.ndim - 1
    if nd not in (2, 3):
        raise ShapeError(f"conv_valid: expected [C, H, W] or [C, D, H, W] input, got {xd.shape}")
    if kd.ndim != nd + 2 or kd.shape[1] != xd.shape[0]:
        raise ShapeError(f"conv_valid: kernel {kd.shape} does not match input {xd.shape}")
    c_out, c_in = kd.shape[0], kd.shape[1]
    ksize = kd.shape[2:]
    spatial = xd.shape[1:]
    out_spatial = tuple(s - k + 1 for s, k in zip(spatial, ksize))
    if any(o < 1 for o in out_spatial):
        raise ShapeError(f"conv_valid: kernel {ksize} larger than input extent {spatial}")
    if bias.data.shape != (c_out,):
        raise ShapeError(f"conv_valid: bias {bias.data.shape} does not match {c_out} output channels")

    windows = np.lib.stride_tricks.sliding_window_view(xd, ksize, axis=tuple(range(1, nd + 1)))
    # (C_in, *out, *k) -> (*out, C_in, *k) -> (P, C_in * prod(k))
    windows = np.moveaxis(windows, 0, nd)
    positions = int(np.prod(out_spatial))
    cols = np.ascontiguousarray(windows).reshape(positions, c_in * int(np.prod(ksize)))
    w2 = kd.reshape(c_out, -1)
    flat = cols @ w2.T + bias.data
    out_data = np.ascontiguousarray(flat.T).reshape((c_out,) + out_spatial)

    def grad_fn(gradient):
        gf = gradient.reshape(c_out, positions).T
        if _needs_grad(kernel):
            _accumulate(kernel, (gf.T @ cols).reshape(kd.shape))
        if _needs_grad(bias):
            _accumulate(bias, gf.sum(axis=0))
        if _needs_grad(x):
            dcols = (gf @ w2).reshape(out_spatial + (c_in,) + ksize)
            dx = np.zeros_like(xd)
            for offset in np.ndindex(*ksize):
                piece = dcols[(...,) + offset]
                piece = np.moveaxis(piece, nd, 0)
                region = tuple(slice(j, j + o) for j, o in zip(offset, out_spatial))
                dx[(slice(None),) + region] += piece
            _accumulate(x, dx)

    return _make_node(out_data, (x, kernel, bias), grad_fn)


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


@dataclass
class AdamState:
    """Per-parameter Adam moments plus the shared schedule counters."""

    learning_rate: float
    decay: float = 1.0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
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
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    # p -= lr * (m/c1) / (sqrt(v/c2) + eps), refactored so the per-element
    # work is a handful of in-place passes.
    denom_scale = c1 / np.sqrt(c2)
    denom_shift = c1 * state.epsilon
    for p, m, v in zip(params, state.first_moment, state.second_moment):
        g = p.grad
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        step = g * g
        step *= 1.0 - state.beta2
        v += step
        np.sqrt(v, out=step)
        step *= denom_scale
        step += denom_shift
        np.divide(m, step, out=step)
        step *= lr
        p.data -= step
