"""Reference routes the fused ops and the training stages are tested against.

Each is a plain autodiff op or a composition of them: a leaky ReLU, a batch
norm by batch statistics, a per-element valid convolution, a 2-d
transpose, and the one-directional GMM loss; the generic graph ops the
training stages after the descriptor MLP were once built from (``add``,
``scale``, ``neg``, ``tensor_sum``, ``row_slice``, ``concat_rows``,
``matmul``, ``l2_normalize_rows``, ``l2_normalize_block_cols``,
``pairwise_sqdist`` and ``log_sum_exp``) and those stages composed from
them (``correlation``, ``warp``, ``gmm_symmetric``, ``batch_mean``); the
nearest-neighbour distances of Chamfer as one summed difference array, the
descriptor MLP's running-statistics pool by ``argmax``; and the initial
weights drawn whole. The package runs only the fused forms
(``dense_bn_act``, ``conv_bn_act_batch``, ``pooled_mlp``, one op per
stage), the symmetric loss, the distances one coordinate at a time, the
pool by ``np.max`` and weights drawn chunk by chunk, so these routes live
here, with the arithmetic the tests compare against.
"""

from itertools import groupby

import numpy as np

from pointreg import autodiff as ad
from pointreg import losses
from pointreg import model


def add(a: ad.Tensor, b) -> ad.Tensor:
    """Elementwise sum; ``b`` may be a Tensor or a constant array."""
    bd = ad._as_array(b)
    if a.data.shape != bd.shape:
        raise ad.ShapeError(f"add: shapes {a.data.shape} and {bd.shape} differ")
    out_data = a.data + bd

    def grad_fn(gradient):
        if ad._needs_grad(a):
            ad._accumulate(a, gradient)
        if ad._needs_grad(b):
            ad._accumulate(b, gradient)

    return ad._make_node(out_data, (a, b), grad_fn)


def scale(x: ad.Tensor, c: float) -> ad.Tensor:
    c = float(c)
    out_data = x.data * c

    def grad_fn(gradient):
        ad._accumulate(x, gradient * c)

    return ad._make_node(out_data, (x,), grad_fn)


def neg(x: ad.Tensor) -> ad.Tensor:
    return scale(x, -1.0)


def tensor_sum(x: ad.Tensor) -> ad.Tensor:
    """Sum of all entries, as a scalar tensor."""
    out_data = np.sum(x.data)

    def grad_fn(gradient):
        ad._accumulate(x, np.broadcast_to(gradient, x.data.shape))

    return ad._make_node(out_data, (x,), grad_fn)


def row_slice(x: ad.Tensor, start: int, stop: int) -> ad.Tensor:
    """Rows ``start:stop`` of a 2-d tensor."""
    if x.data.ndim != 2:
        raise ad.ShapeError(f"row_slice: expected 2-d input, got {x.data.shape}")
    out_data = x.data[start:stop]

    def grad_fn(gradient):
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        x.grad[start:stop] += gradient.astype(x.data.dtype, copy=False)

    return ad._make_node(out_data, (x,), grad_fn)


def concat_rows(parts) -> ad.Tensor:
    """2-d tensors of equal width stacked by rows; the backward hands each
    part its slice of the gradient. A single part is returned as it is."""
    if len(parts) == 1:
        return parts[0]
    out_data = np.concatenate([p.data for p in parts])
    stops = np.cumsum([p.data.shape[0] for p in parts])

    def grad_fn(gradient):
        for p, stop in zip(parts, stops):
            if ad._needs_grad(p):
                ad._accumulate(p, gradient[stop - p.data.shape[0]:stop])

    return ad._make_node(out_data, tuple(parts), grad_fn)


def matmul(a: ad.Tensor, b, transpose_b: bool = False) -> ad.Tensor:
    """``a @ b`` (or ``a @ b.T``); either operand may be a constant array."""
    a_d, bd = ad._as_array(a), ad._as_array(b)
    if a_d.ndim != 2 or bd.ndim != 2:
        raise ad.ShapeError(f"matmul: expected 2-d operands, got {a_d.shape} and {bd.shape}")
    inner = bd.shape[1] if transpose_b else bd.shape[0]
    if a_d.shape[1] != inner:
        raise ad.ShapeError(f"matmul: inner dims {a_d.shape} vs {bd.shape} (transpose_b={transpose_b})")
    out_data = a_d @ bd.T if transpose_b else a_d @ bd

    def grad_fn(gradient):
        if transpose_b:
            if ad._needs_grad(a):
                ad._accumulate(a, gradient @ bd)
            if ad._needs_grad(b):
                ad._accumulate(b, gradient.T @ a_d)
        else:
            if ad._needs_grad(a):
                ad._accumulate(a, gradient @ bd.T)
            if ad._needs_grad(b):
                ad._accumulate(b, a_d.T @ gradient)

    return ad._make_node(out_data, (a, b), grad_fn)


def l2_normalize_block_cols(x: ad.Tensor, block_rows: int) -> ad.Tensor:
    """Normalize each column to unit norm within consecutive row blocks.

    ``[B*R, S]`` input is treated as B blocks of R rows; every length-R
    column vector inside a block is scaled to unit Euclidean norm.
    """
    if x.data.ndim != 2:
        raise ad.ShapeError(f"l2_normalize_block_cols: expected 2-d input, got {x.data.shape}")
    n, s = x.data.shape
    if block_rows < 1 or n % block_rows != 0:
        raise ad.ShapeError(f"l2_normalize_block_cols: {n} rows not divisible into blocks of {block_rows}")
    blocks = x.data.reshape(n // block_rows, block_rows, s)
    norms = np.sqrt(np.einsum("brs,brs->bs", blocks, blocks))[:, None, :]
    safe = np.maximum(norms, ad._NORM_EPS)
    out_data = (blocks / safe).reshape(n, s)

    def grad_fn(gradient):
        gb = gradient.reshape(blocks.shape)
        dot = np.einsum("brs,brs->bs", gb, blocks)[:, None, :]
        dx = gb / safe - blocks * (dot / (safe * safe * safe))
        ad._accumulate(x, dx.reshape(n, s), fresh=True)

    return ad._make_node(out_data, (x,), grad_fn)


def l2_normalize_rows(x: ad.Tensor) -> ad.Tensor:
    """Scale each row of ``[N, F]`` to unit Euclidean norm (``autodiff.unit_rows``).

    Rows with norm below ``autodiff._NORM_EPS`` divide by it instead, and the
    clamp is treated as constant in the backward pass.
    """
    if x.data.ndim != 2:
        raise ad.ShapeError(f"l2_normalize_rows: expected 2-d input, got {x.data.shape}")
    out_data, safe = ad.unit_rows(x.data)

    def grad_fn(gradient):
        dot = np.sum(gradient * x.data, axis=1, keepdims=True)
        ad._accumulate(x, gradient / safe - x.data * (dot / (safe * safe * safe)))

    return ad._make_node(out_data, (x,), grad_fn)


def pairwise_sqdist(x, y) -> ad.Tensor:
    """Squared Euclidean distances between rows of ``[N, d]`` and ``[M, d]``."""
    xd, yd = ad._as_array(x), ad._as_array(y)
    if xd.ndim != 2 or yd.ndim != 2 or xd.shape[1] != yd.shape[1]:
        raise ad.ShapeError(f"pairwise_sqdist: incompatible shapes {xd.shape} and {yd.shape}")
    diff = xd[:, None, :] - yd[None, :, :]
    out_data = np.sum(diff * diff, axis=2)

    def grad_fn(gradient):
        if ad._needs_grad(x):
            ad._accumulate(x, 2.0 * (xd * gradient.sum(axis=1, keepdims=True) - gradient @ yd))
        if ad._needs_grad(y):
            ad._accumulate(y, 2.0 * (yd * gradient.sum(axis=0)[:, None] - gradient.T @ xd))

    return ad._make_node(out_data, (x, y), grad_fn)


def log_sum_exp(x: ad.Tensor, axis: int) -> ad.Tensor:
    """``log(sum(exp(x), axis))`` evaluated stably; the axis is removed."""
    xd = x.data
    if not -xd.ndim <= axis < xd.ndim:
        raise ad.ShapeError(f"log_sum_exp: axis {axis} out of range for shape {xd.shape}")
    m = np.max(xd, axis=axis, keepdims=True)
    w = np.exp(xd - m)
    s = np.sum(w, axis=axis, keepdims=True)
    out_data = np.squeeze(m + np.log(s), axis=axis)

    def grad_fn(gradient):
        ad._accumulate(x, np.expand_dims(gradient, axis) * (w / s))

    return ad._make_node(out_data, (x,), grad_fn)


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
    return l2_normalize_block_cols(matmul(f_g_all, f_s, transpose_b=True), grid_count)


def correlation(x: ad.Tensor, owners, g: int) -> ad.Tensor:
    """``autodiff.correlation`` composed of generic ops: the rows of ``x``
    normalised, then per run of one source its ``compute_correlation``
    against row slices, stacked."""
    desc = l2_normalize_rows(x)
    parts, lo = [], owners[-1] + 1
    for owner, run in groupby(owners):
        hi = lo + len(list(run))
        parts.append(compute_correlation(row_slice(desc, owner * g, (owner + 1) * g),
                                         row_slice(desc, lo * g, hi * g), g))
        lo = hi
    return concat_rows(parts)


def warp(deltas: ad.Tensor, i: int, basis: np.ndarray, theta0: np.ndarray) -> ad.Tensor:
    """``autodiff.warp`` composed of generic ops."""
    theta = ad.reshape(add(row_slice(deltas, i, i + 1), theta0), (basis.shape[1], -1))
    return matmul(ad.Tensor(basis), theta)


def gmm_symmetric(x: ad.Tensor, y: np.ndarray, c: float) -> ad.Tensor:
    """``autodiff.gmm_symmetric`` composed of generic ops."""
    scaled = scale(pairwise_sqdist(x, y), c)
    return neg(add(tensor_sum(log_sum_exp(scaled, axis=1)), tensor_sum(log_sum_exp(scaled, axis=0))))


def batch_mean(terms) -> ad.Tensor:
    """``autodiff.batch_mean`` composed of generic ops: an ``add`` chain in
    order, then ``scale``."""
    total = terms[0]
    for t in terms[1:]:
        total = add(total, t)
    return scale(total, 1.0 / len(terms))


def transpose2d(x: ad.Tensor) -> ad.Tensor:
    if x.data.ndim != 2:
        raise ad.ShapeError(f"transpose2d: expected 2-d input, got {x.data.shape}")
    out_data = np.ascontiguousarray(x.data.T)

    def grad_fn(gradient):
        ad._accumulate(x, gradient.T)

    return ad._make_node(out_data, (x,), grad_fn)


def leaky_relu(x: ad.Tensor) -> ad.Tensor:
    xd = x.data
    out_data = np.where(xd > 0, xd, ad.LEAKY_SLOPE * xd)

    def grad_fn(gradient):
        ad._accumulate(x, gradient * np.where(xd > 0, 1.0, ad.LEAKY_SLOPE))

    return ad._make_node(out_data, (x,), grad_fn)


def batch_norm(x: ad.Tensor, scale_t: ad.Tensor, shift_t: ad.Tensor) -> ad.Tensor:
    """Normalize feature columns of ``[N, F]`` rows by their batch
    statistics, then apply scale and shift."""
    if x.data.ndim != 2:
        raise ad.ShapeError(f"batch_norm: expected 2-d input, got {x.data.shape}")
    n, f = x.data.shape
    if scale_t.data.shape != (f,) or shift_t.data.shape != (f,):
        raise ad.ShapeError(
            f"batch_norm: scale {scale_t.data.shape} / shift {shift_t.data.shape} do not match {f} features"
        )
    if n < 2:
        raise ad.ShapeError(f"batch_norm: needs at least 2 rows, got {n}")

    xhat = x.data.copy()
    _, var = ad.batch_stats(xhat)
    inv_std = 1.0 / np.sqrt(var + ad.BN_EPS)
    xhat *= inv_std
    out_data = xhat * scale_t.data + shift_t.data

    def grad_fn(gradient):
        if ad._needs_grad(scale_t):
            ad._accumulate(scale_t, np.einsum("nf,nf->f", gradient, xhat))
        if ad._needs_grad(shift_t):
            ad._accumulate(shift_t, gradient.sum(axis=0))
        if ad._needs_grad(x):
            gs = gradient * scale_t.data
            g_mean = gs.mean(axis=0)
            gx_mean = np.einsum("nf,nf->f", gs, xhat) / n
            gs -= g_mean
            gs -= xhat * gx_mean
            gs *= inv_std
            ad._accumulate(x, gs, fresh=True)

    return ad._make_node(out_data, (x, scale_t, shift_t), grad_fn)


def conv_valid(x: ad.Tensor, kernel: ad.Tensor, bias: ad.Tensor) -> ad.Tensor:
    """Valid (no padding, stride 1) cross-correlation on a 2-d or 3-d grid.

    ``x`` is ``[C_in, *spatial]``, ``kernel`` is ``[C_out, C_in, *k]``, and the
    output is ``[C_out, *(spatial - k + 1)]``. Internally the input windows are
    flattened so the whole convolution is one matrix product.
    """
    xd, kd = x.data, kernel.data
    nd = xd.ndim - 1
    if nd not in (2, 3):
        raise ad.ShapeError(f"conv_valid: expected [C, H, W] or [C, D, H, W] input, got {xd.shape}")
    if kd.ndim != nd + 2 or kd.shape[1] != xd.shape[0]:
        raise ad.ShapeError(f"conv_valid: kernel {kd.shape} does not match input {xd.shape}")
    c_out = kd.shape[0]
    ksize = kd.shape[2:]
    if any(k > s for s, k in zip(xd.shape[1:], ksize)):
        raise ad.ShapeError(f"conv_valid: kernel {ksize} larger than input extent {xd.shape[1:]}")
    if bias.data.shape != (c_out,):
        raise ad.ShapeError(f"conv_valid: bias {bias.data.shape} does not match {c_out} output channels")

    cols, out_spatial = ad.window_rows(xd[None], ksize)
    w2 = kd.reshape(c_out, -1)
    flat = cols @ w2.T + bias.data
    out_data = np.ascontiguousarray(flat.T).reshape((c_out,) + out_spatial)

    def grad_fn(gradient):
        gf = gradient.reshape(c_out, -1).T
        if ad._needs_grad(kernel):
            ad._accumulate(kernel, (gf.T @ cols).reshape(kd.shape))
        if ad._needs_grad(bias):
            ad._accumulate(bias, gf.sum(axis=0))
        if ad._needs_grad(x):
            ad._accumulate(x, ad._unwindow(gf @ w2, (1,) + xd.shape, ksize)[0])

    return ad._make_node(out_data, (x, kernel, bias), grad_fn)


def gmm_loss(transformed, target, sigma: float):
    """Negative log-likelihood of the targets' Gaussian mixture at the
    transformed source points, up to the constant mixture-weight term.

    ``transformed`` may be a tensor (differentiable path) or an array
    (returns a float). Evaluated with log-sum-exp, so small sigmas do not
    underflow.
    """
    sigma = float(sigma)
    if sigma <= 0:
        raise ValueError(f"gmm_loss: sigma must be positive, got {sigma}")
    tgt = np.asarray(target, dtype=None if isinstance(target, np.ndarray) else np.float64)
    x = transformed if isinstance(transformed, ad.Tensor) else ad.Tensor(np.asarray(transformed, dtype=np.float64))
    losses._check_sets(x.data, tgt, "gmm_loss")
    sq = pairwise_sqdist(x, tgt)
    lse = log_sum_exp(scale(sq, -0.5 / (sigma * sigma)), axis=1)
    loss = neg(tensor_sum(lse))
    if isinstance(transformed, ad.Tensor):
        return loss
    return float(loss.data)


def nearest_sqdists(a: np.ndarray, b: np.ndarray) -> tuple:
    """``losses._nearest_sqdists`` by summing the whole ``[|a|, |b|, dim]``
    array of squared differences over its last axis."""
    diff = a[:, None, :] - b[None, :, :]
    d = np.sum(diff * diff, axis=2)
    return d.min(axis=1), d.min(axis=0)


def running_pool(sets, grid, layers) -> np.ndarray:
    """``pooled_mlp_forward(sets, grid, layers, batch=False).out`` by the
    pool's earlier route: per block, the last layer's folded pre-activation
    ``Wᵀ xᵀ + b`` as ``[width, grid points, set points]`` (for one layer,
    layer 0's outer sum in that layout), the first maximal point of each
    row by ``argmax``, its value gathered, then the leaky ReLU. The layers
    below the last run as ``BlockedMlp`` runs them."""
    mlp = ad.BlockedMlp(sets, grid, layers)
    for layer in layers:
        mlp.fold(layer.bn_mean.astype(np.float64), layer.bn_var.astype(np.float64))
    top = len(layers) - 1
    w, b = mlp.folded[top]
    dim = mlp.grid.shape[1]
    pooled = []
    for block in mlp.blocks:
        s, _, g0, g1 = block
        if top:
            z = w.T @ mlp.layer_input(block, top).T
            z += b[:, None]
            z = z.reshape(len(b), g1 - g0, -1)
        else:
            gpart = mlp.grid[g0:g1] @ w[:dim] + b
            z = gpart.T[:, :, None] + (mlp.points[s] @ w[dim:]).T[:, None, :]
        pick = np.argmax(z, axis=2)
        pooled.append(np.take_along_axis(z, pick[..., None], axis=2)[..., 0].T)
    y = np.concatenate(pooled)
    return np.maximum(y * ad.LEAKY_SLOPE, y)


def init_weights(config, seed: int):
    """``model.init_weights`` with each array drawn whole and then cast:
    ``rng.uniform(-limit, limit, size).astype(dtype)`` of the array's own
    stream, whose float64 draws are held whole until the cast."""
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

    return model._build_weights(config, array)
