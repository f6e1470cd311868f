"""Reference routes the fused ops and the training loss are tested against.

Each is a plain autodiff op built from ``pointreg.autodiff``'s graph
helpers: a leaky ReLU, a batch norm by batch statistics, a per-element
valid convolution, a 2-d transpose, and the one-directional GMM loss; and
the nearest-neighbour distances of Chamfer as one summed difference array,
the descriptor MLP's running-statistics pool by ``argmax``; and the
initial weights drawn whole. The package runs only the fused forms
(``dense_bn_act``, ``conv_bn_act_batch``, ``pooled_mlp``), the symmetric
loss, the pool by ``np.max`` and weights drawn chunk by chunk, so these
routes live here, with the arithmetic the tests compare against.
"""

import numpy as np

from pointreg import autodiff as ad
from pointreg import losses
from pointreg import model


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
    sq = ad.pairwise_sqdist(x, tgt)
    lse = ad.log_sum_exp(ad.scale(sq, -0.5 / (sigma * sigma)), axis=1)
    loss = ad.neg(ad.tensor_sum(lse))
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
