"""Shared helpers for the test suite."""

import numpy as np

from pointreg import autodiff as ad
from pointreg import model, trainer


def finite_difference_grads(build, tensors, h=1e-6):
    """Central-difference gradients of the scalar ``build()`` w.r.t. each tensor.

    ``build`` must reconstruct the graph from the tensors' current data on
    every call. Perturbations run in float64, so the tensors handed in should
    be float64 too.
    """
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            plus = float(build().data)
            flat[i] = saved - h
            minus = float(build().data)
            flat[i] = saved
            gflat[i] = (plus - minus) / (2.0 * h)
        grads.append(g)
    return grads


def assert_grads_match(build, tensors, h=1e-6, rtol=1e-4, atol=1e-7):
    """Backpropagate through ``build()`` and compare against finite differences."""
    ad.zero_grads(tensors)
    loss = build()
    loss.backward()
    analytic = [t.grad.copy() for t in tensors]
    numeric = finite_difference_grads(build, tensors, h=h)
    for a, n in zip(analytic, numeric):
        np.testing.assert_allclose(a, n, rtol=rtol, atol=atol)


def small_identity_checkpoint(path):
    """A small identity-warp model with zeroed Adam moments, saved the way
    ``pointreg train`` saves one; returns ``path``."""
    cfg = model.PrNetConfig(
        grid_shape=(7, 7), mlp_widths=(8, 16, 32),
        conv_channels=(16, 24, 32), conv_kernels=(3, 3, 3), fc_hidden=24,
    )
    weights = model.init_weights(cfg, seed=1)
    state = ad.init_adam(weights.params(), 1e-4, 0.995)
    trainer.save_checkpoint(weights, state, 0, path)
    return path
