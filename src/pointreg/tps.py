"""Thin-plate-spline warps driven by a small set of control points.

A warp is defined by fixed control points and a matching set of target
coordinates. Because the control points never move, the interpolation
solve can be folded into a basis matrix that depends only on the query
points; applying the warp is then a single matrix product, linear in the
targets. That keeps the warp cheap to differentiate: gradients flow through
one matmul instead of a linear solver.

The network's control points are config data
(``model.PrNetConfig.control_points``), its queries the source in the
network frame; the data generator warps shapes through drifted sample
points with the same basis.
"""

from __future__ import annotations

import numpy as np


class SingularSystemError(RuntimeError):
    """Raised when the interpolation system cannot be solved."""


def _kernel(r: np.ndarray, dim: int) -> np.ndarray:
    if dim == 2:
        # r^2 log r, continuously extended with 0 at r = 0.
        out = np.zeros_like(r)
        nz = r > 0
        out[nz] = r[nz] * r[nz] * np.log(r[nz])
        return out
    return -r


def _radial_block(a: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    return _kernel(np.sqrt(np.sum(diff * diff, axis=2)), dim)


_REGULARIZATION = 1e-6  # added to the kernel diagonal of every interpolation system


def tps_basis(controls, queries) -> np.ndarray:
    """Weight matrix ``B`` with ``warp(queries) = B @ theta`` for the ``[K,
    dim]`` control points ``controls``.

    Row q holds the K weights that mix the target coordinates when the warp
    is evaluated at query q. ``_REGULARIZATION`` is added to the kernel
    diagonal; it smooths interpolation but leaves affine maps (identity,
    translation) exact, since those need no kernel term at all.
    """
    c = np.asarray(controls, dtype=np.float64)
    k, d = c.shape
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != d:
        raise ValueError(f"tps_basis: queries {q.shape} do not match control dim {d}")
    if not np.all(np.isfinite(q)):
        raise ValueError("tps_basis: queries must be finite")

    kk = _radial_block(c, c, d) + _REGULARIZATION * np.eye(k)
    p = np.hstack([np.ones((k, 1)), c])
    system = np.zeros((k + d + 1, k + d + 1))
    system[:k, :k] = kk
    system[:k, k:] = p
    system[k:, :k] = p.T

    rows = np.hstack([_radial_block(q, c, d), np.ones((q.shape[0], 1)), q])
    try:
        # system is symmetric, so solving against its transpose is free.
        full = np.linalg.solve(system, rows.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"tps_basis: singular interpolation system ({exc})") from exc
    if not np.all(np.isfinite(full)):
        raise SingularSystemError("tps_basis: interpolation solve produced non-finite weights")
    return np.ascontiguousarray(full[:, :k])

