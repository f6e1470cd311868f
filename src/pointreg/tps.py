"""Thin-plate-spline warps driven by a small set of control points.

A warp is defined by a fixed base grid of control points and a matching set
of target coordinates. Because the base grid never moves, the interpolation
solve can be folded into a basis matrix that depends only on the query
points; applying the warp is then a single matrix product, linear in the
targets. That keeps the warp cheap to differentiate: gradients flow through
one matmul instead of a linear solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import autodiff as ad


class SingularSystemError(RuntimeError):
    """Raised when the interpolation system cannot be solved."""


@dataclass(frozen=True)
class ControlGrid:
    """A set of TPS control points.

    ``make_control_grid`` builds the standard lattice (every combination of
    {-1, 0, 1} per axis); arbitrary control sets are equally valid, which the
    data generator uses to warp shapes through drifted sample points.
    """

    dim: int
    points: np.ndarray

    @property
    def count(self) -> int:
        return self.points.shape[0]


def make_control_grid(dim: int) -> ControlGrid:
    """Build the 3x3 (2D) or 3x3x3 (3D) control lattice in lexicographic order."""
    if dim not in (2, 3):
        raise ValueError(f"make_control_grid: dim must be 2 or 3, got {dim}")
    pts = np.array(list(product((-1.0, 0.0, 1.0), repeat=dim)), dtype=np.float64)
    return ControlGrid(dim=dim, points=pts)


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


def tps_basis(grid: ControlGrid, queries, regularization: float = 1e-6) -> np.ndarray:
    """Weight matrix ``B`` with ``warp(queries) = B @ theta``.

    Row q holds the K weights that mix the target coordinates when the warp
    is evaluated at query q. The regularization is added to the kernel
    diagonal; it smooths interpolation but leaves affine maps (identity,
    translation) exact, since those need no kernel term at all.
    """
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != grid.dim:
        raise ValueError(f"tps_basis: queries {q.shape} do not match grid dim {grid.dim}")
    if not np.all(np.isfinite(q)):
        raise ValueError("tps_basis: queries must be finite")
    if regularization < 0:
        raise ValueError(f"tps_basis: regularization must be non-negative, got {regularization}")

    c = grid.points
    k = grid.count
    d = grid.dim
    kk = _radial_block(c, c, d) + regularization * np.eye(k)
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


@dataclass
class TpsWarp:
    """A concrete warp: base grid plus predicted target coordinates.

    ``theta`` may be a plain ``[K, dim]`` array or an autodiff tensor; with a
    tensor, applying the warp stays differentiable w.r.t. theta.
    """

    grid: ControlGrid
    theta: object
    regularization: float = 1e-6

    def __post_init__(self):
        shape = self.theta.data.shape if isinstance(self.theta, ad.Tensor) else np.shape(self.theta)
        expected = (self.grid.count, self.grid.dim)
        if tuple(shape) != expected:
            raise ValueError(f"TpsWarp: theta shape {tuple(shape)} != {expected}")


def apply_warp(warp: TpsWarp, points):
    """Evaluate the warp at ``points`` ([N, dim]).

    Returns an array for array theta, or a tensor for tensor theta.
    """
    pts = np.asarray(points, dtype=np.float64) if not isinstance(points, np.ndarray) else points
    if pts.ndim != 2 or pts.shape[1] != warp.grid.dim:
        raise ValueError(f"apply_warp: points {pts.shape} do not match warp dim {warp.grid.dim}")
    basis = tps_basis(warp.grid, pts, warp.regularization)
    if isinstance(warp.theta, ad.Tensor):
        return ad.matmul(ad.Tensor(basis.astype(warp.theta.data.dtype)), warp.theta)
    return basis @ np.asarray(warp.theta, dtype=np.float64)
