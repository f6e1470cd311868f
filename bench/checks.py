"""Output checks computed apart from the program.

Each check returns a list of problems, empty when the output passes. The
references are written here from the method's definition, not taken from
``pointreg``: Chamfer distance in float64, the similarity normalization,
the canonical point order, and a thin-plate spline whose kernel and affine
coefficients are solved from the predicted control-point targets ``theta``.
No check compares against a stored copy of earlier output.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

# The method's TPS: the 3x3 control lattice over {-1, 0, 1}^2 in
# lexicographic order (the row order of theta), kernel r^2 log r, and a
# 1e-6 ridge on the kernel diagonal.
CONTROL = np.array(list(product((-1.0, 0.0, 1.0), repeat=2)))
TPS_RIDGE = 1e-6
# the network frame puts the largest centred coordinate at this magnitude
NORMALIZED_EXTENT = 0.9

# Rounding allowances. Theta passes through float32 inside the network, so
# warps agree to about 1e-7 of the set's extent; Chamfer sums are float64.
WARP_RTOL = 1e-5
CD_RTOL = 1e-9
THETA_ATOL = 1e-5
# a warp whose control targets all sit closer than this to the lattice is
# taken for the identity
MIN_THETA_OFFSET = 1e-3


def chamfer(a, b) -> float:
    """Squared nearest-neighbour distances summed both ways, divided by the
    total point count."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ab = min_sqdist(a, b)
    ba = min_sqdist(b, a)
    return (math.fsum(ab) + math.fsum(ba)) / (len(a) + len(b))


def min_sqdist(a, b) -> np.ndarray:
    """For each row of ``a``, the squared distance to its nearest row of ``b``."""
    out = np.empty(len(a))
    for i, p in enumerate(a):
        d = b - p
        out[i] = np.min(np.einsum("ij,ij->i", d, d))
    return out


def _tps_kernel(r):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(r > 0, r * r * np.log(r), 0.0)


def tps_warp(theta, points) -> np.ndarray:
    """The spline through the control lattice that sends control point k
    to ``theta[k]``, evaluated at ``points`` (network frame)."""
    theta = np.asarray(theta, dtype=np.float64)
    pts = np.asarray(points, dtype=np.float64)
    k = len(CONTROL)
    r_cc = np.linalg.norm(CONTROL[:, None, :] - CONTROL[None, :, :], axis=2)
    affine = np.hstack([np.ones((k, 1)), CONTROL])
    system = np.zeros((k + 3, k + 3))
    system[:k, :k] = _tps_kernel(r_cc) + TPS_RIDGE * np.eye(k)
    system[:k, k:] = affine
    system[k:, :k] = affine.T
    rhs = np.vstack([theta, np.zeros((3, 2))])
    coef = np.linalg.solve(system, rhs)
    w, a = coef[:k], coef[k:]
    r_pc = np.linalg.norm(pts[:, None, :] - CONTROL[None, :, :], axis=2)
    return _tps_kernel(r_pc) @ w + a[0] + pts @ a[1:]


def normalization(source):
    """``(center, scale)`` taking a set into the network frame."""
    src = np.asarray(source, dtype=np.float64)
    center = src.mean(axis=0)
    spread = np.abs(src - center).max()
    return center, (NORMALIZED_EXTENT / spread if spread > 0 else 1.0)


def expected_transformed(source, theta) -> np.ndarray:
    """The registered source in its original frame: normalize (centroid to
    the origin, largest coordinate to 0.9), sort lexicographically, warp
    by ``theta``, and map back."""
    src = np.asarray(source, dtype=np.float64)
    center, scale = normalization(src)
    normalized = (src - center) * scale
    ordered = normalized[np.lexsort(normalized.T[::-1])]
    return tps_warp(theta, ordered) / scale + center


def check_warp(label, source, theta, transformed) -> list:
    """``transformed`` is the TPS warp by ``theta`` of the normalized source,
    back in the original frame, and that warp is not the identity."""
    src = np.asarray(source, dtype=np.float64)
    got = np.asarray(transformed, dtype=np.float64)
    want = expected_transformed(src, theta)
    if got.shape != want.shape:
        return [f"{label}: transformed has shape {got.shape}, expected {want.shape}"]
    extent = NORMALIZED_EXTENT / normalization(src)[1]
    err = np.abs(got - want).max()
    problems = []
    if not err <= WARP_RTOL * extent:
        problems.append(f"{label}: transformed is {err:.3g} from the reference warp "
                        f"(allowed {WARP_RTOL * extent:.3g})")
    if not np.abs(np.asarray(theta) - CONTROL).max() > MIN_THETA_OFFSET:
        problems.append(f"{label}: theta is the identity lattice; the weights do not warp")
    return problems


def check_chamfer(label, source, target, transformed, cd_pre, cd_post) -> list:
    """``cd_pre`` and ``cd_post`` are the float64 Chamfer of (source, target)
    and (transformed, target)."""
    problems = []
    for name, value, want in (("cd_pre", cd_pre, chamfer(source, target)),
                              ("cd_post", cd_post, chamfer(transformed, target))):
        if not abs(value - want) <= CD_RTOL * want:
            problems.append(f"{label}: {name}={value!r}, reference {want!r}")
    return problems


def check_same_registration(label, got, want) -> list:
    """Two registrations of one pair agree to rounding: ``got`` and ``want``
    are (transformed, theta, cd_post) triples."""
    (t1, th1, cd1), (t2, th2, cd2) = got, want
    t1, t2 = np.asarray(t1, dtype=np.float64), np.asarray(t2, dtype=np.float64)
    if t1.shape != t2.shape:
        return [f"{label}: transformed shapes differ, {t1.shape} vs {t2.shape}"]
    problems = []
    extent = max(np.abs(t2 - t2.mean(axis=0)).max(), 1e-12)
    if not np.abs(t1 - t2).max() <= WARP_RTOL * extent:
        problems.append(f"{label}: transformed points differ by {np.abs(t1 - t2).max():.3g}")
    if not np.abs(np.asarray(th1) - np.asarray(th2)).max() <= THETA_ATOL:
        problems.append(f"{label}: theta differs by {np.abs(np.asarray(th1) - np.asarray(th2)).max():.3g}")
    if not abs(cd1 - cd2) <= 1e-6 * abs(cd2):
        problems.append(f"{label}: cd_post {cd1!r} vs {cd2!r}")
    return problems


def check_training(history, step_count, batches_run, val_cd, identity_cd) -> list:
    """Every epoch's loss is finite, Adam stepped once per batch, and the
    held-out Chamfer beats the identity warp's."""
    problems = [f"epoch {s.epoch}: train_loss {s.train_loss!r} is not finite"
                for s in history if not math.isfinite(s.train_loss)]
    if step_count != batches_run:
        problems.append(f"Adam step count {step_count} != {batches_run} batches run")
    if not val_cd < identity_cd:
        problems.append(f"val_cd {val_cd!r} is no better than the identity warp's {identity_cd!r}")
    return problems


def check_same_arrays(label, got: dict, want: dict) -> list:
    """Two name -> array maps hold the same names, dtypes and bits."""
    if sorted(got) != sorted(want):
        return [f"{label}: array names differ"]
    return [f"{label}: array {k} differs" for k in sorted(want)
            if got[k].dtype != want[k].dtype or got[k].shape != want[k].shape
            or got[k].tobytes() != want[k].tobytes()]
