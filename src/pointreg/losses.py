"""Alignment objectives: Chamfer distance and a GMM log-likelihood loss.

Chamfer distance is the evaluation metric; it needs no gradients and works
on plain arrays. The symmetric GMM loss drives training: it takes a tensor
of transformed points and records one autodiff node. Sigma follows a
deterministic annealing schedule indexed by the optimizer step.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad


def _check_sets(a: np.ndarray, b: np.ndarray, op: str) -> None:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"{op}: incompatible point sets {a.shape} and {b.shape}")
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError(f"{op}: point sets must be nonempty")


def _nearest_sqdists(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each point's squared distance to its nearest neighbour in the other
    set, ``(for a, for b)``, from ``autodiff.sqdists``."""
    d = ad.sqdists(a, b)
    return d.min(axis=1), d.min(axis=0)


def chamfer(a, b) -> float:
    """Symmetric sum of squared nearest-neighbor distances."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_sets(a, b, "chamfer")
    ab, ba = _nearest_sqdists(a, b)
    return float(np.sum(ab) + np.sum(ba))


def chamfer_normalized(a, b) -> float:
    """Chamfer distance divided by the total point count of both sets.

    This is the per-pair statistic used for comparisons across sets of
    different sizes.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_sets(a, b, "chamfer")
    return chamfer(a, b) / (a.shape[0] + b.shape[0])


def gmm_loss_symmetric(transformed: ad.Tensor, target, sigma: float) -> ad.Tensor:
    """Negative log-likelihood, in both directions, of two Gaussian
    mixtures of bandwidth ``sigma``, up to the constant mixture-weight
    terms: the transformed points scored under the target-centered mixture,
    plus the target points scored under the mixture centered at the
    transformed points. Evaluated with log-sum-exp, so small sigmas do not
    underflow.

    The one-sided form has a degenerate optimum on curve-like shapes once
    sigma is comparable to the point spacing: contracting every prediction
    onto the densest arc of the target raises the likelihood while leaving
    most of the target uncovered. The reverse term charges for each
    uncovered target, which removes that optimum, so this is the loss the
    trainer minimizes. Both directions share one distance matrix; the
    scalar tensor returned is one ``autodiff.gmm_symmetric`` node over
    ``transformed``.
    """
    sigma = float(sigma)
    if sigma <= 0:
        raise ValueError(f"gmm_loss_symmetric: sigma must be positive, got {sigma}")
    tgt = np.asarray(target, dtype=None if isinstance(target, np.ndarray) else np.float64)
    _check_sets(transformed.data, tgt, "gmm_loss_symmetric")
    return ad.gmm_symmetric(transformed, tgt, -0.5 / (sigma * sigma))


def sigma_at(step: int, initial: float, floor: float) -> float:
    """Sigma for annealing step ``step`` (1-based): max(initial/sqrt(step),
    floor). Start wide, sharpen, stop at the floor.

    The trainer indexes this by the global optimizer step, which reaches the
    floor within the first hundred steps and gives the coarse-to-fine
    progression its brief coarse phase.
    """
    if step < 1:
        raise ValueError(f"sigma_at: step must be >= 1, got {step}")
    return max(initial / np.sqrt(float(step)), floor)
