"""Batch registration of test pairs: per-pair results, Chamfer statistics,
timing, CSV reports, and SVG overlay plots.

All Chamfer numbers reported here use the normalized statistic (total
squared nearest-neighbor distance divided by the combined point count), the
designated per-pair metric of this package. Statistics are population
mean/std over the evaluated pairs.
"""

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import losses, model
from .datagen import Dataset, load_pairs

REPORT_VERSION = "pointreg-report-v1"
REPORT_HEADER = (
    "dataset_id",
    "pair_count",
    "cd_pre_mean",
    "cd_pre_std",
    "cd_post_mean",
    "cd_post_std",
    "model_time_s",
    "total_time_s",
)


@dataclass
class RegistrationResult:
    """One registered pair.

    ``transformed`` is the warped source in the original coordinate frame,
    in canonical point order. ``theta`` holds the float64 control-point
    targets in the network's normalized frame, the ones that warp applied.
    ``elapsed`` covers the model forward pass only, not metric computation.
    """

    transformed: np.ndarray
    theta: np.ndarray
    cd_pre: float
    cd_post: float
    elapsed: float


@dataclass
class EvaluationSummary:
    dataset_id: str
    pair_count: int
    cd_pre_mean: float
    cd_pre_std: float
    cd_post_mean: float
    cd_post_std: float
    model_time_s: float
    total_time_s: float
    results: list = field(repr=False, default_factory=list)


def register(weights, source, target) -> RegistrationResult:
    """Register one pair: ``evaluate`` of that one pair.

    Inputs are not modified and neither are the weights (evaluation-mode
    batch norm reads, never updates, the running statistics).
    """
    return evaluate(weights, [(source, target)]).results[0]


def evaluate(weights, data) -> EvaluationSummary:
    """Register every pair of ``data`` and aggregate Chamfer statistics.

    ``data`` is a Dataset, a dataset directory, or a list of (source,
    target) array pairs, all registered by one
    ``model.forward_shared_source``, which checks every pair and maps each
    into its source's network frame and back. Results and Chamfer numbers
    are in the pairs' own coordinates. A result equals registering the pair
    alone up to rounding: the head's matrix products take a chunk's pairs in
    blocks of ``model.HEAD_BLOCK``, or all of them in a shorter chunk, and
    BLAS picks its kernel, and so the last bits, by their row count. The
    number of worker threads changes no bit. ``model_time_s`` excludes
    dataset loading and metric computation, and each pair's ``elapsed`` is
    an equal share of it.
    """
    t0 = time.perf_counter()
    pairs, dataset_id = load_pairs(data) if isinstance(data, (Dataset, str, Path)) else (list(data), "pairs")

    start = time.perf_counter()
    thetas, transformed = model.forward_shared_source(pairs, weights)
    model_time = time.perf_counter() - start

    results = [
        RegistrationResult(
            transformed=out,
            theta=theta,
            cd_pre=losses.chamfer_normalized(src, tgt),
            cd_post=losses.chamfer_normalized(out, tgt),
            elapsed=model_time / len(pairs),
        )
        for (src, tgt), out, theta in zip(pairs, transformed, thetas)
    ]
    pre = np.array([r.cd_pre for r in results])
    post = np.array([r.cd_post for r in results])
    return EvaluationSummary(
        dataset_id=dataset_id,
        pair_count=len(results),
        cd_pre_mean=float(pre.mean()),
        cd_pre_std=float(pre.std()),
        cd_post_mean=float(post.mean()),
        cd_post_std=float(post.std()),
        model_time_s=model_time,
        total_time_s=time.perf_counter() - t0,
        results=results,
    )


def write_report_csv(summary: EvaluationSummary, path) -> None:
    """The evaluated dataset's row under the fixed schema. The leading
    comment line names the format version and the Chamfer convention."""
    cols = [summary.dataset_id, str(summary.pair_count)]
    cols += [repr(float(v)) for v in (
        summary.cd_pre_mean, summary.cd_pre_std, summary.cd_post_mean, summary.cd_post_std,
        summary.model_time_s, summary.total_time_s,
    )]
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# {REPORT_VERSION}: cd columns are chamfer distance "
                "normalized by (N+M); std is population std\n")
        f.write(",".join(REPORT_HEADER) + "\n")
        f.write(",".join(cols) + "\n")


# ---------------------------------------------------------------------------
# SVG overlays

_STYLES = (
    ("source", "#3366cc"),
    ("target", "#cc3333"),
    ("transformed", "#22aa55"),
)

_PANEL = 360
_MARGIN = 28


def _panel_circles(points, bounds, color, offset_x):
    lo, hi = bounds
    span = max(hi - lo, 1e-12)
    inner = _PANEL - 2 * _MARGIN
    out = []
    for p in points:
        cx = offset_x + _MARGIN + (p[0] - lo) / span * inner
        cy = _PANEL - _MARGIN - (p[1] - lo) / span * inner
        out.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="2.5" fill="{color}" fill-opacity="0.75"/>')
    return out


def emit_overlay_svg(source, target, transformed, path) -> None:
    """Write a scatter overlay of the three point sets.

    2D data gets one panel; 3D data gets three axis-aligned projections
    (xy, xz, yz). The annotation reports the same normalized Chamfer values
    ``evaluate`` would, computed by the same function.
    """
    sets = [np.asarray(p, dtype=np.float64) for p in (source, target, transformed)]
    dim = sets[0].shape[1]
    if dim not in (2, 3) or any(p.ndim != 2 or p.shape[1] != dim for p in sets):
        raise ValueError("emit_overlay_svg: need three point sets of matching 2D/3D shape")
    cd_pre = losses.chamfer_normalized(sets[0], sets[1])
    cd_post = losses.chamfer_normalized(sets[2], sets[1])

    projections = [(0, 1)] if dim == 2 else [(0, 1), (0, 2), (1, 2)]
    all_pts = np.vstack(sets)
    bounds = (float(all_pts.min()), float(all_pts.max()))

    width = _PANEL * len(projections)
    height = _PANEL + 58
    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    axis_names = "xyz"
    for panel, (ax, ay) in enumerate(projections):
        off = panel * _PANEL
        body.append(f'<rect x="{off + _MARGIN}" y="{_MARGIN}" '
                    f'width="{_PANEL - 2 * _MARGIN}" height="{_PANEL - 2 * _MARGIN}" '
                    'fill="none" stroke="#cccccc"/>')
        if dim == 3:
            body.append(f'<text x="{off + _MARGIN}" y="{_MARGIN - 8}" '
                        f'font-size="13">{axis_names[ax]}{axis_names[ay]}</text>')
        for pts, (_, color) in zip(sets, _STYLES):
            body.extend(_panel_circles(pts[:, [ax, ay]], bounds, color, off))

    legend_y = _PANEL + 18
    for i, (label, color) in enumerate(_STYLES):
        x = _MARGIN + i * 120
        body.append(f'<circle cx="{x}" cy="{legend_y - 4}" r="4" fill="{color}"/>')
        body.append(f'<text x="{x + 10}" y="{legend_y}" font-size="13">{label}</text>')
    body.append(
        f'<text x="{_MARGIN}" y="{legend_y + 24}" font-size="13">'
        f'cd_pre={float(cd_pre)!r} cd_post={float(cd_post)!r}</text>'
    )
    body.append("</svg>")
    Path(path).write_text("\n".join(body) + "\n", encoding="utf-8")
