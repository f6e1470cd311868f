"""Synthetic registration pairs.

A dataset is a directory of plain-text point files plus a key=value
manifest: one normalized source shape and, per pair, a target produced by a
random thin-plate-spline deformation at a controlled level, optionally
degraded with point-drift jitter, outlier insertion, or point removal. Every
pair has its own RNG stream derived from (seed, pair index), so generation
order and parallelism cannot change the output.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tps
from .model import fit_normalizer


class PointFileError(ValueError):
    """Raised for unparseable point files; the message carries file:line."""


class DatasetError(RuntimeError):
    """Raised when a dataset directory is missing, incomplete, or invalid."""


_NOISE_KINDS = ("none", "pd", "do", "di")
MAX_OUTLIERS_PER_POINT = 10  # bounds a do level, and so the target's size


@dataclass(frozen=True)
class SynthConfig:
    """Recipe for one synthetic dataset.

    ``deformation_level`` scales the deformation: the control-point drift
    std is ``level / 2``. Calibrated so the standard levels span mild (0.3)
    through breakdown (1.5) on unit-box shapes; see ``deform``. ``noise_kind``
    selects the degradation applied after deformation: ``pd`` jitters every
    point, ``do`` appends outliers, ``di`` removes points; ``noise_level`` is
    the jitter std for pd and the added/removed fraction for do/di. A do
    level is at most ``MAX_OUTLIERS_PER_POINT`` and a di level below 1.
    """

    deformation_level: float = 0.5
    num_deform_controls: int = 5
    noise_kind: str = "none"
    noise_level: float = 0.0
    seed: int = 0
    pair_count: int = 1

    def __post_init__(self):
        for name in ("deformation_level", "noise_level"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"SynthConfig: {name} must be finite, got {value}")
        if self.deformation_level < 0:
            raise ValueError(f"SynthConfig: deformation_level must be >= 0, got {self.deformation_level}")
        if self.num_deform_controls < 1:
            raise ValueError(f"SynthConfig: num_deform_controls must be positive, got {self.num_deform_controls}")
        if self.noise_kind not in _NOISE_KINDS:
            raise ValueError(f"SynthConfig: noise_kind must be one of {_NOISE_KINDS}, got {self.noise_kind!r}")
        if self.noise_level < 0:
            raise ValueError(f"SynthConfig: noise_level must be >= 0, got {self.noise_level}")
        if self.noise_kind == "di" and self.noise_level >= 1:
            raise ValueError(f"SynthConfig: di noise_level must be < 1, got {self.noise_level}")
        if self.noise_kind == "do" and self.noise_level > MAX_OUTLIERS_PER_POINT:
            raise ValueError(f"SynthConfig: do noise_level must be <= {MAX_OUTLIERS_PER_POINT}, "
                             f"got {self.noise_level}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"SynthConfig: seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.pair_count < 1:
            raise ValueError(f"SynthConfig: pair_count must be positive, got {self.pair_count}")


# ---------------------------------------------------------------------------
# point file format: one point per line, whitespace or comma separated,
# 2 or 3 columns, # comments; triangle-mesh text ("v x y z" vertices, faces
# and other structure lines) reduces to its vertices


_MESH_STRUCTURE = {"f", "l", "vn", "vt", "vp", "o", "g", "s", "usemtl", "mtllib"}

# largest coordinate magnitude a points file may hold: squared distances in
# 3D stay below 12 * 2**1000, and sums of a million of them stay finite
MAX_COORDINATE = 2.0 ** 500


# the bytes of plain numeric text, which ``_plain_points`` parses whole
_PLAIN_BYTES = b"0123456789+-.eE \t\n"


def _plain_points(data: bytes):
    """The points of a file of plain numeric text, or None for any other.

    Plain text holds only ``_PLAIN_BYTES``, and every line the same 2 or 3
    tokens, each a finite float no larger in magnitude than
    ``MAX_COORDINATE``. Each token goes through ``float`` as in the line
    parser, so what this returns is what that parser would; for any other
    text, and any failed check, it returns None and leaves the error and
    its line number to that parser.
    """
    if data.translate(None, _PLAIN_BYTES):
        return None
    text = data.decode("ascii")
    lines = text.splitlines()
    if {len(line.split()) for line in lines} not in ({2}, {3}):
        return None
    try:
        pts = np.array(list(map(float, text.split())), dtype=np.float64).reshape(len(lines), -1)
    except ValueError:
        return None
    if not np.isfinite(pts).all() or np.abs(pts).max() > MAX_COORDINATE:
        return None
    return pts


def load_points_file(path) -> np.ndarray:
    """The ``[N, 2]`` or ``[N, 3]`` float64 points of a file in the text
    format above. The file is read once: plain numeric text is parsed whole
    (``_plain_points``), and any other text line by line, which raises
    ``PointFileError`` with the file and line of the first fault."""
    with open(path, "rb") as f:
        data = f.read()
    plain = _plain_points(data)
    if plain is not None:
        return plain
    pts = []
    ncols = None
    # universal newlines, as a file opened in text mode reads them
    with io.StringIO(data.decode("utf-8"), newline=None) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.replace(",", " ").split()
            if tokens[:1] == ["v"]:
                tokens = tokens[1:]
            elif tokens and tokens[0] in _MESH_STRUCTURE:
                continue
            if len(tokens) not in (2, 3):
                raise PointFileError(
                    f"{path}:{lineno}: expected 2 or 3 coordinates, got {len(tokens)}"
                )
            try:
                row = [float(tok) for tok in tokens]
            except ValueError:
                raise PointFileError(f"{path}:{lineno}: non-numeric coordinate in {line!r}") from None
            if not all(map(math.isfinite, row)):
                raise PointFileError(f"{path}:{lineno}: non-finite coordinate in {line!r}")
            if max(map(abs, row)) > MAX_COORDINATE:
                raise PointFileError(f"{path}:{lineno}: coordinate beyond {MAX_COORDINATE:.3g} in {line!r}")
            if ncols is None:
                ncols = len(row)
            elif len(row) != ncols:
                raise PointFileError(
                    f"{path}:{lineno}: {len(row)} columns in a {ncols}-column file"
                )
            pts.append(row)
    if not pts:
        raise PointFileError(f"{path}: no points found")
    return np.array(pts, dtype=np.float64)


def save_points_file(path, points) -> None:
    """Write points in the text format; round-trips float64 bit-exactly."""
    pts = np.asarray(points, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as f:
        for row in pts:
            f.write(" ".join(repr(float(c)) for c in row))
            f.write("\n")


# ---------------------------------------------------------------------------
# shapes


def _fish_curve(count: int) -> np.ndarray:
    # closed parametric curve with a fin-like lobe; normalized so the
    # generator contract (inside the unit box) holds for any count
    t = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    x = np.cos(t) - np.sin(t) ** 2 / np.sqrt(2.0)
    y = np.cos(t) * np.sin(t)
    pts = np.stack([x, y], axis=1)
    return fit_normalizer(pts).apply(pts)


BUILTIN_SHAPES = ("fish",)


def sample_shape(name, target_count: int) -> np.ndarray:
    """A point set from a builtin shape name or a point/mesh file.

    Files larger than ``target_count`` are uniformly subsampled without
    replacement by a fixed seed, so a file always gives the same subset;
    smaller files are returned whole. The builtin shape is parametric and
    emits exactly ``target_count`` points.
    """
    if target_count < 1:
        raise ValueError(f"sample_shape: target_count must be positive, got {target_count}")
    if name in BUILTIN_SHAPES:
        return _fish_curve(target_count)
    pts = load_points_file(name)
    if pts.shape[0] <= target_count:
        return pts
    keep = np.sort(np.random.default_rng(0).choice(pts.shape[0], size=target_count, replace=False))
    return pts[keep]


# ---------------------------------------------------------------------------
# deformation and noise


def deform(points, level: float, k_controls: int, rng: np.random.Generator) -> np.ndarray:
    """Warp the whole set by a TPS through randomly chosen, randomly
    drifted control points.

    ``k_controls`` of the input points are picked without replacement and
    drifted by a zero-mean Gaussian with std ``level / 2``; the spline
    interpolating those drifts is applied to every point. The scale is
    calibrated on unit-box shapes: at level 0.5 a registration head driven
    by the standard 3x3 control lattice retains enough capacity to track the
    warp (best-case normalized chamfer on the order of 1e-3), while 1.5
    produces the breakdown regime.

    Near-collinear control draws make the spline system ill-conditioned and
    the warp can blow up far from the controls, so draws whose maximum
    displacement exceeds six drift stds are discarded and redrawn (from the
    same stream, keeping the output a deterministic function of ``rng``).
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] not in (2, 3):
        raise ValueError(f"deform: need an [N, 2|3] point set, got {pts.shape}")
    if level < 0:
        raise ValueError(f"deform: level must be >= 0, got {level}")
    if k_controls < 1 or k_controls > pts.shape[0]:
        raise ValueError(
            f"deform: cannot pick {k_controls} control points from {pts.shape[0]} points"
        )
    std = 0.5 * level
    for _ in range(200):
        idx = rng.choice(pts.shape[0], size=k_controls, replace=False)
        controls = pts[idx]
        drift = rng.normal(0.0, std, size=controls.shape)
        try:
            basis = tps.tps_basis(controls, pts)
        except tps.SingularSystemError:
            continue
        # a level near the float range overflows here; generate_dataset
        # rejects the non-finite target that results
        with np.errstate(over="ignore", invalid="ignore"):
            warped = basis @ (controls + drift)
        if np.abs(warped - pts).max() <= 6.0 * std + 1e-9:
            return warped
    raise DatasetError(
        f"deform: no acceptable draw in 200 attempts (level {level}, "
        f"{k_controls} controls on {pts.shape[0]} points)"
    )


def add_pd_noise(points, level: float, rng: np.random.Generator) -> np.ndarray:
    """Jitter every point with a zero-mean Gaussian of std ``level``."""
    pts = np.asarray(points, dtype=np.float64)
    if level < 0:
        raise ValueError(f"add_pd_noise: level must be >= 0, got {level}")
    return pts + rng.normal(0.0, level, size=pts.shape)


def add_do_noise(points, level: float, rng: np.random.Generator) -> np.ndarray:
    """Append ``round(level * N)`` Gaussian outliers (std 1.0, normalized
    coordinates); the originals stay verbatim as a prefix."""
    pts = np.asarray(points, dtype=np.float64)
    if level < 0:
        raise ValueError(f"add_do_noise: level must be >= 0, got {level}")
    extra = int(round(level * pts.shape[0]))
    if extra == 0:
        return pts.copy()
    outliers = rng.normal(0.0, 1.0, size=(extra, pts.shape[1]))
    return np.concatenate([pts, outliers], axis=0)


def add_di_noise(points, level: float, rng: np.random.Generator) -> np.ndarray:
    """Remove ``round(level * N)`` points uniformly without replacement,
    preserving the survivors' relative order."""
    pts = np.asarray(points, dtype=np.float64)
    if not 0 <= level < 1:
        raise ValueError(f"add_di_noise: level must be in [0, 1), got {level}")
    drop = int(round(level * pts.shape[0]))
    if drop == 0:
        return pts.copy()
    keep = np.sort(rng.choice(pts.shape[0], size=pts.shape[0] - drop, replace=False))
    return pts[keep]


_NOISE_OPS = {"pd": add_pd_noise, "do": add_do_noise, "di": add_di_noise}


def make_target(source: np.ndarray, cfg: SynthConfig, pair_index: int) -> np.ndarray:
    """The target of pair ``pair_index``: deformed, then noised.

    Each pair draws from ``default_rng([seed, pair_index])``, so any pair can
    be regenerated alone and generation order is irrelevant.
    """
    rng = np.random.default_rng([int(cfg.seed), int(pair_index)])
    target = deform(source, cfg.deformation_level, cfg.num_deform_controls, rng)
    if cfg.noise_kind != "none":
        target = _NOISE_OPS[cfg.noise_kind](target, cfg.noise_level, rng)
    return target


# ---------------------------------------------------------------------------
# dataset persistence


_MANIFEST_NAME = "manifest"
_DATASET_FORMAT = "pointreg-dataset-v1"


@dataclass(frozen=True)
class Dataset:
    """A generated dataset on disk: directory plus parsed manifest."""

    directory: Path
    manifest: dict

    @property
    def pair_count(self) -> int:
        return int(self.manifest["pair_count"])

    @property
    def dim(self) -> int:
        return int(self.manifest["dim"])

    def pair_paths(self, index: int) -> tuple:
        return (
            self.directory / f"pair_{index:06d}_src",
            self.directory / f"pair_{index:06d}_tgt",
        )

    def load_pair(self, index: int) -> tuple:
        if not 0 <= index < self.pair_count:
            raise IndexError(f"pair {index} out of range for {self.pair_count} pairs")
        src_path, tgt_path = self.pair_paths(index)
        return load_points_file(src_path), load_points_file(tgt_path)


def _manifest_lines(entries: dict) -> str:
    return "".join(f"{k}={v}\n" for k, v in entries.items())


def read_key_values(path) -> dict:
    """The ``key=value`` lines of a dataset manifest or config file as a
    dict of strings; blank lines and ``#`` comments are skipped."""
    entries = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DatasetError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            entries[key.strip()] = value.strip()
    return entries


def generate_dataset(base_shape, cfg: SynthConfig, out_dir, shape_name: str = "custom") -> Dataset:
    """Write ``cfg.pair_count`` pairs plus a manifest under ``out_dir``.

    The source of every pair is the base shape normalized into the network
    frame (zero centroid, max coordinate magnitude 0.9); targets live in the
    same frame. Identical config and seed reproduce the directory
    byte-for-byte.
    """
    base = np.asarray(base_shape, dtype=np.float64)
    if base.ndim != 2 or base.shape[0] == 0 or base.shape[1] not in (2, 3):
        raise ValueError(f"generate_dataset: need a nonempty [N, 2|3] base shape, got {base.shape}")
    source = fit_normalizer(base).apply(base)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = {
        "format": _DATASET_FORMAT,
        "shape": shape_name,
        "point_count": source.shape[0],
        "dim": source.shape[1],
        "deformation_level": repr(float(cfg.deformation_level)),
        "num_deform_controls": cfg.num_deform_controls,
        "noise_kind": cfg.noise_kind,
        "noise_level": repr(float(cfg.noise_level)),
        "seed": cfg.seed,
        "pair_count": cfg.pair_count,
    }
    for i in range(cfg.pair_count):
        target = make_target(source, cfg, i)
        if not np.isfinite(target).all():
            raise ValueError(
                f"generate_dataset: pair {i} target has a non-finite coordinate: deformation "
                f"level {cfg.deformation_level} or noise level {cfg.noise_level} is beyond the float range"
            )
        save_points_file(out / f"pair_{i:06d}_src", source)
        save_points_file(out / f"pair_{i:06d}_tgt", target)
    with open(out / _MANIFEST_NAME, "w", encoding="utf-8") as f:
        f.write(_manifest_lines(entries))
    return Dataset(directory=out, manifest={k: str(v) for k, v in entries.items()})


def load_dataset(directory) -> Dataset:
    """Open an existing dataset, checking the manifest and record files."""
    d = Path(directory)
    mpath = d / _MANIFEST_NAME
    if not mpath.is_file():
        raise DatasetError(f"{d}: no {_MANIFEST_NAME} file, not a dataset directory")
    manifest = read_key_values(mpath)
    if manifest.get("format") != _DATASET_FORMAT:
        raise DatasetError(f"{mpath}: unsupported format {manifest.get('format')!r}")
    for key, ok, want in (("pair_count", lambda n: n >= 1, "an integer >= 1"),
                          ("dim", lambda n: n in (2, 3), "2 or 3")):
        if key not in manifest:
            raise DatasetError(f"{mpath}: missing required key {key}")
        if not (manifest[key].isdecimal() and ok(int(manifest[key]))):
            raise DatasetError(f"{mpath}: {key} must be {want}, got {manifest[key]!r}")
    ds = Dataset(directory=d, manifest=manifest)
    for i in range(ds.pair_count):
        for path in ds.pair_paths(i):
            if not path.is_file():
                raise DatasetError(f"{d}: manifest promises {ds.pair_count} pairs but {path.name} is missing")
    return ds


def load_pairs(data) -> tuple:
    """``(pairs, name)``: every ``(source, target)`` pair of a Dataset or
    dataset directory, in index order, and the directory's name."""
    ds = data if isinstance(data, Dataset) else load_dataset(data)
    return [ds.load_pair(i) for i in range(ds.pair_count)], ds.directory.name
