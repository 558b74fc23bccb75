"""Point clouds, unit-cube normalization, noise injection, and CSV I/O."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import make_rng

__all__ = [
    "CloudFormatError",
    "NormalizationRecord",
    "PointCloud",
    "add_gaussian_noise",
    "load_cloud",
    "normalize_to_unit_cube",
    "save_cloud",
]

# Normalized clouds may stray slightly outside [0,1] after noise injection.
CUBE_SLACK = 0.05


class CloudFormatError(ValueError):
    """Raised when a cloud file cannot be parsed."""


@dataclass(frozen=True)
class NormalizationRecord:
    """Per-axis affine map taking raw coordinates into [0, 1]."""

    scale: np.ndarray
    offset: np.ndarray

    def __post_init__(self) -> None:
        for name in ("scale", "offset"):
            v = np.array(getattr(self, name), dtype=float)
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    def apply(self, points: np.ndarray) -> np.ndarray:
        return points * self.scale + self.offset

    def invert(self, points: np.ndarray) -> np.ndarray:
        return (points - self.offset) / self.scale


@dataclass(frozen=True)
class PointCloud:
    """m points in R^n, with an optional record of how they were normalized.

    Points with a NaN or infinite coordinate are refused (ValueError naming
    the first such row).
    """

    points: np.ndarray
    normalization: NormalizationRecord | None = None

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"points must be a 2-d array, got ndim={pts.ndim}")
        bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
        if bad.size:
            raise ValueError(
                f"point {bad[0]} is not finite: {pts[bad[0]].tolist()} "
                f"({bad.size} non-finite rows)"
            )
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.m


def normalize_to_unit_cube(cloud: PointCloud) -> PointCloud:
    """Min-max map each axis into [0, 1]; degenerate axes go to 0.5.

    The affine record is attached to the result so the map can be inverted.
    Rounding can carry an axis maximum one ulp past 1; the result is clipped
    to [0, 1], so it lies in the cube exactly.
    """
    if cloud.m == 0:
        raise ValueError("cannot normalize an empty cloud")
    lo = cloud.points.min(axis=0)
    hi = cloud.points.max(axis=0)
    spread = hi - lo
    degenerate = spread == 0.0
    scale = 1.0 / np.where(degenerate, 1.0, spread)
    offset = np.where(degenerate, 0.5 - lo, -lo * scale)
    record = NormalizationRecord(scale=scale, offset=offset)
    points = np.clip(record.apply(cloud.points), 0.0, 1.0)
    return PointCloud(points, normalization=record)


def denormalize(cloud: PointCloud) -> PointCloud:
    """Undo a cloud's normalization record, returning raw coordinates."""
    if cloud.normalization is None:
        raise ValueError("cloud carries no normalization record")
    return PointCloud(cloud.normalization.invert(cloud.points))


def add_gaussian_noise(cloud: PointCloud, sigma: float, seed: int) -> PointCloud:
    """Add i.i.d. N(0, sigma^2) per coordinate, then clamp to [0, 1]."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0:
        return cloud
    rng = make_rng(seed)
    noisy = cloud.points + sigma * rng.standard_normal(cloud.points.shape)
    return PointCloud(np.clip(noisy, 0.0, 1.0), normalization=cloud.normalization)


def save_cloud(cloud: PointCloud, path, header: bool = False) -> None:
    """Write one point per row as comma-separated full-precision decimals."""
    lines = []
    if header:
        lines.append(",".join(f"x{j + 1}" for j in range(cloud.dim)))
    for row in cloud.points:
        lines.append(",".join(f"{v:.17g}" for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_cloud(path, header: bool = False) -> PointCloud:
    """Read a cloud written by save_cloud; set header=True to skip a header row.

    Rows of unequal width, unparsable cells and NaN or infinite values raise
    CloudFormatError naming the line.
    """
    rows: list[list[float]] = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if header and lineno == 1:
                continue
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise CloudFormatError(
                    f"{path}: line {lineno}: expected {width} values, got {len(cells)}"
                )
            try:
                row = [float(c) for c in cells]
            except ValueError as exc:
                raise CloudFormatError(f"{path}: line {lineno}: {exc}") from None
            if not np.isfinite(row).all():
                raise CloudFormatError(f"{path}: line {lineno}: non-finite value")
            rows.append(row)
    if not rows:
        raise CloudFormatError(f"{path}: no data rows")
    return PointCloud(np.array(rows))
