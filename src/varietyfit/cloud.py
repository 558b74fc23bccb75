"""Point clouds, unit-cube normalization, and CSV I/O."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CloudFormatError",
    "NormalizationRecord",
    "PointCloud",
    "load_cloud",
    "normalize_to_unit_cube",
    "save_cloud",
]

# How far outside [0,1] a cloud may stray (for example, noisy data loaded
# from a file) before fitting refuses it rather than warning.
CUBE_SLACK = 0.05
# One dense float64 matrix may hold at most EXACT_SIZE_CAP**2 entries (128
# MiB): transport's cost matrix, fitting's Vandermonde table and its
# matrix of right singular vectors, and a sample's points.
EXACT_SIZE_CAP = 4096
# save_cloud formats this many rows per string, so a cloud at the dense
# budget is not written from one giant string.
SAVE_CHUNK_ROWS = 4096


def check_dense_budget(rows: int, cols: int, what: str) -> None:
    """Refuse a rows x cols float64 matrix over the one-matrix budget.

    The ValueError names the shape, what the matrix is and the bytes it
    would need; nothing is allocated.
    """
    if rows * cols > EXACT_SIZE_CAP**2:
        raise ValueError(
            f"a {rows} x {cols} {what} needs {8 * rows * cols} bytes, over the "
            f"{8 * EXACT_SIZE_CAP**2}-byte budget for one dense matrix"
        )


class CloudFormatError(ValueError):
    """Raised when a cloud file cannot be parsed."""


@dataclass(frozen=True)
class NormalizationRecord:
    """Per-axis affine map taking raw coordinates into [0, 1].

    A zero or non-finite scale, which would collapse an axis or make
    ``invert`` divide by zero, is refused (ValueError naming the axis).
    """

    scale: np.ndarray
    offset: np.ndarray

    def __post_init__(self) -> None:
        for name in ("scale", "offset"):
            v = np.array(getattr(self, name), dtype=float)
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        bad = np.flatnonzero(~np.isfinite(self.scale) | (self.scale == 0.0))
        if bad.size:
            raise ValueError(
                f"normalization scale {self.scale[bad[0]]} on axis {bad[0]} "
                "must be finite and nonzero"
            )

    def apply(self, points: np.ndarray) -> np.ndarray:
        return points * self.scale + self.offset

    def invert(self, points: np.ndarray) -> np.ndarray:
        return (points - self.offset) / self.scale


@dataclass(frozen=True)
class PointCloud:
    """m points in R^n.

    Points with a NaN or infinite coordinate are refused (ValueError naming
    the first such row).
    """

    points: np.ndarray

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


def normalize_to_unit_cube(cloud: PointCloud) -> tuple[PointCloud, NormalizationRecord]:
    """Min-max map each axis into [0, 1]; degenerate axes go to 0.5.

    Returns the mapped cloud and the affine record, whose ``invert`` takes
    points back to raw coordinates. Rounding can carry an axis maximum one
    ulp past 1; the result is clipped to [0, 1], so it lies in the cube
    exactly. An axis whose width overflows float64 is refused (ValueError
    naming the axis).
    """
    if cloud.m == 0:
        raise ValueError("cannot normalize an empty cloud")
    lo = cloud.points.min(axis=0)
    hi = cloud.points.max(axis=0)
    with np.errstate(over="ignore"):
        spread = hi - lo
    bad = np.flatnonzero(~np.isfinite(spread))
    if bad.size:
        j = bad[0]
        raise ValueError(
            f"axis {j} spans [{lo[j]:.6g}, {hi[j]:.6g}], a width that overflows "
            "float64; rescale the data before normalizing"
        )
    degenerate = spread == 0.0
    scale = 1.0 / np.where(degenerate, 1.0, spread)
    offset = np.where(degenerate, 0.5 - lo, -lo * scale)
    record = NormalizationRecord(scale=scale, offset=offset)
    return PointCloud(np.clip(record.apply(cloud.points), 0.0, 1.0)), record


def save_cloud(cloud: PointCloud, path) -> None:
    """Write one point per row as comma-separated full-precision decimals.

    The bytes are np.savetxt(path, points, fmt="%.17g", delimiter=",")'s,
    but each chunk of SAVE_CHUNK_ROWS rows is formatted by one % on a
    repeated row template, about twice as fast as savetxt's row-by-row
    formatting at 1600 x 3. An empty cloud gives an empty file, which
    load_cloud refuses.
    """
    row = ",".join(["%.17g"] * cloud.dim) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, cloud.m, SAVE_CHUNK_ROWS):
            chunk = cloud.points[start : start + SAVE_CHUNK_ROWS]
            fh.write(row * len(chunk) % tuple(chunk.ravel().tolist()))


def load_cloud(path) -> PointCloud:
    """Read a cloud written by save_cloud: comma-separated rows, no header.

    Rows of unequal width, unparsable cells (a header line among them) and
    NaN or infinite values raise CloudFormatError naming the line.
    """
    rows: list[list[float]] = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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
