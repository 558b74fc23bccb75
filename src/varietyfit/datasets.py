"""Synthetic generators for the benchmark varieties, plus the cyclooctane
ambient constraint residuals.

The main benchmark is the union of the sphere of radius 1/2 centered at
(1/2, 1/2, 1/2) and the plane x = y, cut out by the cubic

    f(x, y, z) = ((x-1/2)^2 + (y-1/2)^2 + (z-1/2)^2 - 1/4) * (x - y).

Its singular locus is the intersection circle of the two components.
"""

from __future__ import annotations

import numpy as np

from .cloud import PointCloud
from .polynomials import Poly, multiply
from .rng import make_rng

__all__ = [
    "circle_quadric",
    "cyclooctane_residuals",
    "gen_noisy_line",
    "gen_sphere_plane",
    "gen_sphere_plane_singular",
    "plane_poly",
    "sphere_plane_polynomial",
    "sphere_quadric",
]

_CENTER = 0.5
_RADIUS = 0.5

# Squared carbon-carbon bond length (Angstrom^2) and the squared 1-3
# distance fixed by the tetrahedral bond angle.
BOND_SQ = 2.21
ANGLE_SQ = 8.0 / 3.0 * 2.21


def sphere_quadric() -> Poly:
    """(x-1/2)^2 + (y-1/2)^2 + (z-1/2)^2 - 1/4, vanishing on the sphere."""
    return Poly.from_terms(
        3,
        2,
        {
            (2, 0, 0): 1.0,
            (0, 2, 0): 1.0,
            (0, 0, 2): 1.0,
            (1, 0, 0): -1.0,
            (0, 1, 0): -1.0,
            (0, 0, 1): -1.0,
            (0, 0, 0): 0.5,
        },
    )


def plane_poly() -> Poly:
    """x - y, vanishing on the plane component."""
    return Poly.from_terms(3, 1, {(1, 0, 0): 1.0, (0, 1, 0): -1.0})


def sphere_plane_polynomial() -> Poly:
    """The cubic cutting out sphere union plane (degree-3 basis, n=3)."""
    return multiply(sphere_quadric(), plane_poly())


def circle_quadric() -> Poly:
    """2x^2 - 2x + z^2 - z + 1/2; with x - y it cuts out the singular circle."""
    return Poly.from_terms(
        3,
        2,
        {
            (2, 0, 0): 2.0,
            (1, 0, 0): -2.0,
            (0, 0, 2): 1.0,
            (0, 0, 1): -1.0,
            (0, 0, 0): 0.5,
        },
    )


def _add_noise(pts: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    # pts plus i.i.d. N(0, sigma^2) per coordinate drawn from the generator's
    # own stream, clipped to [0, 1]. sigma = 0 draws nothing; the clip is
    # then a no-op, as every generator's noise-free points lie in the cube.
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    if sigma > 0:
        pts = pts + sigma * rng.standard_normal(pts.shape)
    return np.clip(pts, 0.0, 1.0)


def _sphere_points(m: int, rng: np.random.Generator) -> np.ndarray:
    # Uniform on the sphere via normalized Gaussians, rejected to the cube.
    out = np.empty((0, 3))
    while out.shape[0] < m:
        g = rng.standard_normal((2 * (m - out.shape[0]) + 8, 3))
        norms = np.linalg.norm(g, axis=1)
        g = g[norms > 0]
        pts = _CENTER + _RADIUS * g / np.linalg.norm(g, axis=1)[:, None]
        inside = np.all((pts >= 0.0) & (pts <= 1.0), axis=1)
        out = np.vstack([out, pts[inside]])
    return out[:m]


def gen_sphere_plane(
    m_total: int,
    plane_fraction: float = 0.5,
    seed: int = 0,
    noise_sigma: float = 0.0,
) -> PointCloud:
    """Sample the sphere-union-plane variety inside the unit cube.

    plane_fraction of the points land on the plane patch {(t, t, z)}, the
    rest uniformly on the sphere. Optional isotropic Gaussian noise is
    added afterwards and the result clamped back into the cube; a negative
    or non-finite noise_sigma is refused.
    """
    if not 0.0 <= plane_fraction <= 1.0:
        raise ValueError("plane_fraction must lie in [0, 1]")
    rng = make_rng(seed)
    m_plane = int(round(plane_fraction * m_total))
    m_sphere = m_total - m_plane
    sphere = _sphere_points(m_sphere, rng)
    tz = rng.random((m_plane, 2))
    plane = np.column_stack([tz[:, 0], tz[:, 0], tz[:, 1]])
    return PointCloud(_add_noise(np.vstack([sphere, plane]), noise_sigma, rng))


def gen_sphere_plane_singular(m: int, seed: int = 0) -> PointCloud:
    """Sample the singular circle of the sphere-union-plane variety.

    On the plane x = y the sphere equation reduces to
    2(x-1/2)^2 + (z-1/2)^2 = 1/4, parametrized by one angle.
    """
    rng = make_rng(seed)
    theta = 2.0 * np.pi * rng.random(m)
    u = _CENTER + np.cos(theta) / (2.0 * np.sqrt(2.0))
    z = _CENTER + 0.5 * np.sin(theta)
    return PointCloud(np.column_stack([u, u, z]))


# Anchor point and direction of the reference line used by the
# two-near-fitting-planes regression data.
LINE_POINT = np.array([0.0, 0.0, 1.0])
LINE_DIRECTION = np.array([1.0, 1.0, -1.0])


def gen_noisy_line(m: int, sigma: float, seed: int = 0) -> PointCloud:
    """Points near the line (0,0,1) + t(1,1,-1), t in [0,1], inside the cube.

    Gaussian noise of std sigma is added and the result clamped into the
    cube; a negative or non-finite sigma is refused.
    """
    rng = make_rng(seed)
    t = rng.random(m)
    return PointCloud(_add_noise(LINE_POINT + t[:, None] * LINE_DIRECTION, sigma, rng))


def cyclooctane_residuals(p) -> np.ndarray:
    """Constraint residuals of a cyclooctane conformation.

    p holds the eight carbon positions flattened as (x1, y1, z1, ..., x8,
    y8, z8). Returns 16 values: first the eight bond-length equations
    |p_i - p_{i+1}|^2 - 2.21, then the eight bond-angle equations
    |p_i - p_{i+2}|^2 - (8/3)*2.21, indices cyclic mod 8.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (24,):
        raise ValueError(f"expected 24 coordinates, got shape {p.shape}")
    atoms = p.reshape(8, 3)
    bonds = np.sum((atoms - np.roll(atoms, -1, axis=0)) ** 2, axis=1) - BOND_SQ
    angles = np.sum((atoms - np.roll(atoms, -2, axis=0)) ** 2, axis=1) - ANGLE_SQ
    return np.concatenate([bonds, angles])
