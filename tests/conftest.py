"""Shared numeric oracles for the test suite, and one solve helper.

The oracles deliberately use closed forms or dense discretizations rather
than package code paths, so they stay independent of what they check.
exact_costs only calls the package's transport stage.
"""

from __future__ import annotations

import numpy as np

from varietyfit.cli import _transports
from varietyfit.polynomials import Poly

SQRT2 = np.sqrt(2.0)

# Coefficients of the sphere-union-plane cubic, keyed by exponent, exactly
# as printed in the benchmark's closed form.
SPHERE_PLANE_TERMS = {
    (3, 0, 0): 1.0,
    (2, 1, 0): -1.0,
    (2, 0, 0): -1.0,
    (1, 2, 0): 1.0,
    (1, 0, 2): 1.0,
    (1, 0, 1): -1.0,
    (1, 0, 0): 0.5,
    (0, 3, 0): -1.0,
    (0, 2, 0): 1.0,
    (0, 1, 2): -1.0,
    (0, 1, 1): 1.0,
    (0, 1, 0): -0.5,
}


def sphere_plane_reference() -> Poly:
    """The ground-truth sphere-union-plane cubic at unit coefficient norm.

    Built from SPHERE_PLANE_TERMS, not from the package's
    sphere_plane_polynomial(); Poly only holds the coefficient vector.
    """
    scale = float(np.linalg.norm(list(SPHERE_PLANE_TERMS.values())))
    return Poly.from_terms(
        3, 3, {alpha: c / scale for alpha, c in SPHERE_PLANE_TERMS.items()}
    )


def broadcast_monomials(points: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """(m, N) table of x^alpha by a direct (m, N, n) power broadcast.

    Independent of the package's monomial table: every factor, exponents 0
    and 1 included, goes through pow() with an array exponent.
    """
    return np.prod(points[:, None, :] ** exps[None, :, :], axis=2)


def sequential_monomials(points: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """(m, N) table of x^alpha by repeated multiplication, left to right.

    Column k starts from ones and is multiplied by x_0 alpha_0 times, then
    by x_1 alpha_1 times, and so on: the package table's product order,
    computed without its product tree.
    """
    out = np.ones((points.shape[0], exps.shape[0]))
    for k, alpha in enumerate(exps):
        for j, a in enumerate(alpha):
            for _ in range(a):
                out[:, k] *= points[:, j]
    return out


def monomial_error_bound(n: int, degree: int) -> float:
    """A bound on |table - broadcast| / |broadcast| for the monomial table.

    The table multiplies at most D factors, each product correctly rounded,
    so it is within gamma_D |x^alpha| of x^alpha, gamma_k = k u / (1 - k u)
    and u = 2^-53. broadcast_monomials takes n pow() factors, each within
    4 ulp (8 u relative), and multiplies them in n - 1 rounded products: it
    is within gamma_(9n) |x^alpha|. Barring underflow, the two differ by at
    most (gamma_D + gamma_(9n)) / (1 - gamma_(9n)) times |broadcast|, which
    is below 1.01 u (D + 9n); this bound is twice u (D + 9n).
    """
    return 2.0**-52 * (degree + 9 * n)


def basis_order_sum(table: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_k c_k * table[:, k] over the nonzero c_k, added left to right.

    Starts from +0.0 and does one elementwise product and one elementwise
    sum per column, in column order; no matrix product is involved.
    """
    out = np.zeros(table.shape[0])
    for k in np.flatnonzero(coeffs):
        out += coeffs[k] * table[:, k]
    return out


def evaluate_error_bound(f: Poly) -> float:
    """A bound on |f.evaluate - broadcast_evaluate| on the unit cube.

    evaluate runs the Horner form, within gamma_(2D+n) S of f on the cube
    (S = sum |c_k|); the power-and-sum references are within gamma_(9n+N) S,
    counting each pow() factor, taken within 4 ulp, as 8 operations. So
    they differ by less than 1.02 u (N + 10n + 2D) S, u = 2^-53, and this
    bound is more than 2^12 times that.
    """
    n, degree = f.basis.n, f.basis.degree
    terms = len(f.basis) + 11 * n + 2 * degree + 1
    return 2.0**-40 * terms * float(np.abs(f.coeffs).sum())


def broadcast_evaluate(f: Poly, points: np.ndarray) -> np.ndarray:
    """Evaluate f at (m, n) points: the basis-order sum over the columns of
    the broadcast monomial table.

    The table is built 4096 rows at a time only to bound its memory; each
    row's sum involves that row alone.
    """
    exps = f.basis.exponent_array
    out = np.empty(points.shape[0])
    for start in range(0, points.shape[0], 4096):
        block = points[start : start + 4096]
        out[start : start + 4096] = basis_order_sum(broadcast_monomials(block, exps), f.coeffs)
    return out


def singular_circle_points(k: int) -> np.ndarray:
    """k evenly spaced points on the circle where the sphere meets the plane."""
    theta = np.linspace(0.0, 2.0 * np.pi, k, endpoint=False)
    u = 0.5 + np.cos(theta) / (2.0 * SQRT2)
    z = 0.5 + 0.5 * np.sin(theta)
    return np.column_stack([u, u, z])


def distance_to_singular_circle(points: np.ndarray) -> np.ndarray:
    """Distance from each point to a dense polyline of the circle."""
    circle = singular_circle_points(20000)
    d = np.linalg.norm(points[:, None, :] - circle[None, :, :], axis=2)
    return d.min(axis=1)


def distance_to_line(points: np.ndarray, anchor, direction) -> np.ndarray:
    """Euclidean distance from points to the infinite line anchor + t*direction."""
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    diff = points - np.asarray(anchor, dtype=float)
    perp = diff - (diff @ d)[:, None] * d
    return np.linalg.norm(perp, axis=1)


def exact_costs(pairs) -> list[float]:
    """The exact distance of each equal-size (a, b) in pairs, in pair order,
    solved concurrently by the CLI's transport stage."""
    return [result["wasserstein"] for result in _transports(pairs)]
