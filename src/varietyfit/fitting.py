"""Fit a variety to a point cloud by the SVD of its monomial table.

Every unit-coefficient polynomial f of degree <= D scores a cloud by the
loss sum_i f(a_i)^2 = ||U c||^2, where c is f's coefficient vector and U
the multivariate Vandermonde matrix of the cloud. The minimizers over the
unit sphere of coefficients are the eigenvectors for the smallest
eigenvalue of U^T U, which are the right singular vectors of U for its
smallest singular value. The fit takes them from one SVD of U (as the
SVD of its QR factor R), so it never forms U^T U and never squares U's
condition number: on noise-free data lambda = s_min^2 sits at rounding
level (about 1e-29) and is never negative. The kernel's size is numpy's
matrix_rank rule applied to U.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cloud import CUBE_SLACK, PointCloud, check_dense_budget
from .polynomials import MonomialBasis, Poly, enumerate_monomials, monomials, sum_of_squares

__all__ = [
    "MapFit",
    "RationalPoly",
    "RationalizationError",
    "fit_map",
    "intersected_map",
    "map_polynomial",
    "rationalize",
    "smallest_eigenpairs",
    "vandermonde",
]

# Relative slack when locating the largest-magnitude coefficient, so that
# sign fixing is stable when several coefficients tie up to round-off.
_SIGN_TIE_REL = 1e-9
# rationalize refuses a coefficient whose best rational approximation
# (denominator capped) misses its scaled float value by more than this.
RATIONAL_VALUE_TOL = 1e-4


def check_fit_budget(m: int, n: int, degree: int) -> None:
    """Refuse a fit of m points in n variables at this degree when its
    m x N Vandermonde table or its N x N matrix of right singular vectors
    is over the dense budget (EXACT_SIZE_CAP**2 entries); nothing is
    allocated."""
    N = math.comb(n + degree, degree)
    for rows, what in ((m, "Vandermonde table"), (N, "matrix of right singular vectors")):
        check_dense_budget(rows, N, f"{what} (degree {degree})")


def vandermonde(cloud: PointCloud, basis: MonomialBasis) -> np.ndarray:
    """Monomial evaluations U[i, j] = x^alpha_j(a_i), one row per point.

    Points are expected inside [0, 1]^n; excursions up to CUBE_SLACK
    outside only warn (noise tolerance), anything further is an error.
    A fit over the dense budget is refused first (``check_fit_budget``).
    """
    if cloud.m == 0:
        raise ValueError("cannot build a Vandermonde matrix from an empty cloud")
    if cloud.dim != basis.n:
        raise ValueError(
            f"cloud dimension {cloud.dim} does not match basis n={basis.n}"
        )
    check_fit_budget(cloud.m, basis.n, basis.degree)
    pts = cloud.points
    lo = float(pts.min())
    hi = float(pts.max())
    if lo < -CUBE_SLACK or hi > 1.0 + CUBE_SLACK:
        raise ValueError(
            f"points range over [{lo:.4g}, {hi:.4g}]; fitting expects [0,1]^n "
            "(normalize the cloud first)"
        )
    if lo < 0.0 or hi > 1.0:
        warnings.warn(
            f"points stray slightly outside [0,1]^n (range [{lo:.4g}, {hi:.4g}])",
            stacklevel=2,
        )
    return monomials(pts, basis)


def smallest_eigenpairs(U: np.ndarray) -> tuple[float, np.ndarray, int, float | None]:
    """Smallest eigenvalue of U^T U and an orthonormal basis of its
    kernel, from one SVD of the m x N table U.

    The rank is numpy's matrix_rank rule: the count of singular values
    above s_1 * max(m, N) * eps. The kernel is the trailing
    max(1, N - rank) right singular vectors, smallest first, so a table
    of full rank still yields its least singular vector. Returns
    (lambda, V, rank, gap): lambda = s_min^2, or 0 when m < N; the basis
    vectors as the columns of V; and gap = s_rank / s_(rank+1), the ratio
    across the cut, None when no singular value is cut (inf when the
    first one cut is exactly 0).
    """
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 or U.size == 0:
        raise ValueError(f"expected a non-empty 2-d table, got shape {U.shape}")
    m, N = U.shape
    # U = QR has R's singular values and right singular vectors; the SVD
    # of R, at most N x N, forms no m x N left factor. When m < N only the
    # full Vt holds the null space's vectors.
    _, s, Vt = np.linalg.svd(np.linalg.qr(U, mode="r"), full_matrices=m < N)
    rank = int(np.count_nonzero(s > s[0] * max(m, N) * np.finfo(float).eps))
    lam = float(s[-1]) ** 2 if m >= N else 0.0
    gap = None
    if 0 < rank < len(s):
        gap = float(s[rank - 1] / s[rank]) if s[rank] > 0 else math.inf
    return lam, Vt[::-1][: max(1, N - rank)].T, rank, gap


def _fix_sign(v: np.ndarray) -> np.ndarray:
    """Flip v so its first near-maximal-magnitude entry is positive."""
    mags = np.abs(v)
    peak = float(mags.max())
    if peak == 0.0:
        return v
    idx = int(np.argmax(mags >= (1.0 - _SIGN_TIE_REL) * peak))
    return -v if v[idx] < 0 else v


@dataclass(frozen=True)
class MapFit:
    """Result of fitting: the smallest eigenvalue of U^T U and an
    orthonormal basis of its kernel as unit-norm polynomials, with the
    table's rank and the singular-value gap at the rank cut."""

    lam: float
    kernel_basis: tuple[Poly, ...]
    degree: int
    m: int
    residual: float
    trace: float
    rank: int
    gap: float | None

    @property
    def kernel_dim(self) -> int:
        return len(self.kernel_basis)


def fit_map(cloud: PointCloud, degree: int) -> MapFit:
    """Fit a degree-<=degree polynomial model to the cloud.

    The kernel comes from smallest_eigenpairs on the Vandermonde table.
    trace is trace(U^T U) = ||U||_F^2, and residual the largest
    eigen-residual ||U^T U v - lambda v|| over the kernel, computed
    without forming U^T U.
    """
    basis = enumerate_monomials(cloud.dim, degree)
    U = vandermonde(cloud, basis)
    lam, V, rank, gap = smallest_eigenpairs(U)
    V = np.column_stack([_fix_sign(V[:, i]) for i in range(V.shape[1])])
    residual = float(np.linalg.norm(U.T @ (U @ V) - lam * V, axis=0).max())
    kernel = tuple(Poly(basis, V[:, i]) for i in range(V.shape[1]))
    return MapFit(
        lam=lam,
        kernel_basis=kernel,
        degree=degree,
        m=cloud.m,
        residual=residual,
        trace=float(np.vdot(U, U)),
        rank=rank,
        gap=gap,
    )


def map_polynomial(fit: MapFit) -> Poly:
    """Deterministic representative of the fit: the leading basis element,
    sign-fixed so its largest-magnitude coefficient is positive."""
    return fit.kernel_basis[0]


def intersected_map(fit: MapFit) -> Poly:
    """Single polynomial cutting out the intersection of all solutions.

    When the table has full rank the solution is essentially unique and
    is returned as-is; when it is rank-deficient the sum of squares of the
    kernel basis is returned, a degree-2D polynomial vanishing exactly
    where every kernel element vanishes.
    """
    if fit.rank == len(map_polynomial(fit).basis):
        return map_polynomial(fit)
    return sum_of_squares(fit.kernel_basis)


class RationalizationError(ValueError):
    """Raised when coefficients cannot be faithfully written as rationals."""


@dataclass(frozen=True)
class RationalPoly:
    """Polynomial with exact rational coefficients plus the scale factor
    that maps the original float coefficients onto them."""

    basis: MonomialBasis
    coeffs: tuple[Fraction, ...]
    scale: float


def rationalize(
    f: Poly,
    max_denominator: int = 64,
    drop_tol: float = 1e-6,
) -> RationalPoly:
    """Interpret a unit-norm float polynomial as a rational one.

    Coefficients are scaled so the largest magnitude becomes 1, entries
    below drop_tol are zeroed, and the rest are converted by
    continued-fraction best approximation with denominators capped at
    max_denominator. If any approximation misses its float value by more
    than RATIONAL_VALUE_TOL the coefficients are not credibly rational at this
    denominator cap and a RationalizationError is raised instead of
    inventing precision. drop_tol must be >= 0 (not NaN).
    """
    if not drop_tol >= 0:
        raise ValueError(f"drop_tol must be >= 0, got {drop_tol}")
    if not f.is_normalized:
        raise ValueError("rationalize expects a unit-norm polynomial")
    peak = float(np.max(np.abs(f.coeffs)))
    scaled = f.coeffs / peak
    fracs = []
    for v in scaled:
        if abs(v) < drop_tol:
            fracs.append(Fraction(0))
            continue
        q = Fraction(float(v)).limit_denominator(max_denominator)
        if abs(float(q) - float(v)) > RATIONAL_VALUE_TOL:
            raise RationalizationError(
                f"coefficient {float(v)!r} is not close to a rational with "
                f"denominator <= {max_denominator}"
            )
        fracs.append(q)
    if all(q == 0 for q in fracs):
        raise RationalizationError("all coefficients dropped; nothing left")
    return RationalPoly(f.basis, tuple(fracs), scale=1.0 / peak)
