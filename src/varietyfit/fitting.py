"""Fit a variety to a point cloud as a smallest-eigenpair problem.

Every unit-coefficient polynomial f of degree <= D scores a cloud by the
loss sum_i f(a_i)^2, which is the quadratic form c^T (U^T U) c of its
coefficient vector against the Gram matrix of the multivariate Vandermonde
matrix U. The minimizers over the unit sphere of coefficients are exactly
the normalized eigenvectors for the smallest eigenvalue of U^T U, so the
fit reduces to one symmetric eigendecomposition.

We assemble and solve the N x N Gram matrix rather than an SVD of U. N is
small at the scales this package targets (N = 126 at n=5, D=4), so the
squared condition number of the Gram route is acceptable; an SVD of U
would be preferred if N grew large.
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
    m x N Vandermonde table or N x N Gram matrix is over the dense budget
    (EXACT_SIZE_CAP**2 entries); nothing is allocated."""
    N = math.comb(n + degree, degree)
    for rows, what in ((m, "Vandermonde table"), (N, "Gram matrix")):
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


def smallest_eigenpairs(
    G: np.ndarray, multiplicity_tol: float
) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue of symmetric G and an orthonormal basis of its
    eigenspace, merging eigenvalues within multiplicity_tol of the minimum.

    Returns (lambda_min, V) with the basis vectors as columns of V.
    """
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {G.shape}")
    if G.shape[0] == 0:
        raise ValueError("matrix is empty")
    scale = float(np.linalg.norm(G))
    if float(np.linalg.norm(G - G.T)) > 1e-10 * max(scale, 1e-300):
        raise ValueError("matrix is not symmetric")
    w, V = np.linalg.eigh(G)
    lam = float(w[0])
    k = int(np.searchsorted(w, lam + multiplicity_tol, side="right"))
    k = max(k, 1)
    return lam, V[:, :k]


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
    """Result of fitting: the smallest eigenvalue of the Gram matrix and an
    orthonormal basis of its (merged) eigenspace, as unit-norm polynomials."""

    lam: float
    kernel_basis: tuple[Poly, ...]
    degree: int
    m: int
    residual: float
    trace: float
    multiplicity_tol: float

    @property
    def kernel_dim(self) -> int:
        return len(self.kernel_basis)


def fit_map(
    cloud: PointCloud, degree: int, multiplicity_tol: float | None = None
) -> MapFit:
    """Fit a degree-<=degree polynomial model to the cloud.

    multiplicity_tol defaults to 1e-9 * trace(G) / N: eigenvalues within
    that band of the minimum are merged into the returned eigenspace.
    Exactly zero multiplicity cannot be detected in floating point, so the
    band stands in for the exact eigenspace of the smallest eigenvalue.
    A given tolerance must be finite and >= 0: an infinite or NaN one
    would merge the whole basis into the kernel.
    """
    if multiplicity_tol is not None and not (
        math.isfinite(multiplicity_tol) and multiplicity_tol >= 0
    ):
        raise ValueError(f"multiplicity_tol must be finite and >= 0, got {multiplicity_tol}")
    basis = enumerate_monomials(cloud.dim, degree)
    U = vandermonde(cloud, basis)
    G = U.T @ U
    tr = float(np.trace(G))
    if multiplicity_tol is None:
        multiplicity_tol = 1e-9 * tr / len(basis)
    lam, V = smallest_eigenpairs(G, multiplicity_tol)
    V = np.column_stack([_fix_sign(V[:, i]) for i in range(V.shape[1])])
    residual = float(np.linalg.norm(G @ V - lam * V, axis=0).max())
    kernel = tuple(Poly(basis, V[:, i]) for i in range(V.shape[1]))
    return MapFit(
        lam=lam,
        kernel_basis=kernel,
        degree=degree,
        m=cloud.m,
        residual=residual,
        trace=tr,
        multiplicity_tol=multiplicity_tol,
    )


def map_polynomial(fit: MapFit) -> Poly:
    """Deterministic representative of the fit: the leading basis element,
    sign-fixed so its largest-magnitude coefficient is positive."""
    return fit.kernel_basis[0]


def intersected_map(fit: MapFit) -> Poly:
    """Single polynomial cutting out the intersection of all solutions.

    With a strictly positive smallest eigenvalue the solution is essentially
    unique and is returned as-is; with a (numerically) zero eigenvalue the
    sum of squares of the kernel basis is returned, a degree-2D polynomial
    vanishing exactly where every kernel element vanishes.
    """
    if fit.lam > fit.multiplicity_tol:
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
