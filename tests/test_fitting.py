import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varietyfit import fitting
from varietyfit.cloud import PointCloud
from varietyfit.datasets import (
    gen_noisy_line,
    gen_sphere_plane,
    gen_sphere_plane_singular,
    sphere_plane_polynomial,
)
from varietyfit.fitting import (
    RationalizationError,
    fit_map,
    intersected_map,
    map_polynomial,
    rationalize,
    smallest_eigenpairs,
    vandermonde,
)
from varietyfit.polynomials import Poly, enumerate_monomials

DIAGONAL = PointCloud(
    np.array([[0.0, 0.0], [0.25, 0.25], [0.5, 0.5], [0.75, 0.75], [1.0, 1.0]])
)


# ---------------------------------------------------------------- vandermonde


def test_vandermonde_single_row():
    U = vandermonde(PointCloud(np.array([[0.5, 0.5]])), enumerate_monomials(2, 1))
    assert np.array_equal(U, np.array([[0.5, 0.5, 1.0]]))


def test_vandermonde_origin_d2():
    U = vandermonde(PointCloud(np.array([[0.0, 0.0]])), enumerate_monomials(2, 2))
    assert np.array_equal(U, np.array([[0.0, 0.0, 0.0, 0.0, 0.0, 1.0]]))


def test_vandermonde_matches_pointwise_eval():
    rng = np.random.default_rng(1)
    basis = enumerate_monomials(3, 3)
    cloud = PointCloud(rng.random((60, 3)))
    U = vandermonde(cloud, basis)
    f = Poly(basis, rng.standard_normal(len(basis)))
    assert np.abs(U @ f.coeffs - f.evaluate(cloud.points)).max() <= 1e-12


def test_vandermonde_warns_on_small_excursion():
    cloud = PointCloud(np.array([[1.02, 0.5], [0.5, 0.5]]))
    with pytest.warns(UserWarning):
        vandermonde(cloud, enumerate_monomials(2, 1))


@pytest.mark.parametrize(
    "over,under,degree,message",
    [(58662, 58661, 10, "58662 x 286 Vandermonde table \\(degree 10\\) needs 134218656 bytes"),
     (1, 1, 28, "4495 x 4495 matrix of right singular vectors \\(degree 28\\) needs 161640200 bytes")],
    ids=["table", "gram"],
)
def test_vandermonde_refuses_dense_matrices_over_budget(monkeypatch, over, under, degree, message):
    # One dense matrix may hold 4096^2 float64 entries, as a transport cost
    # matrix may: a 3-d fit refuses degree 28 on any cloud and 286 monomials
    # on 58662 points before anything is built; degree 27 (N = 4060) and
    # 58661 points pass the check and reach the table.
    def no_table(*args, **kwargs):
        raise AssertionError("table built")

    monkeypatch.setattr(fitting, "monomials", no_table)
    with pytest.raises(ValueError, match=message):
        vandermonde(PointCloud(np.zeros((over, 3))), enumerate_monomials(3, degree))
    with pytest.raises(AssertionError, match="table built"):
        vandermonde(PointCloud(np.zeros((under, 3))), enumerate_monomials(3, min(degree, 27)))


def test_vandermonde_rejects_far_points_and_bad_input():
    basis = enumerate_monomials(2, 1)
    with pytest.raises(ValueError):
        vandermonde(PointCloud(np.array([[1.2, 0.5]])), basis)
    with pytest.raises(ValueError):
        vandermonde(PointCloud(np.empty((0, 2))), basis)
    with pytest.raises(ValueError):
        vandermonde(PointCloud(np.array([[0.5, 0.5, 0.5]])), basis)


# ---------------------------------------------------- smallest eigenpairs


def test_eigenpairs_identity_full_multiplicity():
    # U^T U = I has one eigenvalue of full multiplicity, but the identity
    # table has full rank: the kernel is its least singular vector alone.
    lam, V, rank, gap = smallest_eigenpairs(np.eye(3))
    assert lam == pytest.approx(1.0)
    assert (V.shape, rank, gap) == ((3, 1), 3, None)
    assert np.linalg.norm(V[:, 0]) == pytest.approx(1.0)


def test_eigenpairs_diagonal_simple():
    lam, V, rank, gap = smallest_eigenpairs(np.diag([0.0, 1.0, 2.0]))
    assert lam == 0.0
    assert (V.shape, rank, gap) == ((3, 1), 2, math.inf)
    assert abs(V[0, 0]) == pytest.approx(1.0)


def test_eigenpairs_known_two_dim_nullspace():
    rng = np.random.default_rng(3)
    n = 8
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v1, v2 = Q[:, 0], Q[:, 1]
    M = rng.standard_normal((30, n))
    A = M - (M @ v1)[:, None] * v1 - (M @ v2)[:, None] * v2
    lam, V, rank, gap = smallest_eigenpairs(A)
    assert 0.0 <= lam <= 1e-25
    assert (V.shape, rank) == ((n, 2), n - 2)
    assert gap >= 1e10
    for v in (v1, v2):
        assert np.linalg.norm(v - V @ (V.T @ v)) <= 1e-12


def test_eigenpairs_full_rank_table():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((30, 8))
    lam, V, rank, gap = smallest_eigenpairs(A)
    w, W = np.linalg.eigh(A.T @ A)
    assert lam == pytest.approx(w[0], rel=1e-10)
    assert (V.shape, rank, gap) == ((8, 1), 8, None)
    assert abs(V[:, 0] @ W[:, 0]) == pytest.approx(1.0, abs=1e-12)


def test_eigenpairs_wide_table_kernel_is_null_space():
    # m < N: lambda is exactly 0 and the kernel is all N - m null vectors.
    rng = np.random.default_rng(6)
    A = rng.standard_normal((3, 7))
    lam, V, rank, gap = smallest_eigenpairs(A)
    assert (lam, V.shape, rank, gap) == (0.0, (7, 4), 3, None)
    assert np.abs(A @ V).max() <= 1e-14
    assert np.abs(V.T @ V - np.eye(4)).max() <= 1e-14


def test_eigenpairs_rejects_bad_matrices():
    for bad in (np.empty((0, 3)), np.empty((3, 0)), np.ones(3)):
        with pytest.raises(ValueError, match="non-empty 2-d table"):
            smallest_eigenpairs(bad)


# -------------------------------------------------------------------- fit_map


def test_fit_diagonal_line_recovers_plane():
    fit = fit_map(DIAGONAL, 1)
    assert fit.lam <= 1e-12 * fit.trace
    assert fit.kernel_dim == 1
    f = map_polynomial(fit)
    s = 1.0 / np.sqrt(2.0)
    assert f.coeffs == pytest.approx([s, -s, 0.0], abs=1e-10)


def test_fit_single_point_kernel_dim_two():
    fit = fit_map(PointCloud(np.array([[0.3, 0.4]])), 1)
    assert fit.kernel_dim == 2


# Noise-free generators and the degree of the variety each samples: the
# sphere-union-plane cubic, its singular circle (a sphere and a plane) and
# a line (two planes).
_VARIETIES = {
    "sphere-plane": (lambda m, seed: gen_sphere_plane(m, 0.5, seed=seed), 3),
    "circle": (gen_sphere_plane_singular, 2),
    "line": (lambda m, seed: gen_noisy_line(m, 0.0, seed=seed), 1),
}


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(_VARIETIES)),
    extra_degree=st.integers(0, 1),
    m=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_on_a_variety_has_a_null_kernel_and_nonnegative_lambda(kind, extra_degree, m, seed):
    # At or above the variety's degree every kernel vector is a null vector
    # of the table up to rounding, and lambda = s_min^2 is never negative.
    gen, degree = _VARIETIES[kind]
    cloud = gen(m, seed)
    fit = fit_map(cloud, degree + extra_degree)
    assert fit.lam >= 0.0
    U = vandermonde(cloud, map_polynomial(fit).basis)
    bound = 1e3 * np.finfo(float).eps * np.linalg.norm(U)
    for f in fit.kernel_basis:
        assert np.linalg.norm(U @ f.coeffs) <= bound


def test_fit_quadratic_form_equals_lambda():
    fit = fit_map(DIAGONAL, 1)
    basis = enumerate_monomials(2, 1)
    U = vandermonde(DIAGONAL, basis)
    G = U.T @ U
    for f in fit.kernel_basis:
        q = float(f.coeffs @ G @ f.coeffs)
        assert abs(q - fit.lam) <= 1e-8 * np.linalg.norm(G)


def test_fit_kernel_orthonormal_and_unit():
    rng = np.random.default_rng(8)
    cloud = PointCloud(rng.random((40, 2)))
    fit = fit_map(cloud, 3)
    V = np.column_stack([f.coeffs for f in fit.kernel_basis])
    gram = V.T @ V
    assert np.abs(gram - np.eye(V.shape[1])).max() <= 1e-8
    for f in fit.kernel_basis:
        assert f.is_normalized


def test_fit_sphere_plane_recovery_small():
    cloud = gen_sphere_plane(400, 0.5, seed=2)
    fit = fit_map(cloud, 3)
    assert fit.lam <= 1e-12 * fit.trace
    assert fit.kernel_dim == 1
    target = sphere_plane_polynomial()
    c_t = target.coeffs / target.norm
    assert abs(np.dot(map_polynomial(fit).coeffs, c_t)) >= 0.999


def test_fit_psd_gram():
    rng = np.random.default_rng(11)
    for n, degree in [(2, 2), (3, 3)]:
        cloud = PointCloud(rng.random((30, n)))
        U = vandermonde(cloud, enumerate_monomials(n, degree))
        G = U.T @ U
        assert np.linalg.eigvalsh(G).min() >= -1e-9 * np.trace(G)


def test_quadratic_form_matches_sample_loss():
    rng = np.random.default_rng(13)
    basis = enumerate_monomials(3, 2)
    cloud = PointCloud(rng.random((50, 3)))
    U = vandermonde(cloud, basis)
    G = U.T @ U
    for _ in range(5):
        c = rng.standard_normal(len(basis))
        c /= np.linalg.norm(c)
        g = Poly(basis, c)
        loss = float((g.evaluate(cloud.points) ** 2).sum())
        q = float(c @ G @ c)
        assert abs(q - loss) <= 1e-10 * max(loss, 1.0)


def _exact_zeros_of(g, m_target, rng):
    """Points of Z(g) in [0,1]^n found by scanning axis lines, then polished."""
    n = g.basis.n
    pts = []
    for _ in range(60 * m_target):
        if len(pts) >= m_target:
            break
        base = rng.random(n)
        axis = int(rng.integers(n))
        # univariate restriction along the axis
        deg = g.basis.degree
        coef = np.zeros(deg + 1)
        for alpha, c in zip(g.basis.exponents, g.coeffs):
            if c == 0.0:
                continue
            rest = 1.0
            for j, a in enumerate(alpha):
                if j != axis and a:
                    rest *= base[j] ** a
            coef[alpha[axis]] += c * rest
        roots = np.roots(coef[::-1]) if np.abs(coef[1:]).max() > 1e-12 else []
        for r in roots:
            if abs(r.imag) < 1e-12 and -0.001 <= r.real <= 1.001:
                x = base.copy()
                x[axis] = float(np.clip(r.real, 0.0, 1.0))
                for _ in range(3):  # Newton polish toward |g| ~ 0
                    val = g.evaluate(x)
                    grad = g.gradient(x)
                    norm2 = float(grad @ grad)
                    if norm2 < 1e-16:
                        break
                    x = np.clip(x - val * grad / norm2, 0.0, 1.0)
                if abs(g.evaluate(x)) < 1e-13:
                    pts.append(x)
    return np.array(pts[:m_target])


def test_noise_free_recovery_random_varieties():
    rng = np.random.default_rng(17)
    for n, degree in [(2, 2), (2, 3), (3, 2)]:
        basis = enumerate_monomials(n, degree)
        N = len(basis)
        for attempt in range(10):
            c = rng.standard_normal(N)
            g = Poly(basis, c / np.linalg.norm(c))
            pts = _exact_zeros_of(g, 3 * N, rng)
            if len(pts) == 3 * N:
                break
        assert len(pts) == 3 * N, f"could not sample zeros for n={n} D={degree}"
        fit = fit_map(PointCloud(pts), degree)
        assert fit.lam <= 1e-10
        V = np.column_stack([f.coeffs for f in fit.kernel_basis])
        resid = np.linalg.norm(g.coeffs - V @ (V.T @ g.coeffs))
        assert resid <= 1e-6


def test_map_polynomial_properties():
    fit = fit_map(DIAGONAL, 1)
    f = map_polynomial(fit)
    assert abs(f.norm - 1.0) <= 1e-12
    peak = np.argmax(np.abs(f.coeffs) >= np.abs(f.coeffs).max() * (1 - 1e-9))
    assert f.coeffs[peak] > 0
    # bit-for-bit determinism across repeated fits
    again = map_polynomial(fit_map(DIAGONAL, 1))
    assert np.array_equal(f.coeffs, again.coeffs)


def test_map_polynomial_attains_minimal_loss():
    rng = np.random.default_rng(23)
    cloud = PointCloud(rng.random((60, 2)))
    fit = fit_map(cloud, 2)
    f = map_polynomial(fit)
    basis = f.basis
    best = float((f.evaluate(cloud.points) ** 2).sum())
    for _ in range(1000):
        c = rng.standard_normal(len(basis))
        c /= np.linalg.norm(c)
        loss = float((Poly(basis, c).evaluate(cloud.points) ** 2).sum())
        assert best <= loss + 1e-9


def test_intersected_map_squares_diagonal_fit():
    fit = fit_map(DIAGONAL, 1)
    f = intersected_map(fit)
    expected = Poly.from_terms(2, 2, {(2, 0): 0.5, (1, 1): -1.0, (0, 2): 0.5})
    assert f.basis == expected.basis
    assert f.coeffs == pytest.approx(expected.coeffs, abs=1e-10)


def test_intersected_map_origin_kernel():
    fit = fit_map(PointCloud(np.array([[0.0, 0.0]])), 1)
    assert fit.kernel_dim == 2
    f = intersected_map(fit)
    assert f((0.0, 0.0)) == pytest.approx(0.0, abs=1e-15)
    rng = np.random.default_rng(2)
    pts = rng.random((20, 2)) + 0.05
    assert (f.evaluate(pts) > 0).all()


def test_intersected_map_positive_lambda_branch():
    rng = np.random.default_rng(31)
    cloud = PointCloud(rng.random((80, 2)))
    fit = fit_map(cloud, 1)
    assert fit.rank == 3
    assert np.array_equal(intersected_map(fit).coeffs, map_polynomial(fit).coeffs)


def test_intersected_vanishing_equivalence():
    fit = fit_map(DIAGONAL, 1)
    fhat = intersected_map(fit)
    kernel = fit.kernel_basis
    rng = np.random.default_rng(41)
    t = rng.random(30)
    on = np.column_stack([t, t])
    off = rng.random((30, 2))
    off = off[np.abs(off[:, 0] - off[:, 1]) > 0.05]
    for pts, expect_on in ((on, True), (off, False)):
        small_hat = np.abs(fhat.evaluate(pts)) <= 1e-12
        small_all = np.ones(len(pts), dtype=bool)
        for g in kernel:
            small_all &= np.abs(g.evaluate(pts)) <= 1e-6
        assert np.array_equal(small_hat, small_all)
        assert small_hat.all() == expect_on


# ---------------------------------------------------------------- rationalize


def test_rationalize_scales_to_leading_one():
    s = 1.0 / np.sqrt(2.0)
    f = Poly(enumerate_monomials(2, 1), [s, -s, 0.0])
    r = rationalize(f, max_denominator=100, drop_tol=1e-6)
    assert r.coeffs == (Fraction(1), Fraction(-1), Fraction(0))
    assert r.scale == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_rationalize_drops_tiny_entries():
    c = np.array([1.0, -1.0, 1e-9])
    f = Poly(enumerate_monomials(2, 1), c / np.linalg.norm(c))
    r = rationalize(f, drop_tol=1e-6)
    assert r.coeffs[2] == 0


@pytest.mark.parametrize("drop_tol", [-1.0, float("nan")])
def test_rationalize_refuses_bad_drop_tol(drop_tol):
    # Both would silently drop nothing.
    f = Poly(enumerate_monomials(2, 1), [1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="drop_tol"):
        rationalize(f, drop_tol=drop_tol)


def test_rationalize_rejects_irrational_and_unnormalized():
    c = np.array([1.0, 1.0 / np.pi, 0.0])
    f = Poly(enumerate_monomials(2, 1), c / np.linalg.norm(c))
    with pytest.raises(RationalizationError):
        rationalize(f, max_denominator=5)
    with pytest.raises(ValueError):
        rationalize(Poly(enumerate_monomials(2, 1), [2.0, 0.0, 0.0]))


def test_rationalize_recovers_sphere_plane_target():
    cloud = gen_sphere_plane(400, 0.5, seed=6)
    f = map_polynomial(fit_map(cloud, 3))
    r = rationalize(f, max_denominator=64, drop_tol=1e-6)
    target = sphere_plane_polynomial()
    for q, c in zip(r.coeffs, target.coeffs):
        assert q == Fraction(c)
