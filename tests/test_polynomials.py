import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varietyfit.cloud import PointCloud
from varietyfit.fitting import vandermonde
from varietyfit.polynomials import (
    Poly,
    enumerate_monomials,
    gradient_polys,
    monomials,
    multiply,
    sum_of_squares,
)
from varietyfit.datasets import sphere_plane_polynomial

from conftest import (
    basis_order_sum,
    broadcast_evaluate,
    broadcast_monomials,
    evaluate_error_bound,
    monomial_error_bound,
    sequential_monomials,
    singular_circle_points,
)


def test_basis_n2_d1_order():
    basis = enumerate_monomials(2, 1)
    assert basis.exponents == ((1, 0), (0, 1), (0, 0))
    assert len(basis) == 3


def test_basis_n3_d3_size():
    assert len(enumerate_monomials(3, 3)) == 20


def test_basis_n1_d2_order():
    assert enumerate_monomials(1, 2).exponents == ((2,), (1,), (0,))


def test_basis_rejects_n0():
    with pytest.raises(ValueError):
        enumerate_monomials(0, 2)
    with pytest.raises(ValueError):
        enumerate_monomials(2, -1)


@pytest.mark.parametrize("n,degree", [(1, 5), (2, 4), (3, 3), (4, 2), (5, 4)])
def test_basis_is_bijection_onto_bounded_multiindices(n, degree):
    basis = enumerate_monomials(n, degree)
    exps = basis.exponents
    assert len(exps) == len(set(exps)) == math.comb(n + degree, degree)
    expected = {
        alpha
        for alpha in itertools.product(range(degree + 1), repeat=n)
        if sum(alpha) <= degree
    }
    assert set(exps) == expected
    assert exps[-1] == (0,) * n  # constant monomial last


def test_basis_graded_descending():
    basis = enumerate_monomials(3, 4)
    degrees = [sum(a) for a in basis.exponents]
    assert degrees == sorted(degrees, reverse=True)
    # within one degree block, descending lexicographic
    for d in range(5):
        block = [a for a in basis.exponents if sum(a) == d]
        assert block == sorted(block, reverse=True)


def test_eval_on_diagonal_zero():
    f = Poly.from_terms(2, 1, {(1, 0): 1.0, (0, 1): -1.0})
    assert f((0.3, 0.3)) == 0.0


def test_eval_sphere_plane_at_corner():
    f = sphere_plane_polynomial()
    assert f((1.0, 0.0, 0.0)) == pytest.approx(0.5, abs=1e-15)


def test_eval_constant():
    f = Poly.from_terms(3, 0, {(0, 0, 0): 1.0})
    assert f((0.2, 0.9, 0.4)) == 1.0


def test_eval_zero_and_constant_in_larger_basis():
    points = np.random.default_rng(0).random((50, 2))
    zero = Poly(enumerate_monomials(2, 1), np.zeros(3))
    assert np.array_equal(zero.evaluate(points), np.zeros(50))
    three = Poly.from_terms(2, 2, {(0, 0): 3.0})
    assert np.array_equal(three.evaluate(points), np.full(50, 3.0))


def test_eval_shapes_and_dim_mismatch():
    f = Poly.from_terms(2, 2, {(2, 0): 1.0, (0, 2): 1.0})
    pts = np.array([[1.0, 1.0], [0.5, 0.0]])
    out = f.evaluate(pts)
    assert out.shape == (2,)
    assert out[0] == pytest.approx(2.0)
    with pytest.raises(ValueError):
        f.evaluate([1.0, 2.0, 3.0])


def test_gradient_examples():
    f = Poly.from_terms(2, 2, {(2, 0): 1.0, (0, 2): 1.0})
    assert f.gradient((1.0, 1.0)) == pytest.approx([2.0, 2.0])
    g = Poly.from_terms(2, 1, {(1, 0): 1.0, (0, 1): -1.0})
    assert g.gradient((0.7, 0.1)) == pytest.approx([1.0, -1.0])


def test_gradient_vanishes_on_singular_circle():
    f = sphere_plane_polynomial()
    grads = f.gradient(singular_circle_points(64))
    assert np.abs(grads).max() <= 1e-10


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(12)
    h = 1e-6
    for n in (1, 2, 3):
        basis = enumerate_monomials(n, 5)
        for _ in range(5):
            f = Poly(basis, rng.standard_normal(len(basis)))
            x = rng.random(n)
            grad = f.gradient(x)
            for j in range(n):
                e = np.zeros(n)
                e[j] = h
                fd = (f.evaluate(x + e) - f.evaluate(x - e)) / (2 * h)
                scale = max(abs(grad[j]), 1e-3)
                assert abs(fd - grad[j]) / scale < 1e-5


def test_eval_linear_in_coefficients():
    rng = np.random.default_rng(5)
    basis = enumerate_monomials(3, 3)
    c1 = rng.standard_normal(len(basis))
    c2 = rng.standard_normal(len(basis))
    pts = rng.random((50, 3))
    lhs = Poly(basis, c1 + c2).evaluate(pts)
    rhs = Poly(basis, c1).evaluate(pts) + Poly(basis, c2).evaluate(pts)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_sum_of_squares_single():
    f = Poly.from_terms(2, 1, {(1, 0): 1.0, (0, 1): -1.0})
    sq = sum_of_squares([f])
    expected = Poly.from_terms(2, 2, {(2, 0): 1.0, (1, 1): -2.0, (0, 2): 1.0})
    assert sq.basis == expected.basis
    assert np.array_equal(sq.coeffs, expected.coeffs)


def test_sum_of_squares_pair():
    x = Poly.from_terms(2, 1, {(1, 0): 1.0})
    y = Poly.from_terms(2, 1, {(0, 1): 1.0})
    sq = sum_of_squares([x, y])
    expected = Poly.from_terms(2, 2, {(2, 0): 1.0, (0, 2): 1.0})
    assert np.array_equal(sq.coeffs, expected.coeffs)


def test_sum_of_squares_evaluation_consistency():
    rng = np.random.default_rng(7)
    basis = enumerate_monomials(3, 2)
    fs = [Poly(basis, rng.standard_normal(len(basis))) for _ in range(3)]
    sq = sum_of_squares(fs)
    pts = rng.random((100, 3))
    direct = sum(f.evaluate(pts) ** 2 for f in fs)
    assert np.abs(sq.evaluate(pts) - direct).max() <= 1e-10
    assert (sq.evaluate(pts) >= 0).all()


def test_sum_of_squares_rejects_empty_and_mixed():
    with pytest.raises(ValueError):
        sum_of_squares([])
    f2 = Poly.from_terms(2, 1, {(1, 0): 1.0})
    f3 = Poly.from_terms(3, 1, {(1, 0, 0): 1.0})
    with pytest.raises(ValueError):
        sum_of_squares([f2, f3])


def test_multiply_matches_pointwise():
    rng = np.random.default_rng(9)
    a = Poly(enumerate_monomials(2, 2), rng.standard_normal(6))
    b = Poly(enumerate_monomials(2, 1), rng.standard_normal(3))
    prod = multiply(a, b)
    assert prod.basis.degree == 3
    pts = rng.random((40, 2))
    assert np.abs(prod.evaluate(pts) - a.evaluate(pts) * b.evaluate(pts)).max() < 1e-12


def test_gradient_polys_share_basis():
    f = sphere_plane_polynomial()
    for g in gradient_polys(f):
        assert g.basis == f.basis


def test_poly_validation_and_normalization():
    basis = enumerate_monomials(2, 1)
    with pytest.raises(ValueError):
        Poly(basis, np.ones(4))
    f = Poly(basis, [3.0, 4.0, 0.0])
    assert f.norm == pytest.approx(5.0)
    assert not f.is_normalized
    g = f.normalized()
    assert g.is_normalized
    with pytest.raises(ValueError):
        Poly(basis, np.zeros(3)).normalized()


def test_coeffs_immutable():
    f = Poly.from_terms(2, 1, {(1, 0): 1.0})
    with pytest.raises(ValueError):
        f.coeffs[0] = 2.0


def test_basis_index_lookup():
    basis = enumerate_monomials(3, 2)
    for k, alpha in enumerate(basis.exponents):
        assert basis.index(alpha) == k


def _same_bits(a, b):
    # Equal shape and bytes: stricter than array_equal, which ignores the
    # sign of zero. The package's table must also be C-contiguous.
    return a.shape == b.shape and a.flags.c_contiguous and a.tobytes() == b.tobytes()


def _check_table(table, pts, basis):
    # The table's bits are the left-to-right products of its factors, and
    # it is within its accuracy bound of the power-and-product reference.
    exps = basis.exponent_array
    assert _same_bits(table, sequential_monomials(pts, exps))
    reference = broadcast_monomials(pts, exps)
    bound = monomial_error_bound(basis.n, basis.degree)
    assert (np.abs(table - reference) <= bound * np.abs(reference)).all()


def _check_kernel_equivalence(n, degree, m, seed, cuts, rows):
    rng = np.random.default_rng(seed)
    basis = enumerate_monomials(n, degree)
    f = Poly(basis, rng.standard_normal(len(basis)))
    pts = rng.random((m, n))
    table = monomials(pts, basis)
    _check_table(table, pts, basis)
    U = vandermonde(PointCloud(pts), basis)
    assert _same_bits(U, table)
    # evaluate keeps a 2^10 margin under its accuracy bound against the
    # power-and-sum references.
    values = f.evaluate(pts)
    bound = evaluate_error_bound(f)
    for reference in (broadcast_evaluate(f, pts), basis_order_sum(U, f.coeffs)):
        assert np.abs(values - reference).max(initial=0.0) <= 2.0**-10 * bound
    grads = f.gradient(pts)
    for j, g in enumerate(gradient_polys(f)):
        assert _same_bits(np.ascontiguousarray(grads[:, j]), g.evaluate(pts))
    # A row's bits depend on that row alone: the rows split at any cut, or
    # taken one at a time, give the same bits as the whole.
    for cut in cuts:
        assert _same_bits(np.concatenate([f.evaluate(pts[:cut]), f.evaluate(pts[cut:])]), values)
        assert _same_bits(np.concatenate([f.gradient(pts[:cut]), f.gradient(pts[cut:])]), grads)
    for i in rows:
        assert _same_bits(f.evaluate(pts[i : i + 1]), values[i : i + 1])
        assert _same_bits(f.gradient(pts[i]), grads[i])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 5),
    degree=st.integers(0, 5),
    m=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_monomial_kernel_matches_broadcast_reference(n, degree, m, seed):
    # The table and vandermonde agree bit for bit with the independent
    # sequential products, and within their bound of the broadcast powers;
    # evaluate is within its accuracy bound of the broadcast and
    # basis-order sums; gradient agrees bit for bit with the derivative
    # polynomials; and evaluate and gradient agree with
    # themselves split at every cut offset up to 32 (every residue mod 4,
    # 8, 16 and 32, where a blocked matrix-vector product would sum in
    # another order) and row by row
    k = min(m, 33)
    _check_kernel_equivalence(n, degree, m, seed, range(1, k), range(k))


@pytest.mark.parametrize(
    "n,degree", [(1, 5), (3, 3), (5, 5), (1, 9), (2, 6), (3, 5), (4, 5), (5, 4)]
)
def test_monomial_kernel_across_block_boundary(n, degree):
    # Cuts at every residue mod 4 (where a blocked matrix-vector product
    # would change the summation order) and around the internal 8192-row
    # block boundary; rows around the cuts are also evaluated alone. The
    # degrees reach 9 in one variable and N = 126 in five, where the
    # accuracy bound's margin is checked on 8199 points.
    m = 2 * 4096 + 7
    cuts = [1, 2, 3, 4094, 4095, 4097, 8190, 8191, 8192, 8193, 8198]
    rows = sorted({i for cut in cuts for i in (cut - 1, cut)})
    _check_kernel_equivalence(n, degree, m, 4103, cuts, rows)


@pytest.mark.parametrize(
    "n,degree,m",
    [(1, 0, 5), (1, 1, 5), (1, 6, 300), (3, 0, 17), (2, 4, 0), (1, 0, 0), (5, 5, 0), (4, 3, 2)],
)
def test_monomial_table_equals_broadcast_reference(n, degree, m):
    # The table itself, against the sequential products bit for bit and
    # the broadcast powers within its bound, and vandermonde's copy of it;
    # includes one variable, the constant-only basis and an empty stack of
    # points.
    basis = enumerate_monomials(n, degree)
    pts = np.random.default_rng(100 * n + degree).random((m, n))
    table = monomials(pts, basis)
    assert table.shape == (m, len(basis))
    _check_table(table, pts, basis)
    if m:
        assert _same_bits(vandermonde(PointCloud(pts), basis), table)
    if degree == 0:
        assert (table == 1.0).all()
    f = Poly(basis, np.arange(1.0, len(basis) + 1))
    assert f.evaluate(pts).shape == (m,)
    assert f.gradient(pts).shape == (m, n)


# Points at which numpy's scalar-exponent fast path (x ** 2.0, i.e. x * x)
# and repeated multiplication (x * x * x) differ from pow() with an array
# exponent on AVX-512 hardware, where numpy's vectorized pow is not
# correctly rounded. The table must carry the products' bits, so a kernel
# that takes pow() instead fails here.
POW_EDGE_POINTS = np.array([
    float.fromhex(h)
    for h in (
        "0x1.a4c1c5ea473c0p-7",
        "0x1.bfceb973ded86p-1",
        "0x1.fab4a18ef9d34p-2",
        "0x1.59ed625c1166cp-1",
        "0x1.7822efe106f58p-3",
        "0x1.2f75a523aca66p-2",
    )
])


def test_monomial_table_multiplies():
    x, y = POW_EDGE_POINTS, POW_EDGE_POINTS[::-1]
    basis = enumerate_monomials(2, 3)
    table = monomials(np.column_stack([x, y]), basis)
    assert table[:, basis.index((3, 0))].tobytes() == (x * x * x).tobytes()
    assert table[:, basis.index((2, 1))].tobytes() == (x * x * y).tobytes()


def test_pow_edge_points_separate_pow_from_multiplication():
    # Where this skips, the test above cannot tell the kernels apart.
    x = POW_EDGE_POINTS
    square = np.power(x, np.full(len(x), 2.0))
    cube = np.power(x, np.full(len(x), 3.0))
    if (x ** 2.0 == square).all() and (x * x * x == cube).all():
        pytest.skip("this platform's pow() agrees with multiplication on these points")
    assert (x ** 2.0 != square).all()
    assert (x * x * x != cube).all()
