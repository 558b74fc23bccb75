"""Dense multivariate polynomials over a fixed monomial basis.

A polynomial in n variables of total degree <= D is stored as a dense
coefficient vector of length N = binom(n+D, D) against the graded
lexicographic basis (highest total degree first, ties broken by descending
lexicographic comparison of exponent vectors, constant monomial last).
Fixing the order makes coefficient vectors, eigenvectors, and serialized
models reproducible across runs.

All types are immutable after construction and all operations are pure.

Monomials are computed by elementwise, correctly rounded ``np.multiply``
and ``np.add`` calls on preallocated buffers, and by nothing else: no
power function and no BLAS, so no bit depends on the CPU numpy dispatches
to. A polynomial is evaluated by its nested Horner form (``_Horner``),
about two in-place calls per term. ``Poly.evaluate`` runs it on the
coefficients, ``Poly.gradient`` on each partial derivative's, and the
direct sampler on every proposal; its bits define every seeded sample and
filter. Fitting's monomial table (``monomials``) is a product tree, one
multiplication per monomial, and its bits define every seeded fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "MonomialBasis",
    "Poly",
    "enumerate_monomials",
    "gradient_polys",
    "monomials",
    "multiply",
    "sum_of_squares",
]

# Rows processed per block by evaluate and gradient, to bound the size of
# their buffers. Results do not depend on it.
_EVAL_CHUNK = 8192

UNIT_NORM_TOL = 1e-12


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    # Exponent vectors summing to `total`, in descending lexicographic order.
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@dataclass(frozen=True)
class MonomialBasis:
    """All monomials in ``n`` variables of total degree <= ``degree``.

    The basis length is binom(n + degree, degree) and the ordering is
    graded lexicographic descending, so the constant monomial sits last.
    """

    n: int
    degree: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one variable, got n={self.n}")
        if self.degree < 0:
            raise ValueError(f"degree bound must be >= 0, got {self.degree}")

    @cached_property
    def exponents(self) -> tuple[tuple[int, ...], ...]:
        """Ordered multi-indices alpha with |alpha| <= degree."""
        out = []
        for d in range(self.degree, -1, -1):
            out.extend(_compositions(d, self.n))
        return tuple(out)

    @cached_property
    def exponent_array(self) -> np.ndarray:
        """Exponents as a read-only (N, n) integer array."""
        arr = np.array(self.exponents, dtype=np.int64)
        arr.setflags(write=False)
        return arr

    @cached_property
    def _parents(self) -> tuple[tuple[int, int, int], ...]:
        """The product tree of the monomial table, in ascending degree.

        One (k, parent, j) per non-constant monomial: x^alpha_k is
        x^alpha_parent * x_j, where j is the last variable alpha_k uses.
        """
        out = []
        for k in range(len(self) - 2, -1, -1):
            alpha = self.exponents[k]
            j = max(i for i, a in enumerate(alpha) if a)
            out.append((k, self.index(alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :]), j))
        return tuple(out)

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        return {alpha: k for k, alpha in enumerate(self.exponents)}

    def index(self, alpha: Sequence[int]) -> int:
        """Position of the multi-index ``alpha`` in the basis order."""
        return self._index[tuple(alpha)]

    def __len__(self) -> int:
        return math.comb(self.n + self.degree, self.degree)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.exponents)


def enumerate_monomials(n: int, degree: int) -> MonomialBasis:
    """Monomial basis for n >= 1 variables up to the given degree bound."""
    return MonomialBasis(n=n, degree=degree)


@dataclass(frozen=True, eq=False)
class Poly:
    """Real polynomial: a coefficient vector against a MonomialBasis."""

    basis: MonomialBasis
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.coeffs, dtype=float)
        if c.shape != (len(self.basis),):
            raise ValueError(
                f"coefficient vector has shape {c.shape}, basis needs ({len(self.basis)},)"
            )
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_terms(
        cls, n: int, degree: int, terms: Mapping[Sequence[int], float]
    ) -> "Poly":
        """Build a Poly from a {multi-index: coefficient} mapping."""
        basis = enumerate_monomials(n, degree)
        c = np.zeros(len(basis))
        for alpha, value in terms.items():
            c[basis.index(alpha)] += value
        return cls(basis, c)

    @property
    def n(self) -> int:
        return self.basis.n

    @property
    def norm(self) -> float:
        """Euclidean norm of the coefficient vector."""
        return float(np.linalg.norm(self.coeffs))

    @property
    def is_normalized(self) -> bool:
        return abs(self.norm - 1.0) <= UNIT_NORM_TOL

    def normalized(self) -> "Poly":
        nrm = self.norm
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero polynomial")
        return Poly(self.basis, self.coeffs / nrm)

    def _as_points(self, points) -> tuple[np.ndarray, bool]:
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        if pts.ndim != 2 or pts.shape[1] != self.basis.n:
            raise ValueError(
                f"points have dimension {pts.shape[-1] if pts.ndim else '?'}, "
                f"polynomial has {self.basis.n} variables"
            )
        return pts, single

    def evaluate(self, points):
        """Evaluate at one point (n,) or a stack of points (m, n).

        Returns a float for a single point, an (m,) array otherwise.
        Computed by the polynomial's nested Horner form, whose elementwise,
        correctly rounded products and sums make each row's value depend on
        that row alone. On [0,1]^n it is within gamma_(2D+n) * sum|c_k| of
        the exact value (see ``_Horner``).
        """
        pts, single = self._as_points(points)
        out = _evaluate((self._horner,), pts)[0]
        return float(out[0]) if single else out

    __call__ = evaluate

    @cached_property
    def _partials(self) -> tuple[np.ndarray, ...]:
        # Coefficient vectors of the n partial derivatives, same basis.
        basis = self.basis
        out = []
        for j in range(basis.n):
            c = np.zeros(len(basis))
            for k, alpha in enumerate(basis.exponents):
                if alpha[j] == 0:
                    continue
                shifted = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :]
                c[basis.index(shifted)] += alpha[j] * self.coeffs[k]
            out.append(c)
        return tuple(out)

    @cached_property
    def _horner(self) -> "_Horner":
        return _Horner(self.basis, self.coeffs)

    @cached_property
    def _partial_horners(self) -> tuple["_Horner", ...]:
        return tuple(_Horner(self.basis, c) for c in self._partials)

    def gradient(self, points):
        """Partial derivatives at one point (-> (n,)) or a stack (-> (m, n)).

        Column j runs the Horner form of the j-th partial's coefficients,
        bit for bit what ``gradient_polys(f)[j].evaluate`` returns.
        """
        pts, single = self._as_points(points)
        out = np.ascontiguousarray(_evaluate(self._partial_horners, pts).T)
        return out[0] if single else out


class _Horner:
    """Nested Horner form of a polynomial: the package's evaluator.

    f is written as a polynomial in x_1 whose coefficients are polynomials
    in x_2, and so on down to constants; each level runs Horner's rule,
    acc = acc * x_j + q_i, skipping the additions of absent q_i. ``bind``
    turns that into a list of elementwise in-place ufunc calls on one
    (n, b) column buffer and n preallocated registers.

    Its accuracy on [0,1]^n, where |x^alpha| <= 1: write u = 2^-53 and
    gamma_k = k u / (1 - k u), with D the basis degree and S = sum |c_k|.
    Every rounded operation is x o y times (1 + delta), |delta| <= u, so a
    computed sum of terms is sum c_k x^alpha_k (1 + theta_k), where
    |theta_k| <= gamma_j when term k passes through j rounded operations.
    At a level where the term's exponent is a, it is added once and then
    multiplied and added at most a times each: 2a + 1 operations per
    level, at most 2D + n in all. So, barring overflow and underflow,
    |horner - f| <= gamma_(2D+n) S.
    """

    def __init__(self, basis: MonomialBasis, coeffs: np.ndarray) -> None:
        self.n = basis.n
        terms = [(alpha, float(c)) for alpha, c in zip(basis.exponents, coeffs) if c != 0.0]
        self._steps: list[tuple] = []
        self._constant = self._compile(0, terms, 0)

    def _compile(self, j: int, terms, dst: int):
        # Appends the steps that leave sum c * x^alpha over `terms` in
        # register dst and returns None, or returns the value itself when
        # no variable from x_j on appears. Register j + 1 holds a level-j
        # coefficient q_i while it is computed; dst is at most j.
        while j < self.n and not any(alpha[j] for alpha, _ in terms):
            j += 1
        if j == self.n:
            return terms[0][1] if terms else 0.0
        groups: dict[int, list] = {}
        for alpha, c in terms:
            groups.setdefault(alpha[j], []).append((alpha, c))
        x, acc = ("x", j), ("r", dst)
        top = max(groups)
        lead = self._compile(j + 1, groups[top], dst)
        if lead is None:
            self._steps.append((np.multiply, acc, x, acc))
        else:
            self._steps.append((np.multiply, x, lead, acc))
        for i in range(top - 1, -1, -1):
            if i in groups:
                q = self._compile(j + 1, groups[i], j + 1)
                self._steps.append((np.add, acc, ("r", j + 1) if q is None else q, acc))
            if i:
                self._steps.append((np.multiply, acc, x, acc))
        return None

    def bind(self, cols: np.ndarray):
        """A function returning f at the current (n, b) contents of cols.

        The returned (b,) array is a register the next call overwrites.
        """
        regs = np.empty((self.n, cols.shape[1]))

        def resolve(ref):
            if isinstance(ref, float):
                return ref
            return (cols if ref[0] == "x" else regs)[ref[1]]

        steps = [(ufunc, resolve(a), resolve(b), resolve(out)) for ufunc, a, b, out in self._steps]
        if self._constant is not None:
            regs[0].fill(self._constant)

        def run() -> np.ndarray:
            for ufunc, a, b, out in steps:
                ufunc(a, b, out)
            return regs[0]

        return run


def _evaluate(programs, pts: np.ndarray) -> np.ndarray:
    # out[j, i] = programs[j] at row i, _EVAL_CHUNK rows at a time. Each
    # chunk binds fresh buffers, so concurrent calls share none.
    out = np.empty((len(programs), pts.shape[0]))
    for start in range(0, pts.shape[0], _EVAL_CHUNK):
        stop = start + _EVAL_CHUNK
        cols = np.ascontiguousarray(pts[start:stop].T)
        for row, program in zip(out, programs):
            row[start:stop] = program.bind(cols)()
    return out


def monomials(points: np.ndarray, basis: MonomialBasis) -> np.ndarray:
    """Monomial table M[i, k] = x_i^alpha_k of (m, n) points, shape (m, N).

    Built by the basis's product tree (``MonomialBasis._parents``): the
    constant column is 1, and every other column is its parent column times
    one variable. So x^alpha is 1 multiplied by x_1 alpha_1 times, then by
    x_2 alpha_2 times, and so on, each product correctly rounded; each row
    depends on that row alone.
    """
    cols = np.ascontiguousarray(np.asarray(points, dtype=float).T)
    out = np.empty((len(basis), cols.shape[1]))
    out[-1] = 1.0
    for k, parent, j in basis._parents:
        np.multiply(out[parent], cols[j], out[k])
    return np.ascontiguousarray(out.T)


def gradient_polys(f: Poly) -> tuple[Poly, ...]:
    """The n partial derivatives of f, expressed in the same basis."""
    return tuple(Poly(f.basis, c) for c in f._partials)


def _term_dict(f: Poly) -> dict[tuple[int, ...], float]:
    return {
        alpha: float(c)
        for alpha, c in zip(f.basis.exponents, f.coeffs)
        if c != 0.0
    }


def _convolve(pairs: list[tuple[Poly, Poly]]) -> Poly:
    # Sum of the products f * g over the pairs, by exponent-vector
    # convolution; terms accumulate in pair order, then term order.
    n = pairs[0][0].basis.n
    if any(p.basis.n != n for pair in pairs for p in pair):
        raise ValueError("polynomials have different variable counts")
    acc: dict[tuple[int, ...], float] = {}
    for f, g in pairs:
        g_terms = _term_dict(g)
        for alpha, ca in _term_dict(f).items():
            for beta, cb in g_terms.items():
                gamma = tuple(a + b for a, b in zip(alpha, beta))
                acc[gamma] = acc.get(gamma, 0.0) + ca * cb
    degree = max(f.basis.degree + g.basis.degree for f, g in pairs)
    return Poly.from_terms(n, degree, acc)


def multiply(f: Poly, g: Poly) -> Poly:
    """Product of two polynomials by exact exponent-vector convolution."""
    return _convolve([(f, g)])


def sum_of_squares(fs: Iterable[Poly]) -> Poly:
    """Sum of squares f_1^2 + ... + f_k^2 as a single degree-2D polynomial.

    The inputs must share a variable count; the result is expressed over
    the basis of degree 2 * max(deg bound). Its zero set is the common
    zero set of the inputs.
    """
    pairs = [(f, f) for f in fs]
    if not pairs:
        raise ValueError("need at least one polynomial")
    return _convolve(pairs)
