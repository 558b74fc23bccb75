"""Wasserstein distances between point clouds.

Convention: 2-Wasserstein with Euclidean ground metric and uniform weights,
reported as the root of the coupling-weighted mean squared distance. Two
solvers: the exact assignment solver for equal-size clouds, and entropically
regularized Sinkhorn scaling (stabilized, kernel-domain, over-relaxed) for
any sizes, whose cost is reported sharp (without the entropy term). The
library does not pick between them; `cli._transports`, which schedules
every transport of `compare` and `pipeline`, does, from the cloud sizes
alone: exact for equal sizes, Sinkhorn otherwise.

The exact solver is scipy's linear_sum_assignment, warm-started with
approximate dual potentials f, g (the dual initialization of Jonker &
Volgenant 1987) from a few entropic Sinkhorn sweeps (Cuturi 2013). It
solves the same assignment problem shifted by row and column constants,
C_ij - f_i - g_j: every assignment's total moves by the same sum of f and
g, so the optimal assignments are the same, and the cost is read off the
matched pairs' unshifted squared distances, so it stays exact. The
reductions, the kernel and the shifted problem all live in the one (m, m)
buffer the cost matrix is built in, refilled once from the clouds before
the shift.

The sweeps run on a float32 Gibbs kernel held in the first half of that
float64 buffer, one pass over blocks of WARM_START_ROW_BLOCK rows per
sweep. Each block's two products are small float32 matrix-vector
products on a block that stays in cache, so a sweep takes about 0.8 ms at
m = 1600 whether or not OpenBLAS threads it, and whether or not another
thread's assignment solve holds the other core. A whole-matrix float64
sweep takes 1.8 ms on one thread; handed to OpenBLAS's thread pool while
the pipeline's concurrent solves hold both cores, its 90th percentile
reached 15 ms (2-core x86_64, OpenBLAS 0.3.31). Scalings that leave
[1 / ABSORB_BOUND, ABSORB_BOUND] are folded into the kernel in place, as
Sinkhorn folds them into its potentials, so no float32 product in a
sweep is subnormal.

The Sinkhorn update is over-relaxed, u <- u * (mu / (u * K v))^omega and
then v <- v * (nu / (v * K^T u))^omega (Thibault, Chizat, Dossal &
Papadakis 2017, "Overrelaxed Sinkhorn-Knopp"; Lehmann, von Renesse, Sambale
& Uschmajew 2022, "A note on overrelaxation in the Sinkhorn algorithm").
omega is not a parameter: every OMEGA_WINDOW iterations it is read off the
observed error decay (see _relaxation), and a stage whose best marginal
error has not improved for OMEGA_STALL iterations finishes at omega = 1.
The solve stops when the larger of the row and column L1 marginal errors
of the current scalings is at most SINKHORN_TOL, or as soon as that error
is NaN: a scaling that overflowed (at a reg far below the squared
distances) never recovers, so the plan is reported as not converged.

Sinkhorn holds two dense (m, m') matrices: the cost matrix and one kernel
buffer, allocated once per solve and rebuilt in place at every stage and
every absorption; the final plan is built in it too, and the plan's cost
is summed in the cost matrix's buffer, so a solve's peak is about two
dense matrices (2.2 times 8 m m' bytes under tracemalloc at 241 x 400).
Exponents below log(ABSORB_BOUND * tiny) - 1 are raised to it before
np.exp: their entries fall below ABSORB_BOUND * tiny, which the kernel
zeroes either way (see _kernel), so every bit of the kernel stays as it
was, but np.exp computes no subnormal result. On a 241 x 400 kernel with
half its exponents below -708, np.exp took 1.9 ms, against 0.08 ms on the
raised exponents (2-core x86_64, numpy 2.4.6). At 1600 x 1500 and the
default reg, a solve takes about 0.55 s on that machine.

Both solvers build the dense (m, m') squared-distance matrix through
_cost_matrix, the one place that refuses m * m' > EXACT_SIZE_CAP**2
(128 MiB of float64) before allocating it. So equal clouds of more than
EXACT_SIZE_CAP points are refused by either solver.

cdist and linear_sum_assignment, the module's only SciPy names, are
imported and bound on first use (PEP 562's module __getattr__), so only a
command that transports pays for SciPy's import; both stay module
attributes that a test can patch.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, field

import numpy as np

from .cloud import EXACT_SIZE_CAP, PointCloud, check_dense_budget

__all__ = [
    "TransportPlan",
    "wasserstein_exact",
    "wasserstein_sinkhorn",
]

# SciPy name -> the module it is imported from on first use.
_SCIPY_NAMES = {
    "cdist": "scipy.spatial.distance",
    "linear_sum_assignment": "scipy.optimize",
}


def __getattr__(name: str):
    """Import a SciPy name on first access and bind it in this module."""
    if name not in _SCIPY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # A first access from several pool threads at once is safe: Python's
    # import lock runs the import once, and each thread binds the same object.
    value = getattr(importlib.import_module(_SCIPY_NAMES[name]), name)
    globals()[name] = value
    return value


def _scipy(name: str):
    """This module's `name` as bound now, a patch included, or imported."""
    return globals()[name] if name in globals() else __getattr__(name)


# wasserstein_sinkhorn's default reg, as a fraction of the median squared
# distance between the two clouds.
DEFAULT_REG_FRACTION = 0.002
# Sinkhorn converges when the larger L1 marginal error of its plan is at
# most SINKHORN_TOL; stages above the target reg stop at 1e-4 already.
SINKHORN_TOL = 1e-6
# Sinkhorn scalings, and the warm start's, outside [1 / ABSORB_BOUND,
# ABSORB_BOUND] are folded into the log potentials before they can overflow
# or underflow the kernel.
ABSORB_BOUND = 1e3
# Sinkhorn's kernel sets entries below _KERNEL_ZERO_BELOW to zero, and raises
# every exponent to at least _KERNEL_EXP_FLOOR first, whose exp is below that
# threshold (see _kernel).
_KERNEL_ZERO_BELOW = ABSORB_BOUND * float(np.finfo(float).tiny)
_KERNEL_EXP_FLOOR = math.log(_KERNEL_ZERO_BELOW) - 1.0
# Sinkhorn re-reads its over-relaxation factor from the error decay every
# OMEGA_WINDOW iterations, keeps it below OMEGA_MAX, and falls back to plain
# scaling for the rest of a stage once its best marginal error is
# OMEGA_STALL iterations old.
OMEGA_WINDOW = 20
OMEGA_MAX = 1.95
OMEGA_STALL = 200
# wasserstein_exact warm-starts the assignment solver from WARM_START_SWEEPS
# Sinkhorn sweeps at WARM_START_EPS_FRACTION of the mean reduced cost, on a
# float32 kernel swept WARM_START_ROW_BLOCK rows at a time (a 128 x 1600
# float32 block is 800 KiB, and stays in cache between its two products).
# Reduced cost / eps is capped at WARM_START_EXP_CAP, the largest integer
# for which exp(-cap) / ABSORB_BOUND is still a normal float32 (80:
# exp(-80) / 1e3 is ~1.8e-38, float32's smallest normal ~1.2e-38).
WARM_START_EPS_FRACTION = 0.02
WARM_START_SWEEPS = 60
WARM_START_ROW_BLOCK = 128
WARM_START_EXP_CAP = float(math.floor(-math.log(ABSORB_BOUND * float(np.finfo(np.float32).tiny))))


@dataclass(frozen=True)
class TransportPlan:
    """A coupling between two uniform clouds and its transport cost.

    cost      root of sum_ij coupling[i,j] * |a_i - b_j|^2
    coupling  (m, m') nonnegative matrix with row sums 1/m, column sums 1/m'
    method    "exact-assignment" or "sinkhorn"
    omega     Sinkhorn's over-relaxation factor when it stopped (1.0 for
              plain scaling and for exact plans)

    The plan holds a read-only view of the coupling it is given: no copy is
    made, and the caller's array keeps its own flags.
    """

    cost: float
    coupling: np.ndarray = field(repr=False)
    method: str
    iterations: int = 0
    converged: bool = True
    marginal_error: float = 0.0
    omega: float = 1.0

    def __post_init__(self) -> None:
        view = np.asarray(self.coupling).view()
        if view.ndim != 2:
            raise ValueError(f"a plan needs an (m, m') coupling, got shape {view.shape}")
        view.setflags(write=False)
        object.__setattr__(self, "coupling", view)


def _cost_matrix(a: PointCloud, b: PointCloud, out: np.ndarray | None = None) -> np.ndarray:
    """Dense (m, m') squared-distance matrix, refused over the budget.

    With out, the matrix is written into that (m, m') float64 buffer.
    Clouds whose joint bounding box has a squared diagonal that overflows
    float64 are refused too, before any pairwise distance is computed.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.m == 0 or b.m == 0:
        raise ValueError("cannot transport an empty cloud")
    check_dense_budget(a.m, b.m, "cost matrix")
    lo = np.minimum(a.points.min(axis=0), b.points.min(axis=0))
    hi = np.maximum(a.points.max(axis=0), b.points.max(axis=0))
    with np.errstate(over="ignore"):
        diagonal = float(np.square(hi - lo).sum())
    if not math.isfinite(diagonal):
        raise ValueError(
            f"the clouds' coordinates range over [{lo.min():.6g}, {hi.max():.6g}], "
            "so squared distances between them overflow float64; rescale the clouds"
        )
    return _scipy("cdist")(a.points, b.points, metric="sqeuclidean", out=out)


def _paired_sqeuclidean(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|x_i - y_i|^2 for each row i of two (m, n) arrays.

    The squared coordinate differences are summed left to right, as
    cdist's sqeuclidean sums them, so the result is cdist(x, y)[i, i] bit
    for bit.
    """
    d = x - y
    out = d[:, 0] * d[:, 0]
    for j in range(1, d.shape[1]):
        out += d[:, j] * d[:, j]
    return out


def _subtract_duals(C: np.ndarray, f: np.ndarray, g: np.ndarray) -> None:
    """C_ij <- (C_ij - f_i) - g_j in place.

    Row by row, because a broadcast ufunc takes a 64 KiB iterator buffer,
    a twentieth of the whole matrix at m = 400.
    """
    for row, fi in zip(C, f):
        row -= fi
        row -= g


def _absorb(K: np.ndarray, u: np.ndarray, v: np.ndarray, blocks: list[slice]) -> None:
    """K_ij <- max(u_i K_ij v_j, exp(-WARM_START_EXP_CAP)) in place.

    Row by row within each block of rows, because a broadcast ufunc takes
    an iterator buffer.
    """
    floor = float(np.exp(np.float32(-WARM_START_EXP_CAP)))
    for b in blocks:
        for row, ui in zip(K[b], u[b]):
            row *= ui
            row *= v
        np.maximum(K[b], floor, out=K[b])


def _warm_start_duals(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Approximate assignment duals f, g for the square cost matrix C, which
    is overwritten.

    Row minima r and then column minima c are subtracted, leaving a
    reduced matrix R >= 0 with a zero in every row and column. At
    eps = WARM_START_EPS_FRACTION * mean(R), the Gibbs kernel
    K = exp(-min(R / eps, WARM_START_EXP_CAP)) is written as float32 into
    the first half of C's own buffer, a block of rows at a time; float32
    row i sits in float64 row i / 2, so every row is read before it is
    written over. WARM_START_SWEEPS plain Sinkhorn sweeps u = 1 / (K v),
    v = 1 / (u K) follow, each one pass over blocks of
    WARM_START_ROW_BLOCK rows: u_b = 1 / (K_b v), then s += u_b K_b, and
    v = 1 / s at the end, so a block is read twice while it is in cache.
    After a sweep, scalings outside [1 / ABSORB_BOUND, ABSORB_BOUND] are
    folded into f, g and, in place, into K, whose entries stay at or
    above exp(-WARM_START_EXP_CAP): no product in a sweep is subnormal
    (see _kernel). This gives f = r + eps log u, g = c + eps log v, so
    that C_ij - f_i - g_j is near zero on a near-optimal assignment. The
    duals are zeros when eps is not > 0 (every entry of R is zero) or
    when any of them is not finite.
    """
    m, mp = C.shape
    zero_f, zero_g = np.zeros(m), np.zeros(mp)
    r = C.min(axis=1)
    _subtract_duals(C, r, zero_g)
    c = C.min(axis=0)
    _subtract_duals(C, zero_f, c)
    eps = WARM_START_EPS_FRACTION * float(C.mean())
    if not eps > 0:
        return zero_f, zero_g
    K = C.reshape(-1).view(np.float32)[: m * mp].reshape(m, mp)
    # Blocks [b0, b1) with b1 <= 2 * b0 hold float32 rows that lie wholly in
    # float64 rows already read; row 0 overlaps itself and is copied first.
    b0 = 0
    while b0 < m:
        b1 = min(m, max(2 * b0, 1), b0 + WARM_START_ROW_BLOCK)
        R = C[b0:b1]
        np.divide(R, -eps, out=R)
        np.maximum(R, -WARM_START_EXP_CAP, out=R)
        K[b0:b1] = R
        np.exp(K[b0:b1], out=K[b0:b1])
        b0 = b1
    blocks = [slice(b0, b0 + WARM_START_ROW_BLOCK) for b0 in range(0, m, WARM_START_ROW_BLOCK)]
    f, g = r, c
    u, v = np.ones(m, dtype=np.float32), np.ones(mp, dtype=np.float32)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(WARM_START_SWEEPS):
            s = np.zeros(mp, dtype=np.float32)
            for b in blocks:
                s += np.divide(1.0, K[b] @ v, out=u[b]) @ K[b]
            v = np.divide(1.0, s, out=s)
            if max(u.max(), v.max(), 1.0 / u.min(), 1.0 / v.min()) > ABSORB_BOUND:
                f += eps * np.log(u, dtype=float)
                g += eps * np.log(v, dtype=float)
                _absorb(K, u, v, blocks)
                u[:], v[:] = 1.0, 1.0
        f += eps * np.log(u, dtype=float)
        g += eps * np.log(v, dtype=float)
    if not (np.isfinite(f).all() and np.isfinite(g).all()):
        return zero_f, zero_g
    return f, g


def wasserstein_exact(a: PointCloud, b: PointCloud) -> TransportPlan:
    """Optimal assignment between two equal-size clouds.

    Solves the squared-Euclidean assignment problem in polynomial time;
    the cost is (mean squared matched distance)^(1/2).

    The solver is warm-started (Jonker & Volgenant 1987) with approximate
    duals f, g from a few entropic Sinkhorn sweeps (Cuturi 2013; see
    _warm_start_duals): it solves the same assignment problem shifted by
    row and column constants, C_ij - f_i - g_j, which has the same optimal
    assignments. The cost is then read off the matched pairs (see
    _paired_sqeuclidean), bit for bit the unshifted matrix's, so it is
    exact. The rest happens in the one (m, m) buffer the cost matrix is
    built in, refilled once from the clouds before the shift; that buffer
    is freed before the dense coupling is built, so the two never coexist.
    """
    if a.m != b.m:
        raise ValueError(
            f"exact transport needs equal cloud sizes, got {a.m} and {b.m} "
            "(use wasserstein_sinkhorn)"
        )
    C = _cost_matrix(a, b)
    f, g = _warm_start_duals(C)
    _cost_matrix(a, b, out=C)
    _subtract_duals(C, f, g)
    rows, cols = _scipy("linear_sum_assignment")(C)
    del C
    cost = float(np.sqrt(np.mean(_paired_sqeuclidean(a.points[rows], b.points[cols]))))
    coupling = np.zeros((a.m, a.m))
    coupling[rows, cols] = 1.0 / a.m
    return TransportPlan(cost, coupling, "exact-assignment")


def _kernel(f: np.ndarray, g: np.ndarray, C: np.ndarray, eps: float, out: np.ndarray) -> np.ndarray:
    """Gibbs kernel with the log potentials absorbed, exp((f_i + g_j - C_ij) / eps),
    written into the (m, m') float64 buffer out, which is returned.

    Entries too small for their product with a scaling in
    [1 / ABSORB_BOUND, ABSORB_BOUND] to be a normal float are set to zero:
    they cannot move any row or column sum, and matrix-vector products
    over subnormal floats run about 100x slower.

    The exponent is built in out in the order of the formula above (a
    division by eps, not a product with 1 / eps, which rounds differently),
    then raised to at least _KERNEL_EXP_FLOOR = log(ABSORB_BOUND * tiny) - 1
    before np.exp. The exp of a raised exponent is about ABSORB_BOUND *
    tiny / e, below the zeroing threshold, so the entry is zeroed as its
    unraised exp, smaller still, would be: the kernel is the formula's bit
    for bit, and np.exp computes no subnormal, which costs it about 20
    times a normal result. NaN exponents stay NaN (np.maximum propagates
    them), and zeroed entries are +0.0, as exp(-inf) is.
    """
    np.add(f[:, None], g[None, :], out=out)
    np.subtract(out, C, out=out)
    np.divide(out, eps, out=out)
    np.maximum(out, _KERNEL_EXP_FLOOR, out=out)
    np.exp(out, out=out)
    np.copyto(out, 0.0, where=out < _KERNEL_ZERO_BELOW)
    return out


def _relaxation(err_before: float, err: float, omega: float) -> float:
    """Over-relaxation factor for an error that fell from err_before to err
    over the last OMEGA_WINDOW iterations, run at factor omega.

    The decay rate lam estimates the contraction theta of plain Sinkhorn:
    theta = lam at omega = 1, and by Young's SOR relation
    theta = (lam + omega - 1)^2 / (lam * omega^2) otherwise. The factor
    that is optimal for theta, 2 / (1 + sqrt(1 - theta)), is returned,
    capped at OMEGA_MAX.
    """
    lam = (err / err_before) ** (1.0 / OMEGA_WINDOW)
    theta = (lam + omega - 1.0) ** 2 / (lam * omega**2)
    return min(2.0 / (1.0 + math.sqrt(max(1.0 - theta, 0.0))), OMEGA_MAX)


def _relaxed(factor: np.ndarray, omega: float) -> np.ndarray:
    """factor ** omega in place; at omega = 1 factor is returned as it is,
    which is what ** 1.0 gives bit for bit."""
    return factor if omega == 1.0 else np.power(factor, omega, out=factor)


def check_reg(reg: float) -> None:
    """Refuse a Sinkhorn regularization that is not finite and > 0."""
    if not (np.isfinite(reg) and reg > 0):
        raise ValueError(f"reg must be finite and > 0, got {reg}")


# Overflow, a zero divisor or a NaN in a scaling shows up as a NaN marginal
# error, which stops the solve; numpy's warnings would only repeat it.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def wasserstein_sinkhorn(
    a: PointCloud,
    b: PointCloud,
    reg: float | None = None,
    max_iters: int = 20000,
) -> TransportPlan:
    """Entropically regularized transport between uniform clouds.

    reg=None means DEFAULT_REG_FRACTION times the median squared distance
    between the clouds. Clouds with m * m' > EXACT_SIZE_CAP**2 are refused
    before anything is allocated: every dense matrix here has that shape.

    Runs stabilized kernel-domain Sinkhorn scaling (Schmitzer 2019; Peyre &
    Cuturi 2019, sec. 4.4) with a geometric warm-start schedule down to the
    requested regularization, which keeps small reg values stable. Each
    iteration is two matrix-vector products and an over-relaxed update,
    u <- u * (mu / (u * K v))^omega, then v <- v * (nu / (v * K^T u))^omega,
    with the log potentials f, g absorbed in K = exp((f + g - C) / eps);
    in the log domain this is f <- (1 - omega) f + omega f_sinkhorn
    (Thibault, Chizat, Dossal & Papadakis 2017; Lehmann, von Renesse,
    Sambale & Uschmajew 2022). The scalings are folded into f, g and K is
    rebuilt, in place in one buffer, at every stage and whenever a scaling
    leaves [1 / ABSORB_BOUND, ABSORB_BOUND], so the iterates equal
    log-domain Sinkhorn's. The returned coupling is that buffer. Cloud
    sizes may differ.

    omega is derived, not set. Each stage starts at omega = 1; every
    OMEGA_WINDOW iterations the observed decay of the marginal error gives
    an estimate of plain Sinkhorn's contraction theta, and omega becomes
    the SOR-optimal 2 / (1 + sqrt(1 - theta)), capped at OMEGA_MAX (see
    _relaxation). Once a stage's best marginal error is OMEGA_STALL
    iterations old, the stage finishes at omega = 1. A stage stops when
    the larger of the row and column L1 marginal errors of the current
    scalings is at most its tolerance (SINKHORN_TOL at the target reg,
    1e-4 above it); both come from the two matrix-vector products the
    iteration computes anyway. A NaN marginal error stops every stage at
    once. max_iters caps the iterations of all stages together.

    Non-convergence is reported in the returned plan (converged flag,
    residual marginal error and last omega) rather than raised. If
    max_iters runs out before the target reg, the plan is evaluated at the
    last regularization reached, so it stays a usable diagnostic.
    """
    if not max_iters >= 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    C = _cost_matrix(a, b)
    m, mp = a.m, b.m
    if reg is None:
        reg = DEFAULT_REG_FRACTION * float(np.median(C))
    check_reg(reg)
    mu = np.full(m, 1.0 / m)
    nu = np.full(mp, 1.0 / mp)

    # Geometric schedule from an easy regularization down to the target.
    scale = float(C.max())
    regs = [reg]
    while scale > 0 and regs[-1] < 0.1 * scale:
        regs.append(regs[-1] * 4.0)
    regs.reverse()

    f = np.zeros(m)
    g = np.zeros(mp)
    # Every kernel, the final plan included, is built in K. The loop writes
    # its vectors in place: Kv holds K v and then u * K v, uK holds u K, and
    # r and c hold the update factors and then the marginal residuals.
    K = np.empty_like(C)
    u, Kv, r = np.empty(m), np.empty(m), np.empty(m)
    v, uK, c = np.empty(mp), np.empty(mp), np.empty(mp)
    iterations = 0
    for eps in regs:
        _kernel(f, g, C, eps, K)
        u.fill(1.0)
        v.fill(1.0)
        # Intermediate stages only warm-start the potentials; convergence
        # is enforced at the target regularization.
        final = eps == reg
        stage_cap = max_iters if final else min(iterations + 100, max_iters)
        stage_tol = SINKHORN_TOL if final else 1e-4
        # Each stage starts plain (omega = 1) and reads omega off its own
        # error decay; errors holds the stage's marginal errors so far.
        omega, relax, errors, best_k = 1.0, True, [], 0
        col_err = np.inf
        while iterations < stage_cap:
            # Marginal errors of the current (u, v): the rows' from u * K v,
            # which the u update needs anyway, the columns' from the u K
            # of the previous v update (u has not moved since).
            np.matmul(K, v, out=Kv)
            np.multiply(u, Kv, out=Kv)
            np.abs(np.subtract(Kv, mu, out=r), out=r)
            err = max(float(np.add.reduce(r)), col_err)
            if err <= stage_tol or math.isnan(err):
                break
            if math.isfinite(err):
                errors.append(err)
                k = len(errors) - 1
                if err < errors[best_k]:
                    best_k = k
                if relax and k - best_k >= OMEGA_STALL:
                    relax, omega = False, 1.0
                elif relax and k >= OMEGA_WINDOW and k % OMEGA_WINDOW == 0:
                    omega = _relaxation(errors[k - OMEGA_WINDOW], err, omega)
            u *= _relaxed(np.divide(mu, Kv, out=r), omega)
            np.matmul(u, K, out=uK)
            v *= _relaxed(np.divide(nu, np.multiply(v, uK, out=c), out=c), omega)
            np.abs(np.subtract(np.multiply(v, uK, out=c), nu, out=c), out=c)
            col_err = float(np.add.reduce(c))
            iterations += 1
            if max(
                np.maximum.reduce(u),
                np.maximum.reduce(v),
                1.0 / np.minimum.reduce(u),
                1.0 / np.minimum.reduce(v),
            ) > ABSORB_BOUND:
                f += eps * np.log(u)
                g += eps * np.log(v)
                _kernel(f, g, C, eps, K)
                u.fill(1.0)
                v.fill(1.0)
        f += eps * np.log(u)
        g += eps * np.log(v)
        if iterations >= max_iters or math.isnan(err):
            break

    P = _kernel(f, g, C, eps, K)
    marginal_error = max(
        float(np.abs(P.sum(axis=1) - 1.0 / m).sum()),
        float(np.abs(P.sum(axis=0) - 1.0 / mp).sum()),
    )
    converged = eps == reg and marginal_error <= SINKHORN_TOL
    total = float(P.sum())
    # C is not needed any more: the weighted costs P * C are summed in it.
    weighted = np.multiply(P, C, out=C).sum()
    cost = float(np.sqrt(max(weighted / total, 0.0))) if total > 0 else float("nan")
    return TransportPlan(
        cost=cost,
        coupling=P,
        method="sinkhorn",
        iterations=iterations,
        converged=converged,
        marginal_error=marginal_error,
        omega=omega,
    )
