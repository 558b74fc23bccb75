import dataclasses
import itertools
import math
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment, linprog
from scipy.spatial.distance import cdist

from varietyfit import transport
from varietyfit.cloud import PointCloud
from varietyfit.datasets import gen_sphere_plane
from varietyfit.fitting import fit_map
from varietyfit.sampling import SamplerConfig, direct_sample
from varietyfit.transport import (
    EXACT_SIZE_CAP,
    TransportPlan,
    wasserstein_exact,
    wasserstein_sinkhorn,
)


def _brute_force(a: PointCloud, b: PointCloud):
    C = ((a.points[:, None, :] - b.points[None, :, :]) ** 2).sum(axis=-1)
    m = a.m
    best_perm, best_total = None, np.inf
    for perm in itertools.permutations(range(m)):
        total = C[range(m), list(perm)].sum()
        if total < best_total:
            best_total, best_perm = total, perm
    return float(np.sqrt(np.mean(C[range(m), list(best_perm)]))), best_perm


def test_identical_clouds_zero_cost():
    rng = np.random.default_rng(1)
    a = PointCloud(rng.random((20, 3)))
    plan = wasserstein_exact(a, a)
    assert plan.cost == 0.0
    assert np.allclose(plan.coupling, np.eye(20) / 20)


def test_unit_translation_pair():
    a = PointCloud(np.array([[0.0, 0.0]]))
    b = PointCloud(np.array([[1.0, 0.0]]))
    assert wasserstein_exact(a, b).cost == 1.0


def test_two_point_vertical_matching():
    a = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]]))
    b = PointCloud(np.array([[0.0, 1.0], [1.0, 1.0]]))
    plan = wasserstein_exact(a, b)
    ref_cost, perm = _brute_force(a, b)
    assert perm == (0, 1)  # vertical, not crossed
    assert plan.cost == ref_cost == 1.0


def test_matches_brute_force_small():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = int(rng.integers(1, 8))
        d = int(rng.integers(1, 4))
        a = PointCloud(rng.random((m, d)))
        b = PointCloud(rng.random((m, d)))
        ref_cost, _ = _brute_force(a, b)
        assert wasserstein_exact(a, b).cost == ref_cost


def test_metric_axioms():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = PointCloud(rng.random((12, 2)))
        b = PointCloud(rng.random((12, 2)))
        c = PointCloud(rng.random((12, 2)))
        wab = wasserstein_exact(a, b).cost
        wba = wasserstein_exact(b, a).cost
        assert abs(wab - wba) <= 1e-10
        assert wasserstein_exact(a, a).cost == 0.0
        wac = wasserstein_exact(a, c).cost
        wbc = wasserstein_exact(b, c).cost
        assert wac <= wab + wbc + 1e-8


def test_permutation_invariance():
    rng = np.random.default_rng(5)
    a = PointCloud(rng.random((30, 3)))
    b = PointCloud(rng.random((30, 3)))
    base = wasserstein_exact(a, b).cost
    pa = PointCloud(a.points[rng.permutation(30)])
    pb = PointCloud(b.points[rng.permutation(30)])
    assert abs(wasserstein_exact(pa, pb).cost - base) <= 1e-10


def test_translation_covariance():
    rng = np.random.default_rng(6)
    a = PointCloud(rng.random((25, 3)))
    b = PointCloud(rng.random((25, 3)))
    base = wasserstein_exact(a, b).cost
    shift = np.array([0.3, -0.2, 0.7])
    shifted = wasserstein_exact(
        PointCloud(a.points + shift), PointCloud(b.points + shift)
    ).cost
    assert abs(shifted - base) <= 1e-10


def test_exact_validation_errors():
    rng = np.random.default_rng(8)
    a = PointCloud(rng.random((4, 2)))
    # Coprime sizes repeat to an lcm over the budget, refused before any
    # point is repeated: the 10100 copies of either cloud would take 161600
    # bytes.
    b, c = PointCloud(rng.random((100, 2))), PointCloud(rng.random((101, 2)))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=(
            "exact transport of 100 against 101 points repeats both to their lcm, 10100: "
            "a 10100 x 10100 cost matrix needs 816080000 bytes"
        )):
            wasserstein_exact(b, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 * 10100
    with pytest.raises(ValueError):
        wasserstein_exact(a, PointCloud(rng.random((4, 3))))
    with pytest.raises(ValueError):
        wasserstein_exact(a, PointCloud(np.empty((0, 2))))


def test_plan_cost_consistent_with_coupling():
    rng = np.random.default_rng(9)
    a = PointCloud(rng.random((15, 3)))
    b = PointCloud(rng.random((15, 3)))
    plan = wasserstein_exact(a, b)
    C = ((a.points[:, None, :] - b.points[None, :, :]) ** 2).sum(axis=-1)
    assert abs(plan.cost - np.sqrt((plan.coupling * C).sum())) <= 1e-8
    assert np.abs(plan.coupling.sum(axis=1) - 1 / 15).max() <= 1e-6
    assert np.abs(plan.coupling.sum(axis=0) - 1 / 15).max() <= 1e-6


def test_sinkhorn_identical_clouds_small_reg():
    rng = np.random.default_rng(10)
    a = PointCloud(rng.random((40, 3)))
    sq = ((a.points[:, None, :] - a.points[None, :, :]) ** 2).sum(axis=-1)
    diam = float(np.sqrt(sq.max()))
    plan = wasserstein_sinkhorn(a, a, reg=1e-5 * float(np.median(sq[sq > 0])))
    assert plan.cost <= 0.01 * diam


def test_sinkhorn_close_to_exact_64():
    rng = np.random.default_rng(11)
    a = PointCloud(rng.random((64, 3)))
    b = PointCloud(rng.random((64, 3)))
    exact = wasserstein_exact(a, b).cost
    sq = ((a.points[:, None, :] - b.points[None, :, :]) ** 2).sum(axis=-1)
    plan = wasserstein_sinkhorn(a, b, reg=0.001 * float(np.median(sq)), max_iters=3000)
    assert abs(plan.cost - exact) <= 0.05 * exact


def test_sinkhorn_marginals_within_tol():
    rng = np.random.default_rng(12)
    a = PointCloud(rng.random((50, 2)))
    b = PointCloud(rng.random((70, 2)))
    sq = ((a.points[:, None, :] - b.points[None, :, :]) ** 2).sum(axis=-1)
    plan = wasserstein_sinkhorn(a, b, reg=0.05 * float(np.median(sq)))
    assert plan.converged
    assert np.abs(plan.coupling.sum(axis=1) - 1 / 50).max() <= 1e-6
    assert np.abs(plan.coupling.sum(axis=0) - 1 / 70).max() <= 1e-6
    assert plan.method == "sinkhorn"


def test_sinkhorn_reports_nonconvergence():
    rng = np.random.default_rng(13)
    a = PointCloud(rng.random((30, 2)))
    b = PointCloud(rng.random((30, 2)))
    plan = wasserstein_sinkhorn(a, b, reg=1e-7, max_iters=5)
    assert not plan.converged
    assert plan.iterations == 5
    assert plan.marginal_error > 0
    # The partial plan is evaluated at the last regularization reached, so
    # it is still a usable diagnostic rather than an underflowed zero matrix.
    assert np.isfinite(plan.cost)
    assert plan.coupling.sum() > 0.5


def test_sinkhorn_validation():
    rng = np.random.default_rng(14)
    a = PointCloud(rng.random((5, 2)))
    for kwargs in (
        {"reg": 0.0},
        {"reg": -1.0},
        {"reg": float("inf")},
        {"reg": float("nan")},
        {"reg": 0.1, "max_iters": 0},
    ):
        with pytest.raises(ValueError):
            wasserstein_sinkhorn(a, a, **kwargs)


@pytest.mark.parametrize("reg", [1e-30, 1e-300])
def test_sinkhorn_stops_on_nan_without_warnings(reg):
    # Far below the squared distances a scaling overflows and the marginal
    # error turns NaN; the solve stops long before max_iters, reports the
    # plan as not converged, and lets no numpy warning out.
    a = gen_sphere_plane(200, 0.5, seed=1)
    b = gen_sphere_plane(100, 0.5, seed=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plan = wasserstein_sinkhorn(a, b, reg=reg)
    assert not plan.converged
    assert math.isnan(plan.marginal_error)
    assert plan.iterations < 2000


def _logsumexp(x, axis):
    # scipy.special.logsumexp's result for finite x, at a sixth of its
    # per-call overhead on the small matrices here.
    top = x.max(axis=axis, keepdims=True)
    return np.log(np.exp(x - top).sum(axis=axis)) + np.squeeze(top, axis)


def _plain_log_domain_sinkhorn(a, b, reg, max_iters=20000, tol=1e-6):
    """Plain (omega = 1) log-domain Sinkhorn with the ε schedule and plan
    evaluation of wasserstein_sinkhorn, stopping on the row error read off
    how far f moved: the reference the over-relaxed solver's convergence
    and cost are checked against. Returns (cost, iterations, converged)."""
    C = cdist(a.points, b.points, metric="sqeuclidean")
    m, mp = C.shape
    log_mu, log_nu = np.full(m, -np.log(m)), np.full(mp, -np.log(mp))
    regs = [reg]
    while C.max() > 0 and regs[-1] < 0.1 * C.max():
        regs.append(regs[-1] * 4.0)
    f, g, iterations = np.zeros(m), np.zeros(mp), 0
    for eps in reversed(regs):
        final = eps == reg
        cap = max_iters if final else min(iterations + 100, max_iters)
        stage_tol = tol if final else max(tol, 1e-4)
        stage_iter = 0
        while iterations < cap:
            f_new = eps * (log_mu - _logsumexp((g[None, :] - C) / eps, axis=1))
            g = eps * (log_nu - _logsumexp((f_new[:, None] - C) / eps, axis=0))
            iterations += 1
            stage_iter += 1
            row_err = np.abs(np.exp(log_mu) * np.expm1((f - f_new) / eps)).sum()
            f = f_new
            if stage_iter > 1 and row_err <= stage_tol:
                break
        if iterations >= max_iters:
            break
    P = np.exp((f[:, None] + g[None, :] - C) / eps)
    err = max(np.abs(P.sum(axis=1) - 1 / m).sum(), np.abs(P.sum(axis=0) - 1 / mp).sum())
    cost = float(np.sqrt((P * C).sum() / P.sum()))
    return cost, iterations, bool(eps == reg and err <= tol)


def _log_domain_sinkhorn(a, b, reg, max_iters=20000, tol=1e-6):
    """Reference: the same schedule, over-relaxed map, omega rule, stopping
    rule and plan evaluation as wasserstein_sinkhorn, iterating on the log
    potentials with a full log-sum-exp per half-step,
    f <- (1 - omega) f + omega f_sinkhorn. Returns (cost, iterations,
    converged)."""
    C = cdist(a.points, b.points, metric="sqeuclidean")
    m, mp = C.shape
    log_mu, log_nu = np.full(m, -np.log(m)), np.full(mp, -np.log(mp))
    mu, nu = np.exp(log_mu), np.exp(log_nu)
    regs = [reg]
    while C.max() > 0 and regs[-1] < 0.1 * C.max():
        regs.append(regs[-1] * 4.0)
    f, g, iterations = np.zeros(m), np.zeros(mp), 0
    window, omega_max, stall = 20, 1.95, 200
    for eps in reversed(regs):
        final = eps == reg
        cap = max_iters if final else min(iterations + 100, max_iters)
        stage_tol = tol if final else max(tol, 1e-4)
        omega, relax, errors, col_err = 1.0, True, [], np.inf
        while iterations < cap:
            f_sink = eps * (log_mu - _logsumexp((g[None, :] - C) / eps, axis=1))
            # Row sums of the current plan are mu * exp((f - f_sink) / eps).
            err = max(np.abs(mu * np.expm1((f - f_sink) / eps)).sum(), col_err)
            if err <= stage_tol:
                break
            if np.isfinite(err):
                errors.append(err)
                k = len(errors) - 1
                if relax and k - int(np.argmin(errors)) >= stall:
                    relax, omega = False, 1.0
                elif relax and k >= window and k % window == 0:
                    lam = (err / errors[k - window]) ** (1 / window)
                    theta = (lam + omega - 1) ** 2 / (lam * omega**2)
                    omega = min(2 / (1 + np.sqrt(max(1 - theta, 0))), omega_max)
            f = (1 - omega) * f + omega * f_sink
            g_sink = eps * (log_nu - _logsumexp((f[:, None] - C) / eps, axis=0))
            g_new = (1 - omega) * g + omega * g_sink
            col_err = np.abs(nu * np.expm1((g_new - g_sink) / eps)).sum()
            g = g_new
            iterations += 1
        if iterations >= max_iters:
            break
    P = np.exp((f[:, None] + g[None, :] - C) / eps)
    err = max(np.abs(P.sum(axis=1) - 1 / m).sum(), np.abs(P.sum(axis=0) - 1 / mp).sum())
    cost = float(np.sqrt((P * C).sum() / P.sum()))
    return cost, iterations, bool(eps == reg and err <= tol)


@pytest.mark.parametrize("seed", range(8))
def test_sinkhorn_matches_log_domain_reference(seed):
    rng = np.random.default_rng(1000 + seed)
    m, mp = (int(k) for k in rng.integers(2, 60, size=2))
    dim = int(rng.integers(1, 4))
    a = PointCloud(rng.random((m, dim)))
    b = PointCloud(rng.random((mp, dim)) + 0.3 * rng.random())
    reg = 10 ** rng.uniform(-5, -1) * float(np.median(cdist(a.points, b.points, "sqeuclidean")))
    max_iters = (5, 300, 3000)[seed % 3]
    plan = wasserstein_sinkhorn(a, b, reg=reg, max_iters=max_iters)
    cost, iterations, converged = _log_domain_sinkhorn(a, b, reg, max_iters=max_iters)
    assert plan.iterations == iterations
    assert plan.converged == converged
    assert abs(plan.cost - cost) <= 1e-12


def test_sinkhorn_absorption_keeps_reference_iterates(monkeypatch):
    # Small reg: the scalings leave [1/ABSORB_BOUND, ABSORB_BOUND] inside a
    # stage, so the kernel is rebuilt more often than once per stage plus
    # the final plan evaluation.
    builds = []
    kernel = transport._kernel

    def counting_kernel(f, g, C, eps, *args, **kwargs):
        builds.append(eps)
        return kernel(f, g, C, eps, *args, **kwargs)

    monkeypatch.setattr(transport, "_kernel", counting_kernel)
    rng = np.random.default_rng(15)
    a = PointCloud(rng.random((40, 2)))
    b = PointCloud(rng.random((50, 2)))
    reg = 1e-4 * float(np.median(cdist(a.points, b.points, "sqeuclidean")))
    plan = wasserstein_sinkhorn(a, b, reg=reg, max_iters=3000)
    assert len(builds) > len(set(builds)) + 1
    cost, iterations, converged = _log_domain_sinkhorn(a, b, reg, max_iters=3000)
    assert (plan.iterations, plan.converged) == (iterations, converged)
    assert abs(plan.cost - cost) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(1, 40),
    mp=st.integers(1, 40),
    dim=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    rel_reg=st.floats(1e-3, 1e-1),
)
def test_sinkhorn_converged_plans_meet_marginals(m, mp, dim, seed, rel_reg):
    rng = np.random.default_rng(seed)
    a = PointCloud(rng.random((m, dim)))
    b = PointCloud(rng.random((mp, dim)))
    sq = cdist(a.points, b.points, "sqeuclidean")
    plan = wasserstein_sinkhorn(a, b, reg=rel_reg * float(np.median(sq)))
    if plan.converged:
        P = plan.coupling
        assert np.abs(P.sum(axis=1) - 1 / m).sum() <= 1e-6
        assert np.abs(P.sum(axis=0) - 1 / mp).sum() <= 1e-6


def _random_pair(rng):
    """One draw of the over-relaxation study: clouds of 1-79 points in 1-3
    dimensions, the second shifted, and reg between 1e-4 and 1e-1 of the
    median squared distance."""
    m, mp = (int(k) for k in rng.integers(1, 80, 2))
    dim = int(rng.integers(1, 4))
    a = PointCloud(rng.random((m, dim)))
    b = PointCloud(rng.random((mp, dim)) + 0.3 * rng.random())
    reg = 10 ** rng.uniform(-4, -1) * float(np.median(cdist(a.points, b.points, "sqeuclidean")))
    return a, b, reg


def _study_pair(seed, index):
    rng = np.random.default_rng(seed)
    for _ in range(index):
        _random_pair(rng)
    return _random_pair(rng)


def _assert_relaxed_matches_plain(a, b, reg, max_iters=20000):
    plain_cost, _, plain_converged = _plain_log_domain_sinkhorn(a, b, reg, max_iters)
    plan = wasserstein_sinkhorn(a, b, reg=reg, max_iters=max_iters)
    if plain_converged:
        assert plan.converged
        assert abs(plan.cost - plain_cost) <= 1e-5 * plain_cost


# Fixed examples: the property has a rare known counterexample (the strict
# xfail below), which a random search would turn into an intermittent failure.
# The 4000-iteration budget, shared by both solvers, keeps the log-domain
# reference affordable.
@settings(max_examples=16, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_sinkhorn_converges_where_plain_does(seed):
    _assert_relaxed_matches_plain(*_random_pair(np.random.default_rng(seed)), max_iters=4000)


def test_sinkhorn_relaxation_cap_case():
    # Case 293 of the study's default_rng(7) draws: 60 vs 9 points on a line.
    # Plain Sinkhorn converges in 5047 iterations; with omega capped at 1.98
    # instead of OMEGA_MAX the relaxed solve crawls at the cap until it runs
    # out of iterations.
    a, b, reg = _study_pair(7, 293)
    assert (a.m, b.m, a.dim) == (60, 9, 1)
    assert _plain_log_domain_sinkhorn(a, b, reg)[1:] == (5047, True)
    _assert_relaxed_matches_plain(a, b, reg)


@pytest.mark.xfail(strict=True, reason="over-relaxation strands mass across a near-cut")
def test_sinkhorn_converges_where_plain_does_split_line():
    # Case 78 of default_rng(8): 22 vs 52 points on a line at reg ~3e-4 of
    # the median. The plan splits into two blocks joined by exponentially
    # small kernel entries; plain Sinkhorn converges in 3390 iterations, the
    # over-relaxed path leaves a block-mass error that decays ~1e-5 per
    # iteration, and plain scaling continued from there is as slow.
    a, b, reg = _study_pair(8, 78)
    assert (a.m, b.m, a.dim) == (22, 52, 1)
    _assert_relaxed_matches_plain(a, b, reg)


def test_plan_is_frozen_record():
    plan = TransportPlan(cost=1.0, coupling=np.eye(2) / 2, method="exact-assignment")
    with pytest.raises(ValueError):
        plan.coupling[0, 0] = 5.0
    # The plan views the caller's array: no copy, and the caller's flags stay.
    coupling = np.eye(3) / 3
    plan = TransportPlan(0.5, coupling, "sinkhorn", iterations=7)
    assert np.shares_memory(plan.coupling, coupling)
    coupling[0, 0] = 0.25
    assert plan.coupling[0, 0] == 0.25
    again = dataclasses.replace(plan, cost=1.0)
    assert (again.cost, again.method, again.iterations) == (1.0, "sinkhorn", 7)
    assert np.shares_memory(again.coupling, coupling)
    assert not again.coupling.flags.writeable


def test_plan_needs_exactly_one_of_coupling_and_matching():
    # The coupling is the plan's only form: it is required, and must be 2-D.
    with pytest.raises(ValueError):
        TransportPlan(0.0, None, "exact-assignment")
    with pytest.raises(ValueError):
        TransportPlan(0.0, np.ones(3) / 3, "exact-assignment")
    # A matching is no longer a form a plan can take.
    with pytest.raises(TypeError):
        TransportPlan(0.0, np.eye(1), "exact-assignment", matching=([0], [0]))
    # A plan must name its solver.
    with pytest.raises(TypeError):
        TransportPlan(0.0, np.eye(1))


def test_exact_coupling_equals_dense_construction():
    rng = np.random.default_rng(15)
    a = PointCloud(rng.random((60, 3)))
    b = PointCloud(rng.random((60, 3)))
    plan = wasserstein_exact(a, b)
    C = cdist(a.points, b.points, metric="sqeuclidean")
    rows, cols = linear_sum_assignment(C)
    dense = np.zeros_like(C)
    dense[rows, cols] = 1.0 / a.m
    assert np.array_equal(plan.coupling, dense)
    with pytest.raises(ValueError):
        plan.coupling[0] = 0


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_matched_pair_distances_equal_cdist_bit_for_bit(dim):
    # The exact solver reads its cost off the matched pairs, not off a
    # cost matrix; each pair's sum must be cdist's, bit for bit, at unit,
    # large and mixed coordinate scales.
    rng = np.random.default_rng(40 + dim)
    for scale in (1.0, 1e6, 10.0 ** rng.uniform(-3, 3, dim)):
        a = scale * rng.normal(size=(300, dim))
        b = scale * rng.normal(size=(300, dim)) + rng.random(dim)
        rows, cols = rng.permutation(300), rng.permutation(300)
        expected = cdist(a, b, "sqeuclidean")[rows, cols]
        assert np.array_equal(transport._paired_sqeuclidean(a[rows], b[cols]), expected)
    cloud_a, cloud_b = PointCloud(rng.random((80, dim))), PointCloud(rng.random((80, dim)))
    plan = wasserstein_exact(cloud_a, cloud_b)
    rows, cols = np.nonzero(plan.coupling)
    C = cdist(cloud_a.points, cloud_b.points, "sqeuclidean")
    assert plan.cost == float(np.sqrt(np.mean(C[rows, cols])))


WARM_START_KINDS = ["uniform", "duplicated", "translate", "collinear", "offset-1e6", "corner"]


def _warm_start_clouds(kind: str, m: int, dim: int, seed: int):
    rng = np.random.default_rng(seed)
    a = rng.random((m, dim))
    if kind == "uniform":
        b = rng.random((m, dim))
    elif kind == "duplicated":
        # Points on a 3-per-axis grid, so both clouds repeat points.
        a = rng.integers(0, 3, (m, dim)) / 2.0
        b = rng.integers(0, 3, (m, dim)) / 2.0
    elif kind == "translate":
        b = a + rng.random(dim)
    elif kind == "collinear":
        direction = rng.normal(size=dim)
        a = rng.random(m)[:, None] * direction
        b = 0.3 + rng.random(m)[:, None] * direction
    elif kind == "corner":
        # b squeezed into a corner of a's box: the warm start's plain
        # Sinkhorn scalings would span about 40 decades, past float32's
        # range, so the sweeps fold them into the kernel as they go.
        b = 0.05 * rng.random((m, dim))
    else:
        b = rng.random((m, dim)) + 1e6
    return PointCloud(a), PointCloud(b)


def _second_best_gap(C: np.ndarray, cols: np.ndarray) -> float:
    """Cost of the cheapest assignment other than i -> cols[i], minus that
    assignment's cost; inf when it is the only assignment. Each candidate
    forbids one of its pairs (Murty 1968)."""
    m = len(cols)
    best, second = C[np.arange(m), cols].sum(), np.inf
    for i in range(m):
        forbidden = C.copy()
        forbidden[i, cols[i]] = np.inf
        try:
            r, c = linear_sum_assignment(forbidden)
        except ValueError:  # m == 1: no other assignment
            continue
        second = min(second, forbidden[r, c].sum())
    return second - best


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(WARM_START_KINDS),
    m=st.integers(1, 40),
    dim=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_warm_started_assignment_is_exact(kind, m, dim, seed):
    a, b = _warm_start_clouds(kind, m, dim, seed)
    plan = wasserstein_exact(a, b)
    # The coupling is a permutation matrix divided by m.
    rows, cols = np.nonzero(plan.coupling)
    assert np.array_equal(rows, np.arange(m))
    assert np.array_equal(np.sort(cols), np.arange(m))
    assert np.all(plan.coupling[rows, cols] == 1.0 / m)
    # The cost is the unwarmed solver's on the raw matrix: bit-identical
    # where its assignment is unique, and within 1e-12 where another
    # assignment costs (nearly) as much.
    C = cdist(a.points, b.points, metric="sqeuclidean")
    raw_rows, raw_cols = linear_sum_assignment(C)
    expected = float(np.sqrt(np.mean(C[raw_rows, raw_cols])))
    if _second_best_gap(C, raw_cols) > 1e-9 * C[raw_rows, raw_cols].sum():
        assert np.array_equal(cols, raw_cols)
        assert plan.cost == expected
    else:
        assert abs(plan.cost - expected) <= 1e-12 * expected


# HiGHS's default feasibility tolerances, 1e-7, let it stop at a vertex up to
# 3e-8 above the optimum on some collinear clouds; at 1e-10 its optimum is the
# 1-d sorted matching's to rounding.
_HIGHS_TOLERANCES = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def _linprog_cost(C: np.ndarray) -> float:
    """Optimal sum_ij P_ij C_ij over uniform couplings P, by HiGHS."""
    m, mp = C.shape
    rows = np.kron(np.eye(m), np.ones(mp))
    cols = np.kron(np.ones(m), np.eye(mp))
    marginals = np.concatenate([np.full(m, 1.0 / m), np.full(mp, 1.0 / mp)])
    result = linprog(C.ravel(), A_eq=np.vstack([rows, cols]), b_eq=marginals, method="highs",
                     options=_HIGHS_TOLERANCES)
    assert result.status == 0, result.message
    return float(result.fun)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(WARM_START_KINDS),
    m=st.integers(1, 24),
    mp=st.integers(1, 24),
    dim=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_unequal_sizes_match_linear_program(kind, m, mp, dim, seed):
    # Both clouds repeated to lcm(m, m') <= 552 points ("duplicated" puts
    # both on a grid, so points repeat before they are copied).
    a, b = _warm_start_clouds(kind, max(m, mp), dim, seed)
    a, b = PointCloud(a.points[:m]), PointCloud(b.points[:mp])
    plan = wasserstein_exact(a, b)
    expected = _linprog_cost(cdist(a.points, b.points, metric="sqeuclidean"))
    assert plan.method == "exact-assignment"
    assert math.isclose(plan.cost**2, expected, rel_tol=1e-12, abs_tol=1e-300)
    assert plan.coupling.shape == (m, mp) and plan.coupling.min() >= 0
    assert np.allclose(plan.coupling.sum(axis=1), 1.0 / m, rtol=1e-12, atol=0)
    assert np.allclose(plan.coupling.sum(axis=0), 1.0 / mp, rtol=1e-12, atol=0)


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(WARM_START_KINDS),
    m=st.integers(1, 60),
    mp=st.integers(1, 60),
    dim=st.integers(1, 4),
    duals=st.sampled_from(["row-minima", "reduced", "random"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_shifted_costs_match_cdist_minus_duals(kind, m, mp, dim, duals, seed):
    # The GEMM refill against cdist - f - g, for the duals of the warm
    # start's two reductions and for random ones up to 10 times the
    # largest squared distance. Its product sums n + 2 terms, each at most
    # the box's squared diagonal plus max |f| and max |g|; the bound allows
    # two roundings per term (measured worst: 2.2 ulps of that scale, n =
    # 3, the 1e6 offset).
    a, b = _warm_start_clouds(kind, max(m, mp), dim, seed)
    x, y = a.points[:m], b.points[:mp]
    C = cdist(x, y, metric="sqeuclidean")
    rng = np.random.default_rng(seed)
    if duals == "random":
        spread = 10 ** rng.uniform(-3, 1) * C.max()
        f, g = rng.uniform(-spread, spread, m), rng.uniform(-spread, spread, mp)
    else:
        f = C.min(axis=1)
        g = (C - f[:, None]).min(axis=0) if duals == "reduced" else np.zeros(mp)
    out = np.empty((m, mp))
    transport._shifted_costs(x, y, f, g, out)
    both = np.vstack([x, y])
    diagonal = np.square(both.max(axis=0) - both.min(axis=0)).sum()
    scale = np.finfo(float).eps * (diagonal + np.abs(f).max() + np.abs(g).max())
    assert np.abs(out - (C - f[:, None] - g[None, :])).max() <= 2 * (dim + 2) * scale


def test_exact_solves_prepare_one_at_a_time_and_assign_together(monkeypatch):
    # Four threads, switching every 10 us: no warm start ever
    # runs beside another (each sleeps, so without the preparation lock
    # they would overlap), while the assignments do overlap: each waits on
    # a 2-party barrier, which breaks after 30 s if a solve still held the
    # lock while it assigned. The plans equal one-at-a-time solves.
    rng = np.random.default_rng(25)
    pairs = [(PointCloud(rng.random((150, 3))), PointCloud(rng.random((150, 3))))
             for _ in range(4)]
    alone = [wasserstein_exact(a, b) for a, b in pairs]
    counter, active, most = threading.Lock(), [0], [0]
    warm_start = transport._warm_start_duals

    def counted(*args):
        with counter:
            active[0] += 1
            most[0] = max(most[0], active[0])
        try:
            time.sleep(0.02)
            return warm_start(*args)
        finally:
            with counter:
                active[0] -= 1

    barrier = threading.Barrier(2, timeout=30)

    def together(C):
        barrier.wait()
        return linear_sum_assignment(C)

    monkeypatch.setattr(transport, "_warm_start_duals", counted)
    monkeypatch.setattr("scipy.optimize.linear_sum_assignment", together)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            plans = list(pool.map(lambda pair: wasserstein_exact(*pair), pairs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert most[0] == 1
    assert not barrier.broken
    for plan, one in zip(plans, alone):
        assert plan.cost == one.cost
        assert np.array_equal(plan.coupling, one.coupling)


def test_exact_puts_the_repeated_cloud_on_the_columns(monkeypatch):
    # The assignment solver breaks ties toward a free column, so the cloud
    # with more copies of each point is its columns: as its rows, the copies
    # of 1 point against 4096 points took 51 s instead of 0.7 s (2-core
    # x86_64).
    rng = np.random.default_rng(23)
    a, b = PointCloud(rng.random((2, 3))), PointCloud(rng.random((6, 3)))
    seen = []
    cost_matrix = transport._cost_matrix

    def spy(x, y, out=None):
        seen.append((len(np.unique(x.points, axis=0)), len(np.unique(y.points, axis=0))))
        return cost_matrix(x, y, out)

    monkeypatch.setattr(transport, "_cost_matrix", spy)
    ab, ba = wasserstein_exact(a, b), wasserstein_exact(b, a)
    # Rows are b's 6 points either way, columns three copies of each of a's
    # 2; the matrix is built from the clouds once per solve, and refilled
    # from the same points by _shifted_costs.
    assert seen == [(6, 2)] * 2
    assert ab.cost == ba.cost
    assert np.array_equal(ab.coupling, ba.coupling.T)


def _spy_on_assignment(monkeypatch) -> list:
    """Record a copy of every matrix transport passes to the assignment solver."""
    seen = []

    def spy(C):
        seen.append(np.array(C))
        return linear_sum_assignment(C)

    monkeypatch.setattr("scipy.optimize.linear_sum_assignment", spy)
    return seen


def test_warm_start_shifts_the_solved_matrix(monkeypatch):
    rng = np.random.default_rng(18)
    a, b = PointCloud(rng.random((200, 3))), PointCloud(rng.random((200, 3)))
    seen = _spy_on_assignment(monkeypatch)
    plan = wasserstein_exact(a, b)
    C = cdist(a.points, b.points, metric="sqeuclidean")
    rows, cols = linear_sum_assignment(C)
    assert plan.cost == float(np.sqrt(np.mean(C[rows, cols])))
    # The solver saw C - f - g, not C: the rows' and columns' differences
    # from C are constant (up to rounding), and not all zero.
    shift = C - seen[0]
    g = shift[0] - shift[0, 0]
    f = shift[:, 0]
    assert np.abs(shift - f[:, None] - g[None, :]).max() <= 1e-12
    assert np.abs(shift).max() > 0


@pytest.mark.parametrize(
    "points",
    [np.array([[0.2, 0.7]]), np.full((5, 2), 0.5)],
    ids=["m-1", "one-point"],
)
def test_warm_start_skipped_when_reduced_costs_vanish(monkeypatch, points):
    # Every reduced cost is zero, so eps = 0 and the solver gets the raw
    # matrix; a cloud at one point against itself costs exactly 0.
    a = PointCloud(points)
    seen = _spy_on_assignment(monkeypatch)
    plan = wasserstein_exact(a, a)
    assert plan.cost == 0.0
    assert np.array_equal(seen[0], cdist(a.points, a.points, metric="sqeuclidean"))
    assert np.array_equal(plan.coupling.sum(axis=0), np.full(a.m, 1.0 / a.m))


@pytest.mark.parametrize("kind", ["one-point", "coincident"])
@pytest.mark.parametrize("swap", [False, True], ids=["point-first", "spread-first"])
def test_warm_start_skipped_when_one_cloud_sits_at_one_point(monkeypatch, kind, swap):
    # One point against k, or k coincident points against k spread ones:
    # every row or every column of the cost matrix is constant, so every
    # reduced cost is exactly zero. The warm start neither refills the
    # matrix from the points nor sweeps, and the solver gets cdist's matrix.
    rng = np.random.default_rng(21)
    spread = rng.random((64, 3)) + 0.1
    point = np.array([[0.3, 0.7, 0.1]])
    repeated = np.repeat(point, 64, axis=0)
    near = repeated if kind == "coincident" else point
    a, b = (PointCloud(spread), PointCloud(near)) if swap else (PointCloud(near), PointCloud(spread))
    refills = []
    monkeypatch.setattr(transport, "_shifted_costs", lambda *args: refills.append(args))
    seen = _spy_on_assignment(monkeypatch)
    plan = wasserstein_exact(a, b)
    assert refills == []
    # A one-point cloud is repeated onto the columns whichever side it is.
    x, y = (a.points, b.points) if kind == "coincident" else (spread, repeated)
    assert np.array_equal(seen[0], cdist(x, y, metric="sqeuclidean"))
    assert plan.cost == pytest.approx(np.sqrt(cdist(spread, point, metric="sqeuclidean").mean()), rel=1e-14)
    assert np.allclose(plan.coupling.sum(axis=0), 1.0 / b.m, rtol=1e-14, atol=0)


def test_non_finite_warm_start_duals_fall_back_to_raw_matrix(monkeypatch):
    # eps = inf makes eps * log(u) infinite; the duals fall back to zeros,
    # so the solver gets the raw matrix and the cost is unchanged.
    rng = np.random.default_rng(20)
    a, b = PointCloud(rng.random((50, 2))), PointCloud(rng.random((50, 2)))
    warm = wasserstein_exact(a, b)
    monkeypatch.setattr(transport, "WARM_START_EPS_FRACTION", np.inf)
    seen = _spy_on_assignment(monkeypatch)
    cold = wasserstein_exact(a, b)
    C = cdist(a.points, b.points, metric="sqeuclidean")
    assert np.array_equal(seen[0], C)
    assert cold.cost == warm.cost
    assert np.array_equal(cold.coupling, warm.coupling)


def _spy_on_absorb(monkeypatch) -> list:
    """Record the scalings of every fold into the warm start's kernel, and
    the kernel's smallest entry before and after the fold."""
    folds = []
    absorb = transport._absorb

    def spy(K, u, v, blocks):
        before = K.min()
        absorb(K, u, v, blocks)
        folds.append((u.copy(), v.copy(), before, K.min()))

    monkeypatch.setattr(transport, "_absorb", spy)
    return folds


def _assert_warm_start_duals(a: PointCloud, b: PointCloud) -> None:
    """The warm start's duals are finite and not the zero fallback."""
    C = cdist(a.points, b.points, metric="sqeuclidean")
    f, g = transport._warm_start_duals(C, a.points, b.points)
    assert np.isfinite(f).all() and np.isfinite(g).all()
    assert np.any(f != 0) and np.any(g != 0)


def test_warm_start_folds_wide_scalings_into_the_kernel(monkeypatch):
    # A cloud in a corner of the other's box: the scalings leave
    # [1 / ABSORB_BOUND, ABSORB_BOUND] and are folded into the kernel, and
    # the duals still come out finite rather than as the zero fallback.
    a, b = _warm_start_clouds("corner", 40, 3, 22)
    folds = _spy_on_absorb(monkeypatch)
    _assert_warm_start_duals(a, b)
    assert folds
    # Kernel entries times a scaling in [1 / ABSORB_BOUND, ABSORB_BOUND]
    # stay normal float32s, before and after every fold.
    normal = transport.ABSORB_BOUND * np.finfo(np.float32).tiny
    for u, v, low_before, low_after in folds:
        assert u.dtype == v.dtype == np.float32
        assert max(u.max(), v.max(), 1 / u.min(), 1 / v.min()) > transport.ABSORB_BOUND
        assert min(low_before, low_after) >= normal


@pytest.mark.parametrize("seed", [1, 7])
def test_pipeline_pair_gets_finite_warm_start_duals(monkeypatch, seed):
    # The pipeline's m = 1600, D = 2 pair: the data, and the D = 2 fit's
    # resample drawn at the pipeline's seed for that degree. Plain sweeps
    # take its scalings to 1e-11 and 7e9 at seed 7.
    data = gen_sphere_plane(1600, 0.5, seed=seed)
    f2 = fit_map(data, 2).kernel_basis[0]
    resample = direct_sample(f2, SamplerConfig(seed=seed + 2000, target_m=1600))
    folds = _spy_on_absorb(monkeypatch)
    _assert_warm_start_duals(data, resample)
    assert folds


def test_exact_holds_one_dense_matrix_at_a_time():
    # The warm start, the solve and the cost all reuse the cost matrix's
    # buffer, which is freed before the coupling is built.
    m = 400
    rng = np.random.default_rng(21)
    a, b = PointCloud(rng.random((m, 3))), PointCloud(rng.random((m, 3)))
    wasserstein_exact(a, b)
    tracemalloc.start()
    try:
        plan = wasserstein_exact(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.coupling.nbytes == 8 * m * m
    assert peak <= 1.05 * 8 * m * m


def test_sinkhorn_holds_two_dense_matrices():
    # The cost matrix and one kernel buffer, rebuilt in place at every stage
    # and absorption, which becomes the plan's coupling.
    m, mp = 400, 300
    rng = np.random.default_rng(22)
    a, b = PointCloud(rng.random((m, 3))), PointCloud(rng.random((mp, 3)))
    wasserstein_sinkhorn(a, b)
    tracemalloc.start()
    try:
        plan = wasserstein_sinkhorn(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.converged
    assert peak <= 2.5 * 8 * m * mp


_SPECIAL = st.sampled_from([np.inf, -np.inf, np.nan])


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 60),
    mp=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    f_special=st.lists(st.tuples(st.integers(0, 59), _SPECIAL), max_size=3),
    g_special=st.lists(st.tuples(st.integers(0, 59), _SPECIAL), max_size=3),
)
def test_kernel_is_the_formula_bit_for_bit(m, mp, seed, f_special, g_special):
    # Exponents mostly in [-760, -680], around the clamp at about -702.5 and
    # the subnormal range below -708, with a few anywhere in [-800, 800].
    rng = np.random.default_rng(seed)
    eps = 10 ** rng.uniform(-4, 1)
    f, g = rng.normal(size=m), rng.normal(size=mp)
    x = rng.uniform(-760, -680, (m, mp))
    wide = rng.random((m, mp)) < 0.1
    x[wide] = rng.uniform(-800, 800, int(wide.sum()))
    C = f[:, None] + g[None, :] - eps * x
    for i, value in f_special:
        f[i % m] = value
    for j, value in g_special:
        g[j % mp] = value
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        K = transport._kernel(f, g, C, eps, np.empty((m, mp)))
        expected = np.exp((f[:, None] + g[None, :] - C) / eps)
    expected[expected < transport.ABSORB_BOUND * np.finfo(float).tiny] = 0.0
    assert np.array_equal(K.view(np.uint64), expected.view(np.uint64))


def test_sinkhorn_default_reg_is_median_fraction():
    rng = np.random.default_rng(16)
    a = PointCloud(rng.random((30, 3)))
    b = PointCloud(rng.random((45, 3)))
    reg = 0.002 * float(np.median(cdist(a.points, b.points, "sqeuclidean")))
    default, explicit = wasserstein_sinkhorn(a, b), wasserstein_sinkhorn(a, b, reg=reg)
    assert default.cost == explicit.cost
    assert default.iterations == explicit.iterations
    assert np.array_equal(default.coupling, explicit.coupling)
    # Clouds at one point have median distance 0, so no default reg exists.
    same = PointCloud(np.full((3, 2), 0.5))
    with pytest.raises(ValueError, match="reg"):
        wasserstein_sinkhorn(same, same)


@pytest.mark.parametrize(
    "solver,m,mp,nbytes",
    [(wasserstein_exact, 4097, 4097, 134283272), (wasserstein_sinkhorn, 5000, 4000, 160000000)],
    ids=["exact", "sinkhorn"],
)
def test_solvers_refuse_cost_matrix_over_budget(monkeypatch, solver, m, mp, nbytes):
    def no_cost_matrix(*args, **kwargs):
        raise AssertionError("cost matrix built")

    monkeypatch.setattr("scipy.spatial.distance.cdist", no_cost_matrix)
    a, b = PointCloud(np.zeros((m, 1))), PointCloud(np.zeros((mp, 1)))
    with pytest.raises(ValueError, match=f"{m} x {mp} cost matrix needs {nbytes} bytes"):
        solver(a, b)
    # A matrix of exactly the budget passes the check and reaches cdist.
    at_cap = PointCloud(np.zeros((EXACT_SIZE_CAP, 1)))
    with pytest.raises(AssertionError, match="cost matrix built"):
        solver(at_cap, at_cap)
