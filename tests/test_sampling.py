from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from varietyfit import polynomials, sampling
from varietyfit.datasets import gen_sphere_plane, sphere_plane_polynomial
from varietyfit.fitting import fit_map, map_polynomial
from varietyfit.polynomials import Poly, enumerate_monomials
from varietyfit.rng import make_rng
from varietyfit.sampling import ProposalBudgetError, SamplerConfig, direct_sample

from conftest import broadcast_evaluate, evaluate_error_bound

XMY = Poly.from_terms(2, 1, {(1, 0): 1.0, (0, 1): -1.0})


def reference_direct_sample(f, cfg):
    """The direct sampler through ``Poly.evaluate``, block by block.

    Every proposal's value in 8192-proposal blocks. Returns (points, stats)
    on success, ("budget", partial points, proposals) when the budget
    runs out, and ("empty band",) for a constant f with |f| >= eta.
    """
    n = f.basis.n
    if not f.coeffs[:-1].any() and abs(f.coeffs[-1]) >= cfg.eta:
        return ("empty band",)
    rng = make_rng(cfg.seed)
    chunks, collected, used, finish = [], 0, 0, None
    while used < cfg.budget and collected < cfg.target_m:
        b = min(8192, cfg.budget - used)
        pts = rng.random((b, n))
        mask = np.abs(f.evaluate(pts)) < cfg.eta
        hits = pts[mask]
        if collected < cfg.target_m <= collected + hits.shape[0]:
            finish = used + int(np.flatnonzero(mask)[cfg.target_m - collected - 1]) + 1
        chunks.append(hits)
        collected += hits.shape[0]
        used += b
    points = np.vstack(chunks)[: cfg.target_m]
    if collected < cfg.target_m:
        return "budget", points.tobytes(), used
    return points.tobytes(), {
        "proposals": finish,
        "accepted": cfg.target_m,
        "acceptance_rate": cfg.target_m / finish,
    }


def sampled(f, cfg):
    """direct_sample's result in reference_direct_sample's form."""
    try:
        cloud, info = direct_sample(f, cfg, full_output=True)
    except ProposalBudgetError as err:
        return "budget", err.accepted.points.tobytes(), err.proposals
    except ValueError as err:
        assert "band |f| < eta" in str(err) and "is empty" in str(err)
        return ("empty band",)
    return cloud.points.tobytes(), info


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(seed=0, target_m=0)
    for eta in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="eta must be finite and > 0"):
            SamplerConfig(seed=0, target_m=5, eta=eta)
    with pytest.raises(ValueError):
        SamplerConfig(seed=0, target_m=5, max_proposals=4)
    assert SamplerConfig(seed=0, target_m=5).budget == 5_000_000


def test_direct_vacuous_threshold_is_uniform():
    # eta above max|f| on the cube accepts every proposal
    cfg = SamplerConfig(seed=2, target_m=400, eta=2.0)
    cloud, info = direct_sample(XMY, cfg, full_output=True)
    assert info["proposals"] == 400
    # the sample is the proposal stream itself, one point per proposal
    assert np.array_equal(cloud.points, make_rng(2).random((400, 2)))


def test_direct_postcondition_strict():
    cfg = SamplerConfig(seed=3, target_m=100, eta=0.01)
    cloud = direct_sample(XMY, cfg)
    assert cloud.m == 100
    v = np.abs(cloud.points[:, 0] - cloud.points[:, 1])
    assert (v < 0.01).all()


def test_direct_sphere_plane_concentrates_on_variety():
    f = sphere_plane_polynomial().normalized()
    cfg = SamplerConfig(seed=4, target_m=300, eta=0.001)
    cloud = direct_sample(f, cfg)
    assert np.abs(f.evaluate(cloud.points)).max() < 0.001
    assert (cloud.points >= 0).all() and (cloud.points <= 1).all()


def test_determinism_and_prefix_property():
    cfg = SamplerConfig(seed=7, target_m=200, eta=0.05)
    a = direct_sample(XMY, cfg)
    b = direct_sample(XMY, cfg)
    assert np.array_equal(a.points, b.points)
    longer = direct_sample(XMY, SamplerConfig(seed=7, target_m=400, eta=0.05))
    assert np.array_equal(longer.points[:200], a.points)


def test_direct_ks_uniform_marginal():
    cfg = SamplerConfig(seed=5, target_m=10_000, eta=0.01)
    cloud = direct_sample(XMY, cfg)
    v = cloud.points[:, 0] - cloud.points[:, 1]
    res = stats.kstest(v, stats.uniform(loc=-0.01, scale=0.02).cdf)
    assert res.pvalue > 0.01


def test_budget_error_carries_partial_result():
    cfg = SamplerConfig(seed=8, target_m=10_000, eta=1e-7, max_proposals=50_000)
    with pytest.raises(ProposalBudgetError) as err:
        direct_sample(XMY, cfg)
    assert err.value.proposals == 50_000
    accepted = err.value.accepted
    assert accepted.m < 10_000
    if accepted.m:
        assert (np.abs(accepted.points[:, 0] - accepted.points[:, 1]) < 1e-7).all()


def test_constant_with_empty_band_is_refused_before_any_draw(monkeypatch):
    # |c| >= eta: no proposal can pass, so nothing is drawn. A zero f, a
    # constant inside the band and a nonzero higher term still sample.
    def no_draw(seed):
        raise AssertionError("drew proposals")

    monkeypatch.setattr(sampling, "make_rng", no_draw)
    cfg = SamplerConfig(seed=1, target_m=1600, eta=1e-3)
    for f in (Poly(enumerate_monomials(3, 0), [1.0]),
              Poly.from_terms(2, 2, {(0, 0): -1e-3})):
        with pytest.raises(ValueError, match="the model is the constant .* is empty"):
            direct_sample(f, cfg)
    monkeypatch.undo()
    small = SamplerConfig(seed=1, target_m=50, eta=1e-3, max_proposals=50)
    for f in (Poly(enumerate_monomials(2, 2), np.zeros(6)),
              Poly(enumerate_monomials(3, 0), [1e-4])):
        assert direct_sample(f, small).m == 50
    with pytest.raises(ProposalBudgetError):
        direct_sample(Poly.from_terms(2, 1, {(1, 0): 1e-9, (0, 0): 1.0}), small)


def test_eta_monotonicity_on_fixed_stream():
    small = SamplerConfig(seed=4, target_m=100_000, eta=0.002, max_proposals=100_000)
    large = SamplerConfig(seed=4, target_m=100_000, eta=0.004, max_proposals=100_000)
    sets = {}
    for key, cfg in (("small", small), ("large", large)):
        with pytest.raises(ProposalBudgetError) as err:
            direct_sample(XMY, cfg)
        sets[key] = {tuple(row) for row in err.value.accepted.points}
    assert sets["small"] <= sets["large"]
    assert len(sets["small"]) < len(sets["large"])


@pytest.fixture(scope="module", params=range(8))
def edge_case(request):
    # A fitted cubic and an eta at |f| of one early proposal, or one ulp
    # above it, so that proposal's acceptance hangs on the last bit of its
    # value. The params walk the four proposals nearest |f| = 1e-3, each
    # just rejected and just accepted.
    f = map_polynomial(fit_map(gen_sphere_plane(400, 0.5, seed=31), 3))
    seed = 37
    proposals = make_rng(seed).random((1000, 3))
    vals = np.abs(f.evaluate(proposals))
    edge = int(np.argsort(np.abs(vals - 1e-3))[request.param // 2])
    accepted = bool(request.param % 2)
    eta = float(np.nextafter(vals[edge], np.inf) if accepted else vals[edge])
    cfg = SamplerConfig(seed=seed, target_m=150, eta=eta)
    cloud = direct_sample(f, cfg)
    assert any(np.array_equal(p, proposals[edge]) for p in cloud.points) == accepted
    return f, cfg


@pytest.mark.parametrize("block", [64, 1000, 5003])
@pytest.mark.parametrize("chunk", [7, 4096])
def test_samples_do_not_depend_on_block_sizes(edge_case, monkeypatch, block, chunk):
    # Each proposal's value depends on that proposal alone, so the cloud
    # and stats are the same for any proposal block and evaluation chunk.
    f, cfg = edge_case
    expected = direct_sample(f, cfg, full_output=True)
    monkeypatch.setattr(sampling, "_BLOCK", block)
    monkeypatch.setattr(polynomials, "_EVAL_CHUNK", chunk)
    cloud, info = direct_sample(f, cfg, full_output=True)
    assert cloud.points.tobytes() == expected[0].points.tobytes()
    assert info == expected[1]


@st.composite
def sampler_cases(draw):
    n = draw(st.integers(1, 4))
    basis = enumerate_monomials(n, draw(st.integers(0, 4)))
    term = st.one_of(st.just(0.0), st.floats(-1, 1, allow_subnormal=False))
    scale = 10.0 ** draw(st.integers(-3, 3))
    coeffs = scale * np.array(draw(st.lists(term, min_size=len(basis), max_size=len(basis))))
    target = draw(st.integers(1, 60))
    cfg = SamplerConfig(
        seed=draw(st.integers(0, 2**32)),
        target_m=target,
        eta=10.0 ** draw(st.floats(-6, 0)),
        max_proposals=draw(st.integers(target, 20_000)),
    )
    return Poly(basis, coeffs), cfg, draw(st.sampled_from([97, 1024, 8192]))


@settings(max_examples=60, deadline=None)
@given(sampler_cases())
def test_direct_sample_equals_block_by_block_reference(case):
    # Points, stats, and a budget error's partial points and proposal
    # count are those of the loop that evaluates every proposal with
    # Poly.evaluate, for any proposal block.
    f, cfg, block = case
    with mock.patch.object(sampling, "_BLOCK", block):
        assert sampled(f, cfg) == reference_direct_sample(f, cfg)


@pytest.mark.parametrize("inside", [False, True])
def test_eta_tied_to_a_proposal_value_is_decided_exactly(inside):
    # eta equal to |f| of a stream proposal: strict < rejects it; one ulp
    # above accepts it. The budget ends the run, so every accepted point
    # counts.
    f = map_polynomial(fit_map(gen_sphere_plane(400, 0.5, seed=31), 3))
    seed = 41
    proposals = make_rng(seed).random((8192, 3))
    vals = np.abs(f.evaluate(proposals))
    tie = int(np.argmin(np.abs(vals - 1e-4)))
    eta = float(np.nextafter(vals[tie], np.inf) if inside else vals[tie])
    cfg = SamplerConfig(seed=seed, target_m=8192, eta=eta, max_proposals=8192)
    got = sampled(f, cfg)
    assert got == reference_direct_sample(f, cfg)
    accepted = np.frombuffer(got[1]).reshape(-1, 3)
    assert any(np.array_equal(p, proposals[tie]) for p in accepted) == inside


@pytest.mark.parametrize("n,degree", [(1, 9), (2, 6), (3, 3), (3, 5), (4, 5), (5, 4)])
def test_horner_bound_margin(n, degree):
    # direct_sample accepts proposals by the Horner form's value; on 10^5
    # points of a unit-norm polynomial, N <= 126, its gap to the
    # power-and-sum value keeps a 2^10 margin under the accuracy bound.
    basis = enumerate_monomials(n, degree)
    rng = np.random.default_rng(n * 10 + degree)
    f = Poly(basis, rng.standard_normal(len(basis))).normalized()
    points = rng.random((10**5, n))
    gap = np.abs(f.evaluate(points) - broadcast_evaluate(f, points))
    assert len(basis) <= 126
    assert gap.max() <= evaluate_error_bound(f) * 2.0**-10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300])
def test_non_finite_coefficient_makes_every_proposal_a_candidate(bad):
    # A NaN, infinite or huge coefficient: the samples match the reference,
    # and where |f| is NaN or beyond eta everywhere the budget runs out.
    f = Poly.from_terms(2, 2, {(2, 0): bad, (1, 0): 1.0, (0, 1): -1.0})
    for eta in (1e-3, 1.0):
        cfg = SamplerConfig(seed=3, target_m=20, eta=eta, max_proposals=5000)
        assert sampled(f, cfg) == reference_direct_sample(f, cfg)
    with pytest.raises(ProposalBudgetError) as err:
        direct_sample(f, SamplerConfig(seed=3, target_m=20, max_proposals=5000))
    assert err.value.proposals == 5000
