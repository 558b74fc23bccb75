import numpy as np
import pytest
from scipy import stats

from varietyfit import polynomials, sampling
from varietyfit.datasets import gen_sphere_plane, sphere_plane_polynomial
from varietyfit.fitting import fit_map, map_polynomial
from varietyfit.polynomials import Poly, enumerate_monomials
from varietyfit.rng import make_rng
from varietyfit.sampling import (
    ProposalBudgetError,
    SamplerConfig,
    direct_sample,
    rejection_sample,
)

XMY = Poly.from_terms(2, 1, {(1, 0): 1.0, (0, 1): -1.0})
ZERO = Poly(enumerate_monomials(2, 1), np.zeros(3))


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(seed=0, target_m=0)
    with pytest.raises(ValueError):
        SamplerConfig(seed=0, target_m=5, eta=0.0)
    with pytest.raises(ValueError):
        SamplerConfig(seed=0, target_m=5, max_proposals=4)
    assert SamplerConfig(seed=0, target_m=5).budget == 5_000_000


def test_rejection_zero_polynomial_accepts_everything():
    cfg = SamplerConfig(seed=1, target_m=500)
    cloud, info = rejection_sample(ZERO, cfg, full_output=True)
    assert cloud.m == 500
    assert info["proposals"] == 500  # every proposal accepted
    assert (cloud.points >= 0).all() and (cloud.points < 1).all()


def test_direct_vacuous_threshold_is_uniform():
    # eta above max|f| on the cube accepts every proposal
    cfg = SamplerConfig(seed=2, target_m=400, eta=2.0)
    cloud, info = direct_sample(XMY, cfg, full_output=True)
    assert info["proposals"] == 400
    zero_cfg = SamplerConfig(seed=2, target_m=400)
    assert np.array_equal(cloud.points, rejection_sample(ZERO, zero_cfg).points)


def test_rejection_acceptance_law_monte_carlo():
    # acceptance frequency in a bin around |f| = 0.5 should match exp(-0.25)
    cfg = SamplerConfig(seed=99, target_m=10_000)
    cloud, info = rejection_sample(XMY, cfg, full_output=True)
    v = cloud.points[:, 0] - cloud.points[:, 1]
    lo, hi = 0.45, 0.55
    # under the uniform proposal law, v = x - y has density (1 - |v|)
    p_bin = 2 * ((hi - lo) - (hi**2 - lo**2) / 2)
    expected_proposals = info["proposals"] * p_bin
    accepted = int(((np.abs(v) >= lo) & (np.abs(v) < hi)).sum())
    p_accept = np.exp(-0.25)
    se = np.sqrt(expected_proposals * p_accept * (1 - p_accept))
    assert abs(accepted - expected_proposals * p_accept) <= 3 * se


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


def test_rejection_accepts_on_variety_points():
    # acceptance probability is exactly 1 where f vanishes, so on-variety
    # proposals always land in the output
    cfg = SamplerConfig(seed=11, target_m=2000)
    cloud = rejection_sample(XMY, cfg)
    assert cloud.m == 2000
    # and the output law prefers small |f|: compare tail frequencies
    v = np.abs(cloud.points[:, 0] - cloud.points[:, 1])
    near = (v < 0.1).mean()
    far = (v > 0.8).mean()
    assert near > far


@pytest.fixture(scope="module", params=range(8))
def edge_case(request):
    # A fitted cubic and an eta at |f| of one early proposal, or one ulp
    # above it, so that proposal's acceptance hangs on the last bit of its
    # value. The params walk the four proposals nearest |f| = 1e-3, each
    # just rejected and just accepted.
    f = map_polynomial(fit_map(gen_sphere_plane(400, 0.5, seed=31), 3))
    seed = 37
    proposals = make_rng(seed).random((1000, 4))[:, :3]
    vals = np.abs(f.evaluate(proposals))
    edge = int(np.argsort(np.abs(vals - 1e-3))[request.param // 2])
    accepted = bool(request.param % 2)
    eta = float(np.nextafter(vals[edge], np.inf) if accepted else vals[edge])
    cfg = SamplerConfig(seed=seed, target_m=150, eta=eta)
    cloud = direct_sample(f, cfg)
    assert any(np.array_equal(p, proposals[edge]) for p in cloud.points) == accepted
    return f, cfg


@pytest.mark.parametrize("block", [1000, 5003])
@pytest.mark.parametrize("chunk", [7, 4096])
def test_samples_do_not_depend_on_block_sizes(edge_case, monkeypatch, block, chunk):
    # Each proposal's value depends on that proposal alone, so the cloud
    # and stats are the same for any proposal block and evaluation chunk.
    f, cfg = edge_case
    rejection_cfg = SamplerConfig(seed=cfg.seed, target_m=2000)
    expected = [
        direct_sample(f, cfg, full_output=True),
        rejection_sample(f, rejection_cfg, full_output=True),
    ]
    monkeypatch.setattr(sampling, "_BLOCK", block)
    monkeypatch.setattr(polynomials, "_EVAL_CHUNK", chunk)
    got = [
        direct_sample(f, cfg, full_output=True),
        rejection_sample(f, rejection_cfg, full_output=True),
    ]
    for (cloud, info), (ref_cloud, ref_info) in zip(got, expected):
        assert cloud.points.tobytes() == ref_cloud.points.tobytes()
        assert info == ref_info
