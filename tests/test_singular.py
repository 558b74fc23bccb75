import numpy as np
import pytest

from varietyfit.cloud import PointCloud
from varietyfit.datasets import gen_sphere_plane, sphere_plane_polynomial
from varietyfit.fitting import fit_map, map_polynomial
from varietyfit.polynomials import Poly
from varietyfit.sampling import SamplerConfig, direct_sample
from varietyfit.singular import singularity_filter

from conftest import distance_to_singular_circle

# (x - 1/2)^2 - (y - 1/2)^2, singular (as a cone) at its apex (1/2, 1/2)
SADDLE = Poly.from_terms(
    2, 2, {(2, 0): 1.0, (1, 0): -1.0, (0, 2): -1.0, (0, 1): 1.0}
)


def test_accepts_apex():
    cloud = PointCloud(np.array([[0.5, 0.5], [0.9, 0.5]]))
    report = singularity_filter(SADDLE, cloud, 0.1)
    assert report.accepted_count == 1
    assert np.array_equal(report.accepted.points, np.array([[0.5, 0.5]]))
    assert report.gradient_norms == pytest.approx([0.0, 0.8])


def test_rejects_offset_point():
    cloud = PointCloud(np.array([[0.9, 0.5]]))
    report = singularity_filter(SADDLE, cloud, 0.1)
    assert report.accepted_count == 0


def test_matches_pointwise_recomputation():
    rng = np.random.default_rng(4)
    f = sphere_plane_polynomial().normalized()
    cloud = PointCloud(rng.random((200, 3)))
    eps = 0.5
    report = singularity_filter(f, cloud, eps)
    expected = [p for p in cloud.points if np.linalg.norm(f.gradient(p)) < eps]
    assert np.array_equal(report.accepted.points, np.array(expected))


def test_monotone_in_epsilon():
    rng = np.random.default_rng(9)
    f = sphere_plane_polynomial().normalized()
    cloud = PointCloud(rng.random((300, 3)))
    small = singularity_filter(f, cloud, 0.2)
    large = singularity_filter(f, cloud, 0.4)
    small_set = {tuple(r) for r in small.accepted.points}
    large_set = {tuple(r) for r in large.accepted.points}
    assert small_set <= large_set


def test_accepted_points_lie_near_singular_circle():
    cloud = gen_sphere_plane(800, 0.5, seed=15)
    f = map_polynomial(fit_map(cloud, 3))
    resampled = direct_sample(f, SamplerConfig(seed=16, target_m=800, eta=0.001))
    report = singularity_filter(f, resampled, 0.02)
    assert report.accepted_count > 0
    assert distance_to_singular_circle(report.accepted.points).max() <= 0.1


def test_input_order_preserved():
    pts = np.array([[0.5, 0.5], [0.51, 0.5], [0.5, 0.51], [0.2, 0.9]])
    report = singularity_filter(SADDLE, PointCloud(pts), 0.1)
    norms = report.gradient_norms
    assert norms.shape == (4,)
    mask = norms < 0.1
    assert np.array_equal(report.accepted.points, pts[mask])


def test_empty_acceptance_for_smooth_model():
    plane = Poly.from_terms(2, 1, {(1, 0): 1.0, (0, 1): -1.0})
    rng = np.random.default_rng(2)
    cloud = PointCloud(rng.random((50, 2)))
    report = singularity_filter(plane, cloud, 0.1)
    assert report.accepted_count == 0
    assert report.accepted.m == 0
    assert report.gradient_norms == pytest.approx(np.full(50, np.sqrt(2.0)))


def test_empty_cloud_gives_empty_report():
    report = singularity_filter(SADDLE, PointCloud(np.empty((0, 2))), 0.1)
    assert report.accepted_count == 0
    assert report.accepted.points.shape == (0, 2)
    assert report.gradient_norms.shape == (0,)


def test_validation_errors():
    cloud = PointCloud(np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError):
        singularity_filter(SADDLE, cloud, 0.0)
    bad = PointCloud(np.array([[0.5, 0.5, 0.5]]))
    with pytest.raises(ValueError):
        singularity_filter(SADDLE, bad, 0.1)
