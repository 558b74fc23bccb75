import io
import json
import pathlib
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varietyfit import cloud as cloud_module
from varietyfit.cloud import (
    CloudFormatError,
    NormalizationRecord,
    PointCloud,
    load_cloud,
    normalize_to_unit_cube,
    save_cloud,
)
from varietyfit.datasets import (
    _add_noise,
    circle_quadric,
    cyclooctane_residuals,
    gen_noisy_line,
    gen_sphere_plane,
    gen_sphere_plane_singular,
    plane_poly,
    sphere_plane_polynomial,
    LINE_DIRECTION,
    LINE_POINT,
)
from varietyfit.fitting import fit_map, rationalize
from varietyfit.modelio import (
    MODEL_KINDS,
    ModelFile,
    export_singular_script,
    load_model,
    save_model,
)
from varietyfit.polynomials import Poly, enumerate_monomials

from conftest import SPHERE_PLANE_TERMS, distance_to_line


def test_sphere_plane_polynomial_matches_closed_form():
    f = sphere_plane_polynomial()
    terms = {a: c for a, c in zip(f.basis.exponents, f.coeffs) if c != 0.0}
    assert terms == SPHERE_PLANE_TERMS


def test_gen_sphere_plane_on_variety():
    cloud = gen_sphere_plane(500, 0.5, seed=1)
    assert cloud.points.shape == (500, 3)
    f = sphere_plane_polynomial()
    assert np.abs(f.evaluate(cloud.points)).max() <= 1e-10
    assert (cloud.points >= 0).all() and (cloud.points <= 1).all()


def test_gen_sphere_plane_split_and_determinism():
    cloud = gen_sphere_plane(101, 0.4, seed=3)
    on_plane = np.sum(cloud.points[:, 0] == cloud.points[:, 1])
    assert on_plane == round(0.4 * 101)
    again = gen_sphere_plane(101, 0.4, seed=3)
    assert np.array_equal(cloud.points, again.points)
    with pytest.raises(ValueError):
        gen_sphere_plane(10, 1.5, seed=0)


def test_gen_sphere_plane_noise_config():
    noisy = gen_sphere_plane(400, 0.5, seed=5, noise_sigma=0.025)
    clean = gen_sphere_plane(400, 0.5, seed=5, noise_sigma=0.0)
    assert not np.array_equal(noisy.points, clean.points)
    assert (noisy.points >= 0).all() and (noisy.points <= 1).all()
    # same seed shares the underlying on-variety points
    delta = np.linalg.norm(noisy.points - clean.points, axis=1)
    assert np.median(delta) < 0.2


def test_singular_circle_satisfies_both_equations():
    cloud = gen_sphere_plane_singular(400, seed=2)
    assert cloud.points.shape == (400, 3)
    assert np.abs(plane_poly().evaluate(cloud.points)).max() <= 1e-10
    assert np.abs(circle_quadric().evaluate(cloud.points)).max() <= 1e-10


def test_singular_circle_gradient_vanishes():
    cloud = gen_sphere_plane_singular(100, seed=4)
    grads = sphere_plane_polynomial().gradient(cloud.points)
    assert np.abs(grads).max() <= 1e-8


def test_noisy_line_exact_when_sigma_zero():
    cloud = gen_noisy_line(150, 0.0, seed=6)
    assert distance_to_line(cloud.points, LINE_POINT, LINE_DIRECTION).max() <= 1e-10


def test_noisy_line_stays_in_cube():
    cloud = gen_noisy_line(200, 0.05, seed=7)
    assert (cloud.points >= 0).all() and (cloud.points <= 1).all()
    with pytest.raises(ValueError):
        gen_noisy_line(10, -0.1, seed=0)


@pytest.mark.parametrize("sigma", [-0.1, np.nan, np.inf])
@pytest.mark.parametrize(
    "gen",
    [lambda s: gen_sphere_plane(50, 0.5, seed=1, noise_sigma=s),
     lambda s: gen_noisy_line(50, s, seed=1)],
    ids=["sphere-plane", "noisy-line"],
)
def test_generators_refuse_bad_sigma(gen, sigma):
    # Both generators add noise through one routine, which refuses a sigma
    # that is negative or not finite instead of writing noise-free data.
    with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
        gen(sigma)


# ----------------------------------------------------------------- cyclooctane


def _octagon(side):
    radius = side / (2 * np.sin(np.pi / 8))
    k = np.arange(8)
    return np.column_stack(
        [radius * np.cos(k * np.pi / 4), radius * np.sin(k * np.pi / 4), np.zeros(8)]
    ).reshape(-1)


def test_octagon_bond_residuals_zero():
    p = _octagon(np.sqrt(2.21))
    res = cyclooctane_residuals(p)
    assert res.shape == (16,)
    assert np.abs(res[:8]).max() <= 1e-10
    assert np.abs(res[8:]).min() > 0.1


def test_cyclooctane_translation_invariance():
    rng = np.random.default_rng(8)
    p = rng.standard_normal(24)
    shift = np.tile(rng.standard_normal(3), 8)
    assert cyclooctane_residuals(p + shift) == pytest.approx(
        cyclooctane_residuals(p), abs=1e-10
    )


def test_cyclooctane_cyclic_permutation():
    rng = np.random.default_rng(9)
    p = rng.standard_normal(24)
    rolled = p.reshape(8, 3)[np.roll(np.arange(8), 1)].reshape(-1)
    assert sorted(cyclooctane_residuals(rolled)) == pytest.approx(
        sorted(cyclooctane_residuals(p)), abs=1e-12
    )


def test_cyclooctane_rejects_wrong_shape():
    with pytest.raises(ValueError):
        cyclooctane_residuals(np.zeros(23))


# ----------------------------------------------------------------- cloud I/O


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(10)
    cloud = PointCloud(rng.random((37, 4)))
    path = tmp_path / "cloud.csv"
    save_cloud(cloud, path)
    again = load_cloud(path)
    assert np.array_equal(cloud.points, again.points)


def _formatted(points):
    # The writer save_cloud had before it used np.savetxt.
    return "\n".join(",".join(f"{v:.17g}" for v in row) for row in points) + "\n"


def test_save_cloud_bytes_match_the_formatter(tmp_path):
    pts = np.random.default_rng(12).random((50, 3))
    pts[0] = [-0.0, 0.0, 1e-300]
    pts[1] = [1.0, 2.0, -3.0]
    pts[2] = [5e-324, 1.7976931348623157e308, 0.1]
    path = tmp_path / "c.csv"
    save_cloud(PointCloud(pts), path)
    assert path.read_bytes() == _formatted(pts).encode()
    assert path.read_bytes().startswith(b"-0,0,1e-300\n1,2,-3\n4.9406564584124654e-324,")
    assert np.array_equal(load_cloud(path).points, pts)
    # An empty cloud is an empty file (the formatter wrote one newline),
    # which load_cloud refuses as it refused the newline.
    save_cloud(PointCloud(np.empty((0, 3))), path)
    assert path.read_bytes() == b""
    with pytest.raises(CloudFormatError, match="no data rows"):
        load_cloud(path)


_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 4),
    values=st.lists(
        st.floats(allow_nan=False, allow_infinity=False)
        | st.sampled_from(_EDGE_FLOATS)
        | st.integers(-(2**60), 2**60).map(float),
        max_size=60,
    ),
    chunk_rows=st.integers(1, 7),
)
def test_save_cloud_bytes_equal_savetxt(n, values, chunk_rows):
    # Any cloud, the empty one included, in chunks of 1-7 rows and in one.
    pts = np.array(values[: len(values) // n * n], dtype=float).reshape(-1, n)
    buffer = io.BytesIO()
    np.savetxt(buffer, pts, fmt="%.17g", delimiter=",")
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "c.csv"
        for rows in (chunk_rows, cloud_module.SAVE_CHUNK_ROWS):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(cloud_module, "SAVE_CHUNK_ROWS", rows)
                save_cloud(PointCloud(pts), path)
            assert path.read_bytes() == buffer.getvalue()


def test_csv_single_value(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("0.5\n")
    cloud = load_cloud(path)
    assert cloud.points.shape == (1, 1)
    assert cloud.points[0, 0] == 0.5


def test_csv_header_line_names_line_1(tmp_path):
    # A cloud file has no header; a header line is an unparsable row.
    path = tmp_path / "h.csv"
    path.write_text("x1,x2\n0.25,0.75\n")
    with pytest.raises(CloudFormatError, match="line 1"):
        load_cloud(path)


def test_csv_ragged_names_line(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("0.1,0.2\n0.3\n")
    with pytest.raises(CloudFormatError, match="line 2"):
        load_cloud(path)


def test_csv_non_numeric_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.1,0.2\n0.3,spam\n")
    with pytest.raises(CloudFormatError, match="line 2"):
        load_cloud(path)


def test_csv_empty_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(CloudFormatError):
        load_cloud(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_point_cloud_rejects_non_finite(bad):
    pts = np.random.default_rng(11).random((100, 3))
    pts[5, 1] = bad
    pts[9, 0] = bad
    with pytest.raises(ValueError, match=r"point 5 is not finite.*2 non-finite rows"):
        PointCloud(pts)


# -------------------------------------------------------------- normalization


def test_normalize_identity_when_touching_extremes():
    pts = np.array([[0.0, 0.5], [1.0, 0.0], [0.3, 1.0]])
    out, record = normalize_to_unit_cube(PointCloud(pts))
    assert record.scale == pytest.approx([1.0, 1.0])
    assert record.offset == pytest.approx([0.0, 0.0])
    assert np.array_equal(out.points, pts)


def test_normalize_affine_record():
    pts = np.array([[-1.0, 2.0], [3.0, 4.0]])
    out, record = normalize_to_unit_cube(PointCloud(pts))
    assert record.scale[0] == pytest.approx(0.25)
    assert record.offset[0] == pytest.approx(0.25)
    assert out.points.min() == 0.0 and out.points.max() == 1.0


def test_normalize_lands_in_cube_and_fits_without_warning():
    # Without clipping, scale * max + offset rounds to 1.0000000000000002
    # on this cloud, and fit_map warns about the normalized cloud.
    out, _ = normalize_to_unit_cube(gen_sphere_plane(1600, 0.5, seed=7))
    assert out.points.min() == 0.0 and out.points.max() == 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit_map(out, 3)


def test_normalize_round_trip_and_degenerate_axis():
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((20, 3)) * 7 + 3
    pts[:, 1] = 2.5  # degenerate axis
    out, record = normalize_to_unit_cube(PointCloud(pts))
    assert np.abs(out.points[:, 1] - 0.5).max() == 0.0
    back = record.invert(out.points)
    assert np.abs(back - pts).max() <= 1e-12
    with pytest.raises(ValueError):
        normalize_to_unit_cube(PointCloud(np.empty((0, 2))))


def test_normalize_refuses_an_axis_whose_width_overflows():
    # hi - lo is inf, so the scale would be 0 and every point the origin.
    pts = np.array([[0.5, 1e308], [0.25, -1e308], [0.0, 0.0]])
    with pytest.raises(ValueError, match=r"axis 1 spans \[-1e\+308, 1e\+308\]"):
        normalize_to_unit_cube(PointCloud(pts))


@pytest.mark.parametrize("bad", [0.0, -0.0, np.inf, np.nan])
def test_normalization_record_refuses_a_zero_or_non_finite_scale(bad):
    with pytest.raises(ValueError, match="on axis 2 must be finite and nonzero"):
        NormalizationRecord(scale=[1.0, -2.0, bad], offset=[0.0, 0.0, 0.0])


# ---------------------------------------------------------------------- noise


def test_noise_sigma_zero_is_identity():
    pts = np.full((10, 2), 0.5)
    rng = np.random.default_rng(1)
    assert np.array_equal(_add_noise(pts, 0.0, rng), pts)
    # sigma = 0 draws nothing from the generator's stream.
    assert rng.random() == np.random.default_rng(1).random()


def test_noise_variance_within_five_percent():
    pts = np.full((40_000, 3), 0.5)
    sigma = 0.01
    noisy = _add_noise(pts, sigma, np.random.default_rng(2))
    delta = (noisy - pts).ravel()
    assert delta.size >= 1e5
    assert abs(delta.var() - sigma**2) <= 0.05 * sigma**2


def test_noise_clamped_to_cube():
    noisy = _add_noise(np.zeros((500, 2)), 0.5, np.random.default_rng(3))
    assert (noisy >= 0).all() and (noisy <= 1).all()


# ----------------------------------------------------------------- model file


def test_model_round_trip_bit_exact(tmp_path):
    cloud = gen_sphere_plane(300, 0.5, seed=12)
    fit = fit_map(cloud, 3)
    model = ModelFile.from_fit(fit, seed=12)
    path = tmp_path / "model.json"
    save_model(model, path)
    again = load_model(path)
    assert np.array_equal(model.poly.coeffs, again.poly.coeffs)
    assert again.lam == model.lam
    assert again.poly.basis.exponents == model.poly.basis.exponents
    assert again.kernel_dim == model.kernel_dim
    assert again.seed == 12


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def model_files(draw):
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(list(MODEL_KINDS)))
    degree = draw(st.integers(0, 4 // MODEL_KINDS[kind]))
    basis = enumerate_monomials(n, MODEL_KINDS[kind] * degree)
    vectors = st.lists(FINITE, min_size=n, max_size=n)
    scales = st.lists(FINITE.filter(bool), min_size=n, max_size=n)
    normalization = draw(st.none() | st.builds(NormalizationRecord, scales, vectors))
    return ModelFile(
        poly=Poly(basis, draw(st.lists(FINITE, min_size=len(basis), max_size=len(basis)))),
        degree=degree,
        lam=draw(FINITE),
        kernel_dim=draw(st.integers(0, 50)),
        kind=kind,
        seed=draw(st.none() | st.integers(-(2**63), 2**63)),
        normalization=normalization,
    )


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@settings(max_examples=80, deadline=None)
@given(model=model_files())
def test_model_save_load_round_trip_is_bit_exact(tmp_path_factory, model):
    # Signed zeros, subnormals and extreme magnitudes included.
    path = tmp_path_factory.mktemp("roundtrip") / "model.json"
    save_model(model, path)
    again = load_model(path)
    assert _bits(again.poly.coeffs) == _bits(model.poly.coeffs)
    assert _bits(again.lam) == _bits(model.lam)
    assert again.poly.basis == model.poly.basis
    assert (again.degree, again.kernel_dim) == (model.degree, model.kernel_dim)
    assert (again.kind, again.seed) == (model.kind, model.seed)
    if model.normalization is None:
        assert again.normalization is None
    else:
        assert _bits(again.normalization.scale) == _bits(model.normalization.scale)
        assert _bits(again.normalization.offset) == _bits(model.normalization.offset)


def test_model_intersected_kind(tmp_path):
    fit = fit_map(PointCloud(np.array([[0.1, 0.1], [0.6, 0.6]])), 1)
    model = ModelFile.from_fit(fit, intersected=True)
    assert model.kind == "intersected"
    assert model.poly.basis.degree == 2
    path = tmp_path / "m.json"
    save_model(model, path)
    assert load_model(path).kind == "intersected"


def test_model_intersected_without_zero_eigenvalue_is_a_map(tmp_path):
    # Noisy data: the table has full rank (N = 10 at D = 2), so
    # intersected_map returns the degree-D map polynomial, and the file
    # says so.
    fit = fit_map(gen_sphere_plane(100, 0.5, seed=14, noise_sigma=0.01), 2)
    assert fit.rank == 10
    model = ModelFile.from_fit(fit, intersected=True)
    assert (model.kind, model.poly.basis.degree) == ("map", 2)
    path = tmp_path / "m.json"
    save_model(model, path)
    assert load_model(path).kind == "map"


@pytest.mark.parametrize("edit", [{"degree": 2}, {"kind": "map"}], ids=["degree", "kind"])
def test_intersected_model_degree_must_be_half_the_basis_degree(tmp_path, edit):
    # The map-model cases are in test_cli's MALFORMED_MODELS.
    fit = fit_map(PointCloud(np.array([[0.1, 0.1], [0.6, 0.6]])), 1)
    path = tmp_path / "m.json"
    save_model(ModelFile.from_fit(fit, intersected=True), path)
    path.write_text(json.dumps(json.loads(path.read_text()) | edit))
    with pytest.raises(ValueError, match="'degree'") as exc:
        load_model(path)
    assert str(path) in str(exc.value)


def test_model_rejects_unknown_ordering(tmp_path):
    fit = fit_map(PointCloud(np.array([[0.1, 0.2]])), 1)
    path = tmp_path / "m.json"
    save_model(ModelFile.from_fit(fit), path)
    doc = json.loads(path.read_text())
    doc["ordering"] = "lex"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_model(path)


@pytest.mark.parametrize(
    "edit",
    [
        # two rows of a whole grlex basis exchanged
        lambda doc: {**doc, "exponents": [doc["exponents"][1], doc["exponents"][0],
                                          *doc["exponents"][2:]]},
        # one term whose basis would have about 1.7e14 monomials
        lambda doc: {**doc, "exponents": [[100000, 0, 0]], "coefficients": [1.0]},
    ],
    ids=["exponents-swapped", "exponent-huge"],
)
def test_model_exponents_must_be_the_grlex_basis(tmp_path, edit):
    fit = fit_map(gen_sphere_plane(100, 0.5, seed=14), 2)
    path = tmp_path / "m.json"
    save_model(ModelFile.from_fit(fit), path)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(ValueError, match="exponents") as exc:
        load_model(path)
    assert str(path) in str(exc.value)


# -------------------------------------------------------------- script export


def test_export_script_for_sphere_plane_model():
    cloud = gen_sphere_plane(300, 0.5, seed=13)
    f = fit_map(cloud, 3)
    rational = rationalize(f.kernel_basis[0])
    script = export_singular_script(rational)
    for token in ("realrad", "minAssGTZ", "dim"):
        assert token in script
    assert "ring R = 0,(x,y,z),lp;" in script
    assert "x^3" in script and "1/2*x" in script


def test_export_script_six_lines_two_vars():
    s = 1.0 / np.sqrt(2.0)
    from varietyfit.polynomials import Poly, enumerate_monomials

    f = Poly(enumerate_monomials(2, 1), [s, -s, 0.0])
    script = export_singular_script(rationalize(f))
    lines = script.strip().splitlines()
    assert len(lines) == 6
    assert "ring R = 0,(x,y),lp;" in lines
    assert "poly f = x - y;" in lines
    assert script == export_singular_script(rationalize(f))


def test_export_script_requires_rational():
    with pytest.raises(TypeError):
        export_singular_script(plane_poly())
