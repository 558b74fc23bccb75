import contextlib
import functools
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varietyfit import cli, transport
from varietyfit.cli import main
from varietyfit.cloud import PointCloud, load_cloud, save_cloud
from varietyfit.datasets import gen_sphere_plane
from varietyfit.fitting import fit_map, map_polynomial
from varietyfit.modelio import ModelFile, load_model, save_model
from varietyfit.sampling import SamplerConfig, direct_sample
from varietyfit.singular import singularity_filter
from varietyfit.transport import wasserstein_exact, wasserstein_sinkhorn


def run(*args):
    return main([str(a) for a in args])


def test_gen_writes_cloud_and_manifest(tmp_path):
    out = tmp_path / "omega.csv"
    assert run("gen", "sphere-plane", "--m", 50, "--sigma", 0, "--seed", 1, "-o", out) == 0
    cloud = load_cloud(out)
    assert cloud.points.shape == (50, 3)
    manifest = json.loads((tmp_path / "omega.csv.manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert manifest["seed"] == 1
    assert manifest["results"]["m"] == 50


def test_gen_singular_and_line_kinds(tmp_path):
    assert run("gen", "sphere-plane-singular", "--m", 40, "--seed", 2,
               "-o", tmp_path / "s.csv") == 0
    assert load_cloud(tmp_path / "s.csv").points.shape == (40, 3)
    assert run("gen", "noisy-line", "--m", 30, "--sigma", 0.02, "--seed", 3,
               "-o", tmp_path / "l.csv") == 0
    assert load_cloud(tmp_path / "l.csv").points.shape == (30, 3)


def test_gen_requires_seed_and_valid_kind(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("gen", "sphere-plane", "--m", 10, "-o", tmp_path / "x.csv")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run("gen", "torus", "--m", 10, "--seed", 1, "-o", tmp_path / "x.csv")
    assert exc.value.code == 2


def test_gen_reproducible_outputs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run("gen", "sphere-plane", "--m", 60, "--seed", 9, "-o", a)
    run("gen", "sphere-plane", "--m", 60, "--seed", 9, "-o", b)
    assert a.read_bytes() == b.read_bytes()


def test_fit_reports_lambda_and_kernel(tmp_path, capsys):
    cloud = tmp_path / "omega.csv"
    run("gen", "sphere-plane", "--m", 300, "--seed", 4, "-o", cloud)
    model_path = tmp_path / "model.json"
    assert run("fit", "-i", cloud, "-D", 3, "-o", model_path) == 0
    out = capsys.readouterr().out
    assert "lambda=" in out and "kernel_dim=1" in out
    model = load_model(model_path)
    assert model.degree == 3
    assert model.kernel_dim == 1
    # fit takes no seed; the model keeps the key, as null.
    assert json.loads(model_path.read_text())["seed"] is None


def test_fit_degree_zero_forced_constant(tmp_path):
    cloud = tmp_path / "c.csv"
    run("gen", "sphere-plane", "--m", 25, "--seed", 5, "-o", cloud)
    model_path = tmp_path / "m.json"
    assert run("fit", "-i", cloud, "-D", 0, "-o", model_path) == 0
    model = load_model(model_path)
    assert model.lam == pytest.approx(25.0)
    assert np.array_equal(model.poly.coeffs, np.array([1.0]))


def test_fit_degree_one_diagonal_kernel(tmp_path):
    cloud_path = tmp_path / "diag.csv"
    t = np.linspace(0, 1, 5)
    cloud_path.write_text("\n".join(f"{v:.17g},{v:.17g}" for v in t) + "\n")
    model_path = tmp_path / "m.json"
    assert run("fit", "-i", cloud_path, "-D", 1, "-o", model_path) == 0
    assert load_model(model_path).kernel_dim == 1


def test_fit_missing_input_is_input_error(tmp_path):
    assert run("fit", "-i", tmp_path / "nope.csv", "-D", 1, "-o", tmp_path / "m.json") == 2


def test_sample_and_postcondition(tmp_path):
    cloud = tmp_path / "omega.csv"
    model = tmp_path / "model.json"
    out = tmp_path / "resampled.csv"
    run("gen", "sphere-plane", "--m", 200, "--seed", 6, "-o", cloud)
    run("fit", "-i", cloud, "-D", 3, "-o", model)
    assert run("sample", "--model", model, "--m", 100, "--eta", 0.001, "--seed", 7,
               "-o", out) == 0
    resampled = load_cloud(out)
    f = load_model(model).poly
    assert np.abs(f.evaluate(resampled.points)).max() < 0.001
    manifest = json.loads((tmp_path / "resampled.csv.manifest.json").read_text())
    assert 0 < manifest["results"]["acceptance_rate"] <= 1
    # the band's geometric width: quantiles of |f| / ||grad f|| over the sample
    ratio = np.abs(f.evaluate(resampled.points)) / np.linalg.norm(
        f.gradient(resampled.points), axis=1
    )
    expected = np.quantile(ratio, [0.5, 0.9, 0.99], method="inverted_cdf")
    band = manifest["results"]["band_distance_quantiles"]
    assert [band[k] for k in ("50", "90", "99")] == expected.tolist()


def test_sample_warns_when_the_band_swallows_the_cube(tmp_path, capsys):
    cloud, model = tmp_path / "omega.csv", tmp_path / "model.json"
    run("gen", "sphere-plane", "--m", 200, "--seed", 6, "-o", cloud)
    run("fit", "-i", cloud, "-D", 3, "-o", model)
    capsys.readouterr()
    assert run("sample", "--model", model, "--m", 100, "--eta", 0.001, "--seed", 7,
               "-o", tmp_path / "thin.csv") == 0
    assert "warning" not in capsys.readouterr().err
    # eta = 0.05 keeps more than half of the proposals of this fit
    assert run("sample", "--model", model, "--m", 100, "--eta", 0.05, "--seed", 7,
               "-o", tmp_path / "thick.csv") == 0
    err = capsys.readouterr().err
    manifest = json.loads((tmp_path / "thick.csv.manifest.json").read_text())
    rate = manifest["results"]["acceptance_rate"]
    assert rate >= cli.BAND_SWALLOW_RATE
    assert f"warning: acceptance rate {rate:.3g} >= 0.5" in err


def test_pipeline_warns_per_degree_when_the_band_swallows_the_cube(tmp_path, capsys):
    assert run("pipeline", "--m", 60, "--degrees", "1,3", "--eta", 0.05, "--seed", 1,
               "--outdir", tmp_path / "pipe") == 0
    err = capsys.readouterr().err
    table = json.loads((tmp_path / "pipe" / "manifest.json").read_text())["results"]["table"]
    for row in table:
        warned = f"warning: D={row['D']}: acceptance rate" in err
        assert warned == (row["acceptance_rate"] >= cli.BAND_SWALLOW_RATE)
    assert "D=3: acceptance rate" in err


def test_sample_budget_exhaustion_exit_code(tmp_path):
    cloud = tmp_path / "omega.csv"
    model = tmp_path / "model.json"
    run("gen", "sphere-plane", "--m", 100, "--seed", 8, "-o", cloud)
    run("fit", "-i", cloud, "-D", 3, "-o", model)
    code = run("sample", "--model", model, "--m", 5000, "--eta", 1e-9,
               "--max-proposals", 10_000, "--seed", 9, "-o", tmp_path / "r.csv")
    assert code == 3


def test_singular_filter_and_eta_warning(tmp_path, capsys):
    cloud = tmp_path / "omega.csv"
    model = tmp_path / "model.json"
    resampled = tmp_path / "resampled.csv"
    run("gen", "sphere-plane", "--m", 400, "--seed", 10, "-o", cloud)
    run("fit", "-i", cloud, "-D", 3, "-o", model)
    run("sample", "--model", model, "--m", 400, "--eta", 0.001, "--seed", 11,
        "-o", resampled)
    out = tmp_path / "sing.csv"
    norms = tmp_path / "norms.txt"
    assert run("singular", "--model", model, "-i", resampled, "--epsilon", 0.02,
               "--eta", 0.05, "--norms-output", norms, "-o", out) == 0
    err = capsys.readouterr().err
    assert "epsilon" in err and "eta" in err
    assert len(np.loadtxt(norms)) == 400
    manifest = json.loads((tmp_path / "sing.csv.manifest.json").read_text())
    assert manifest["results"]["accepted_count"] >= 1


def test_empty_singular_output_is_refused_by_compare(tmp_path, capsys):
    # A filter that accepts nothing writes an empty file; a cloud with no
    # points cannot be compared, and compare says which file it is.
    cloud, model, sing = tmp_path / "omega.csv", tmp_path / "model.json", tmp_path / "sing.csv"
    run("gen", "sphere-plane", "--m", 100, "--seed", 15, "-o", cloud)
    run("fit", "-i", cloud, "-D", 3, "-o", model)
    assert run("singular", "--model", model, "-i", cloud, "--epsilon", 1e-12, "-o", sing) == 0
    assert sing.read_bytes() == b""
    capsys.readouterr()
    metrics = tmp_path / "m.json"
    assert run("compare", "--input-a", cloud, "--input-b", sing, "-o", metrics) == 2
    assert f"{sing}: no data rows" in capsys.readouterr().err
    assert not metrics.exists()


def test_compare_self_is_zero(tmp_path, capsys):
    cloud = tmp_path / "omega.csv"
    run("gen", "sphere-plane", "--m", 80, "--seed", 12, "-o", cloud)
    metrics = tmp_path / "metrics.json"
    assert run("compare", "--input-a", cloud, "--input-b", cloud, "-o", metrics) == 0
    doc = json.loads(metrics.read_text())
    assert doc["distance"] == 0.0
    assert doc["method"] == "exact-assignment"


def test_compare_unequal_sizes_uses_sinkhorn(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run("gen", "sphere-plane-singular", "--m", 50, "--seed", 13, "-o", a)
    run("gen", "sphere-plane-singular", "--m", 70, "--seed", 14, "-o", b)
    metrics = tmp_path / "m.json"
    assert run("compare", "--input-a", a, "--input-b", b, "-o", metrics) == 0
    doc = json.loads(metrics.read_text())
    assert doc["method"] == "sinkhorn"
    assert doc["distance"] < 0.2
    # The manifest carries the solve's diagnostics, Sinkhorn's final
    # over-relaxation factor included.
    manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
    assert manifest["results"] == doc
    assert doc["iterations"] > 0 and doc["marginal_error"] <= 1e-6
    assert 1.0 <= doc["omega"] < 2.0


@pytest.mark.parametrize("reg", ["inf", "nan", "0", "-1"])
def test_compare_rejects_bad_reg(tmp_path, reg):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run("gen", "sphere-plane-singular", "--m", 20, "--seed", 13, "-o", a)
    run("gen", "sphere-plane-singular", "--m", 30, "--seed", 14, "-o", b)
    metrics = tmp_path / "m.json"
    assert run("compare", "--input-a", a, "--input-b", b, "--reg", reg, "-o", metrics) == 2
    assert not metrics.exists()


def test_compare_equal_clouds_over_budget_exit_2(tmp_path, monkeypatch, capsys):
    def no_cost_matrix(*args, **kwargs):
        raise AssertionError("cost matrix built")

    monkeypatch.setattr(transport, "cdist", no_cost_matrix)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    rng = np.random.default_rng(20)
    for path in (a, b):
        np.savetxt(path, rng.random((4097, 1)), fmt="%.17g")
    metrics = tmp_path / "m.json"
    assert run("compare", "--input-a", a, "--input-b", b, "-o", metrics) == 2
    assert "4097 x 4097 cost matrix needs 134283272 bytes" in capsys.readouterr().err
    assert not metrics.exists()
    assert not (tmp_path / "m.json.manifest.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--input-a", "a.csv", "--input-b", "a.csv", "--method", "exact",
         "-o", "m.json"],
        ["pipeline", "--m", 50, "--seed", 1, "--compare-method", "auto", "--outdir", "pipe"],
        ["sample", "--model", "model.json", "--method", "rejection", "--m", 10, "--seed", 1,
         "-o", "x.csv"],
    ],
    ids=["compare-method", "pipeline-compare-method", "sample-method"],
)
def test_solver_choice_is_not_a_flag(tmp_path, monkeypatch, argv):
    # The cloud sizes pick the solver, and there is one sampler; no flag
    # chooses either.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


# (case id, argv, what the message names); every case is refused before any
# output is written.
REFUSED_INPUTS = [
    ("gen-singular-sigma", ["gen", "sphere-plane-singular", "--m", 40, "--sigma", 0.3,
                            "--seed", 1, "-o", "x.csv"], "--sigma"),
    ("gen-singular-plane-fraction", ["gen", "sphere-plane-singular", "--m", 40,
                                     "--plane-fraction", 0.3, "--seed", 1, "-o", "x.csv"],
     "--plane-fraction"),
    ("gen-line-plane-fraction", ["gen", "noisy-line", "--m", 40, "--sigma", 0.01,
                                 "--plane-fraction", 0.3, "--seed", 1, "-o", "x.csv"],
     "--plane-fraction"),
    ("pipeline-singular-sigma", ["pipeline", "--kind", "sphere-plane-singular", "--m", 60,
                                 "--sigma", 0.3, "--seed", 1, "--outdir", "pipe"], "--sigma"),
    ("pipeline-line-plane-fraction", ["pipeline", "--kind", "noisy-line", "--m", 60,
                                      "--plane-fraction", 0.7, "--seed", 1, "--outdir", "pipe"],
     "--plane-fraction"),
    ("compare-reg-equal-sizes", ["compare", "--input-a", "a.csv", "--input-b", "b.csv",
                                 "--reg", 0.5, "-o", "m.json"], "--reg"),
    ("pipeline-reg-exact", ["pipeline", "--m", 60, "--reg", 0.5, "--seed", 1,
                            "--outdir", "pipe"], "--reg"),
    ("pipeline-reference-2d", ["pipeline", "--m", 60, "--reference", "flat.csv", "--seed", 1,
                               "--outdir", "pipe"], "dimension 2"),
    # A reference of another size picks Sinkhorn, whose reg is checked
    # before any fit: at --eta 0.05 the D = 3 sample would warn first.
    ("pipeline-reg-nan", ["pipeline", "--m", 60, "--degrees", "1,3", "--eta", 0.05,
                          "--reference", "tiny.csv", "--reg", "nan", "--seed", 1,
                          "--outdir", "pipe"], "reg must be finite and > 0"),
    ("pipeline-reg-negative", ["pipeline", "--m", 60, "--degrees", "1,3", "--eta", 0.05,
                               "--reference", "tiny.csv", "--reg", -1, "--seed", 1,
                               "--outdir", "pipe"], "reg must be finite and > 0"),
    ("pipeline-reg-inf", ["pipeline", "--m", 60, "--degrees", "1,3", "--eta", 0.05,
                          "--reference", "tiny.csv", "--reg", "inf", "--seed", 1,
                          "--outdir", "pipe"], "reg must be finite and > 0"),
    ("gen-m-0", ["gen", "sphere-plane", "--m", 0, "--seed", 1, "-o", "x.csv"], "--m"),
    ("gen-sphere-plane-sigma-negative", ["gen", "sphere-plane", "--m", 40, "--sigma", -0.1,
                                         "--seed", 1, "-o", "x.csv"], "sigma"),
    ("gen-line-sigma-nan", ["gen", "noisy-line", "--m", 40, "--sigma", "nan", "--seed", 1,
                            "-o", "x.csv"], "sigma"),
    ("pipeline-m-0", ["pipeline", "--m", 0, "--seed", 1, "--outdir", "pipe"], "--m"),
    ("pipeline-sigma-negative", ["pipeline", "--m", 60, "--sigma", -0.1, "--seed", 1,
                                 "--outdir", "pipe"], "sigma"),
    ("pipeline-degrees-negative", ["pipeline", "--m", 60, "--degrees", "-1", "--seed", 1,
                                   "--outdir", "pipe"], "--degrees"),
    ("pipeline-degrees-repeated", ["pipeline", "--m", 60, "--degrees", "1,1", "--seed", 1,
                                   "--outdir", "pipe"], "--degrees"),
    ("pipeline-degrees-not-integer", ["pipeline", "--m", 60, "--degrees", "x", "--seed", 1,
                                      "--outdir", "pipe"], "--degrees"),
    ("pipeline-degrees-empty-item", ["pipeline", "--m", 60, "--degrees", "1,,2", "--seed", 1,
                                     "--outdir", "pipe"], "--degrees"),
    ("pipeline-eta-0", ["pipeline", "--m", 60, "--eta", 0, "--seed", 1, "--outdir", "pipe"],
     "eta"),
    ("pipeline-epsilon-0", ["pipeline", "--m", 60, "--epsilon", 0, "--degrees", 1,
                            "--seed", 1, "--outdir", "pipe"], "--epsilon"),
    # A non-finite band or threshold accepts everything.
    ("sample-eta-inf", ["sample", "--model", "sphere.json", "--m", 10, "--eta", "inf",
                        "--seed", 1, "-o", "x.csv"], "eta"),
    ("singular-epsilon-inf", ["singular", "--model", "sphere.json", "-i", "a.csv",
                              "--epsilon", "inf", "-o", "x.csv"], "epsilon"),
    # Refused before the epsilon <= eta warning is printed.
    ("singular-epsilon-0-eta-3", ["singular", "--model", "sphere.json", "-i", "a.csv",
                                  "--epsilon", 0, "--eta", 3, "-o", "x.csv"],
     "epsilon must be finite and > 0"),
    # singular's --eta follows the sampler's rule; NaN would silence its warning.
    ("singular-eta-nan", ["singular", "--model", "sphere.json", "-i", "a.csv", "--epsilon", 0.02,
                          "--eta", "nan", "-o", "x.csv"], "eta must be finite and > 0"),
    ("singular-eta-negative", ["singular", "--model", "sphere.json", "-i", "a.csv",
                               "--epsilon", 0.02, "--eta", -1, "-o", "x.csv"],
     "eta must be finite and > 0"),
    # The filtered cloud is not left behind when its norms cannot be written.
    ("singular-norms-output-unwritable", ["singular", "--model", "sphere.json", "-i", "a.csv",
                                          "--epsilon", 0.02, "--norms-output", "nodir/n.txt",
                                          "-o", "x.csv"], "nodir/n.txt"),
    ("pipeline-eta-inf", ["pipeline", "--m", 60, "--eta", "inf", "--seed", 1,
                          "--outdir", "pipe"], "eta"),
    ("pipeline-epsilon-inf", ["pipeline", "--m", 60, "--epsilon", "inf", "--degrees", 1,
                              "--seed", 1, "--outdir", "pipe"], "--epsilon"),
    ("pipeline-max-proposals-below-m", ["pipeline", "--m", 60, "--max-proposals", 10,
                                        "--seed", 1, "--outdir", "pipe"], "max_proposals"),
    # Over the one-dense-matrix budget: the sample's points, the pipeline's
    # cost matrix before the cloud or the outdir exists, and a fit's Gram
    # matrix, in the pipeline for any listed degree before the outdir exists.
    ("sample-m-over-budget", ["sample", "--model", "sphere.json", "--m", 10**10, "--seed", 1,
                              "-o", "x.csv"],
     "10000000000 x 3 sample needs 240000000000 bytes"),
    ("pipeline-m-over-transport-budget", ["pipeline", "--m", 4100, "--degrees", 1, "--seed", 1,
                                          "--outdir", "pipe"],
     "4100 x 4100 cost matrix needs 134480000 bytes"),
    ("fit-degree-40", ["fit", "-i", "tiny.csv", "-D", 40, "-o", "model.json"],
     "12341 x 12341 Gram matrix"),
    ("pipeline-degree-over-budget", ["pipeline", "--m", 60, "--degrees", "1,40", "--seed", 1,
                                     "--outdir", "pipe"], "12341 x 12341 Gram matrix"),
    # A NaN or infinite band merges the whole basis into the kernel.
    ("fit-multiplicity-tol-nan", ["fit", "-i", "a.csv", "-D", 2, "--multiplicity-tol", "nan",
                                  "-o", "model.json"], "multiplicity_tol"),
    ("fit-multiplicity-tol-inf", ["fit", "-i", "a.csv", "-D", 2, "--multiplicity-tol", "inf",
                                  "-o", "model.json"], "multiplicity_tol"),
    ("fit-multiplicity-tol-negative", ["fit", "-i", "a.csv", "-D", 2, "--multiplicity-tol", -1,
                                       "-o", "model.json"], "multiplicity_tol"),
    ("export-algebra-drop-tol-negative", ["export-algebra", "--model", "sphere.json",
                                          "--drop-tol", -1, "-o", "x.sing"], "drop_tol"),
    ("export-algebra-drop-tol-nan", ["export-algebra", "--model", "sphere.json",
                                     "--drop-tol", "nan", "-o", "x.sing"], "drop_tol"),
    # A generated cloud over the budget, before it is allocated.
    ("gen-m-over-budget", ["gen", "sphere-plane", "--m", 10**10, "--seed", 1, "-o", "x.csv"],
     "10000000000 x 3 cloud needs 240000000000 bytes"),
    # An axis whose width overflows would normalize to a zero scale.
    ("fit-normalize-overflow", ["fit", "-i", "wide.csv", "-D", 1, "--normalize",
                                "-o", "model.json"], "axis 0 spans [-1e+308, 1e+308]"),
    # A nonzero constant's band is empty: refused before any proposal.
    ("sample-constant-model", ["sample", "--model", "const.json", "--m", 1600, "--seed", 1,
                               "-o", "x.csv"], "the model is the constant 1"),
    # Squared distances that overflow, for either solver.
    ("compare-overflow-equal-sizes", ["compare", "--input-a", "far_a.csv", "--input-b",
                                      "far_b.csv", "-o", "m.json"],
     "squared distances between them overflow"),
    ("compare-overflow-unequal-sizes", ["compare", "--input-a", "far_a.csv", "--input-b",
                                        "far_tiny.csv", "-o", "m.json"],
     "squared distances between them overflow"),
]


@pytest.mark.parametrize("argv,named", [c[1:] for c in REFUSED_INPUTS],
                         ids=[c[0] for c in REFUSED_INPUTS])
def test_refused_input_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys, argv, named):
    monkeypatch.chdir(tmp_path)
    save_cloud(gen_sphere_plane(60, 0.5, seed=1), tmp_path / "a.csv")
    save_cloud(gen_sphere_plane(60, 0.5, seed=2), tmp_path / "b.csv")
    save_cloud(PointCloud(np.random.default_rng(3).random((60, 2))), tmp_path / "flat.csv")
    save_cloud(gen_sphere_plane(25, 0.5, seed=4), tmp_path / "tiny.csv")
    save_model(ModelFile.from_fit(fit_map(gen_sphere_plane(300, 0.5, seed=15), 3)),
               tmp_path / "sphere.json")
    save_cloud(PointCloud([[1e308, 0.5, 0.5], [-1e308, 0.2, 0.1], [0.0, 0.9, 0.3]]),
               tmp_path / "wide.csv")
    save_model(ModelFile.from_fit(fit_map(gen_sphere_plane(25, 0.5, seed=4), 0)),
               tmp_path / "const.json")
    for name, m, seed in (("far_a", 60, 1), ("far_b", 60, 2), ("far_tiny", 25, 4)):
        save_cloud(PointCloud(1e200 * gen_sphere_plane(m, 0.5, seed=seed).points),
                   tmp_path / f"{name}.csv")
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    # The refusal is the first thing on stderr: no warning or work before it.
    assert err.startswith("error:")
    assert named in err
    assert sorted(tmp_path.iterdir()) == before


# Python run in a child interpreter per case, and whether SciPy is loaded
# after it: only a command that transports imports SciPy.
SCIPY_IMPORT_CASES = [
    ("import-package", "import varietyfit", False),
    ("import-cli", "import varietyfit.cli", False),
    ("gen", "gen sphere-plane --m 40 --seed 1 -o g.csv", False),
    ("fit", "fit -i a.csv -D 3 -o m.json", False),
    ("sample", "sample --model sphere.json --m 40 --seed 1 -o s.csv", False),
    ("singular", "singular --model sphere.json -i a.csv --epsilon 0.02 -o x.csv", False),
    ("export-algebra", "export-algebra --model sphere.json -o x.sing", False),
    ("compare", "compare --input-a a.csv --input-b b.csv -o m.json", True),
]


@pytest.mark.parametrize("code,loads_scipy", [c[1:] for c in SCIPY_IMPORT_CASES],
                         ids=[c[0] for c in SCIPY_IMPORT_CASES])
def test_only_transport_imports_scipy(tmp_path, code, loads_scipy):
    if not code.startswith("import "):
        code = f"from varietyfit.cli import main; assert main({code.split()!r}) == 0"
    save_cloud(gen_sphere_plane(300, 0.5, seed=15), tmp_path / "a.csv")
    save_cloud(gen_sphere_plane(300, 0.5, seed=2), tmp_path / "b.csv")
    save_model(ModelFile.from_fit(fit_map(gen_sphere_plane(300, 0.5, seed=15), 3)),
               tmp_path / "sphere.json")
    probe = f"import sys\n{code}\nprint(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = os.environ | {"PYTHONPATH": path}
    child = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split()[-1] == str(loads_scipy)


def test_normalized_model_is_used_in_data_coordinates(tmp_path):
    # Data in [5, 15]^3; the model is fitted in [0, 1]^3 and records the map.
    raw = tmp_path / "raw.csv"
    save_cloud(PointCloud(10 * gen_sphere_plane(800, 0.5, seed=3).points + 5), raw)
    model_path = tmp_path / "model.json"
    assert run("fit", "-i", raw, "-D", 3, "--normalize", "-o", model_path) == 0
    model = load_model(model_path)
    points = load_cloud(raw).points

    # singular filters the mapped points and writes the accepted input rows
    sing, norms = tmp_path / "sing.csv", tmp_path / "norms.txt"
    assert run("singular", "--model", model_path, "-i", raw, "--epsilon", 0.02,
               "--norms-output", norms, "-o", sing) == 0
    expected = singularity_filter(
        model.poly, PointCloud(model.normalization.apply(points)), 0.02
    )
    assert expected.accepted_count == 106
    keep = expected.gradient_norms < 0.02
    assert np.array_equal(load_cloud(sing).points, points[keep])
    assert np.array_equal(np.loadtxt(norms), expected.gradient_norms)
    manifest = json.loads((tmp_path / "sing.csv.manifest.json").read_text())
    assert manifest["results"]["accepted_count"] == 106

    # sample writes its points in the data's coordinates
    resampled = tmp_path / "resampled.csv"
    assert run("sample", "--model", model_path, "--m", 800, "--seed", 4,
               "-o", resampled) == 0
    sampled = load_cloud(resampled).points
    assert sampled.shape == (800, 3)
    lo, hi = points.min(axis=0), points.max(axis=0)
    assert np.all(sampled >= lo - 1e-9) and np.all(sampled <= hi + 1e-9)
    assert 5.0 <= sampled.min() and sampled.max() <= 15.0

    # A one-column cloud would broadcast through the record: refused instead.
    line = tmp_path / "line.csv"
    save_cloud(PointCloud(points[:, :1]), line)
    assert run("singular", "--model", model_path, "-i", line, "--epsilon", 0.02,
               "-o", tmp_path / "line_sing.csv") == 2
    assert not (tmp_path / "line_sing.csv").exists()


def test_export_algebra_and_rationalization_failure(tmp_path):
    cloud = tmp_path / "omega.csv"
    model = tmp_path / "model.json"
    run("gen", "sphere-plane", "--m", 300, "--seed", 15, "-o", cloud)
    run("fit", "-i", cloud, "-D", 3, "-o", model)
    script = tmp_path / "script.sing"
    assert run("export-algebra", "--model", model, "-o", script) == 0
    text = script.read_text()
    assert "realrad" in text and "minAssGTZ" in text and "dim" in text
    # a D=2 fit of this data has irrational-looking coefficients
    model2 = tmp_path / "model2.json"
    run("fit", "-i", cloud, "-D", 2, "-o", model2)
    assert run("export-algebra", "--model", model2, "--max-denominator", 3,
               "-o", tmp_path / "s2.sing") == 2


def test_export_algebra_deterministic(tmp_path):
    cloud = tmp_path / "omega.csv"
    model = tmp_path / "model.json"
    run("gen", "sphere-plane", "--m", 200, "--seed", 16, "-o", cloud)
    run("fit", "-i", cloud, "-D", 3, "-o", model)
    s1, s2 = tmp_path / "s1.sing", tmp_path / "s2.sing"
    run("export-algebra", "--model", model, "-o", s1)
    run("export-algebra", "--model", model, "-o", s2)
    assert s1.read_bytes() == s2.read_bytes()


def test_pipeline_writes_distance_table(tmp_path):
    outdir = tmp_path / "pipe"
    assert run("pipeline", "--kind", "sphere-plane", "--m", 200, "--seed", 17,
               "--degrees", "1,3", "--outdir", outdir) == 0
    lines = (outdir / "distances.csv").read_text().splitlines()
    assert lines[0].startswith("D,lambda,kernel_dim,wasserstein")
    assert len(lines) == 3
    rows = {int(l.split(",")[0]): float(l.split(",")[3]) for l in lines[1:]}
    assert rows[3] < rows[1]
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["command"] == "pipeline"
    assert len(manifest["results"]["table"]) == 2
    # band quantiles go to the manifest only, not to distances.csv
    assert lines[0] == "D,lambda,kernel_dim,wasserstein,singular_count,acceptance_rate"
    for row in manifest["results"]["table"]:
        band = [row["band_distance_quantiles"][k] for k in ("50", "90", "99")]
        assert 0 < band[0] <= band[1] <= band[2] < np.inf
        # transport diagnostics go to the manifest only, too
        assert (row["method"], row["iterations"], row["marginal_error"]) == (
            "exact-assignment", 0, 0.0
        )


def test_reused_pipeline_outdir_keeps_no_stale_singular_file(tmp_path):
    # Each degree's singular file is written, empty when the filter accepts
    # nothing, so it always holds distances.csv's singular_count rows.
    outdir = tmp_path / "pipe"
    for epsilon, accepted in ((0.5, True), (1e-9, False)):
        assert run("pipeline", "--m", 200, "--degrees", "1,3", "--epsilon", epsilon,
                   "--seed", 1, "--outdir", outdir) == 0
        lines = (outdir / "distances.csv").read_text().splitlines()[1:]
        counts = {int(l.split(",")[0]): int(l.split(",")[4]) for l in lines}
        assert (counts[3] > 0) == accepted
        for degree, count in counts.items():
            text = (outdir / f"singular_D{degree}.csv").read_text()
            assert len(text.splitlines()) == count


def test_pipeline_sinkhorn_converges_at_m_120():
    # The clouds `pipeline --m 120 --seed 22 --degrees 1,2,3` transports,
    # solved by Sinkhorn: plain scaling runs out of its 20000 iterations at
    # the default reg on degrees 2 and 3; over-relaxed, all three converge.
    cloud = gen_sphere_plane(120, 0.5, seed=22)
    for degree in (1, 2, 3):
        f = map_polynomial(fit_map(cloud, degree))
        resampled = direct_sample(f, SamplerConfig(seed=22 + 1000 * degree, target_m=120))
        plan = wasserstein_sinkhorn(cloud, resampled)
        assert plan.converged, degree
        assert 0 < plan.iterations <= 20000 and plan.marginal_error <= 1e-6


def test_band_quantiles_count_zero_gradients_as_inf():
    values = np.array([0.1, 0.0, 0.3, 0.2])
    norms = np.array([1.0, 0.0, 0.0, 2.0])
    band = cli._band_quantiles(values, norms)
    assert band == {50: 0.1, 90: np.inf, 99: np.inf}


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_pipeline_distances_equal_one_degree_at_a_time(tmp_path, monkeypatch, cpus):
    # The transports run on min(#degrees, usable CPUs) threads; every
    # thread count must give the sequential solver's bytes.
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    outdir = tmp_path / "pipe"
    assert run("pipeline", "--m", 200, "--seed", 18, "--degrees", "1,2,3",
               "--outdir", outdir) == 0
    reference = load_cloud(outdir / "reference.csv")
    lines = (outdir / "distances.csv").read_text().splitlines()
    expected = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        resampled = load_cloud(outdir / f"resampled_D{cells[0]}.csv")
        cells[3] = f"{wasserstein_exact(reference, resampled).cost:.17g}"
        expected.append(",".join(cells))
    assert [l.split(",")[0] for l in lines[1:]] == ["1", "2", "3"]
    assert lines == expected


def _record_transport_threads(monkeypatch, name, parties):
    """Wrap cli.<name> to record the thread of each call and the most calls
    that ran at once. With parties > 1 every call waits until that many are
    running, so fewer threads fail the wait instead of passing by chance."""
    solve = getattr(cli, name)
    lock = threading.Lock()
    barrier = threading.Barrier(parties, timeout=30) if parties > 1 else None
    threads, running, peak = [], [0], [0]

    def wrapped(*args, **kwargs):
        with lock:
            threads.append(threading.current_thread())
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        try:
            if barrier is not None:
                barrier.wait()
            return solve(*args, **kwargs)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(cli, name, wrapped)
    return threads, peak


@pytest.mark.parametrize("method, workers", [("exact", 3), ("sinkhorn", 1)])
def test_pipeline_runs_only_exact_transports_concurrently(
    tmp_path, monkeypatch, method, workers
):
    # Each Sinkhorn solve holds several dense matrices, so those stay serial.
    # A 150-point reference against 120-point resamples picks Sinkhorn;
    # reg = 0.005 converges well inside the 20000-iteration cap on all three
    # degrees of this seed.
    extra = []
    if method == "sinkhorn":
        save_cloud(gen_sphere_plane(150, 0.5, seed=20), tmp_path / "ref.csv")
        extra = ["--reference", tmp_path / "ref.csv", "--reg", 0.005]
    pools = []
    pool = cli._pool

    def recorded_pool(n):
        pools.append(n)
        return pool(n)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(cli, "_pool", recorded_pool)
    name = {"exact": "wasserstein_exact", "sinkhorn": "wasserstein_sinkhorn"}[method]
    threads, peak = _record_transport_threads(monkeypatch, name, workers)
    assert run("pipeline", "--m", 120, "--seed", 20, "--degrees", "1,2,3", *extra,
               "--outdir", tmp_path / "pipe") == 0
    assert pools == [workers]
    assert len(threads) == 3 and len(set(threads)) == peak[0] == workers
    assert threading.current_thread() not in threads
    table = json.loads((tmp_path / "pipe" / "manifest.json").read_text())["results"]["table"]
    solver = {"exact": "exact-assignment", "sinkhorn": "sinkhorn"}[method]
    assert [row["method"] for row in table] == [solver] * 3


@settings(max_examples=40, deadline=None)
@given(
    # (m, m') per pair; None makes m' = m, an exact pair.
    sizes=st.lists(st.tuples(st.integers(2, 9), st.none() | st.integers(2, 9)),
                   min_size=1, max_size=4),
    cpus=st.integers(1, 3),
    reg=st.none() | st.just(0.05),
    seed=st.integers(0, 2**32 - 1),
)
def test_transports_equal_one_pair_at_a_time(sizes, cpus, reg, seed):
    rng = np.random.default_rng(seed)
    pairs = [(PointCloud(rng.random((m, 2))), PointCloud(rng.random((mp or m, 2))))
             for m, mp in sizes]
    exact = [a.m == b.m for a, b in pairs]
    pools, solves = [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_usable_cpus", lambda: cpus)
        pool = cli._pool
        patch.setattr(cli, "_pool", lambda n: pools.append(n) or pool(n))
        for name in ("wasserstein_exact", "wasserstein_sinkhorn"):
            patch.setattr(cli, name, lambda *args, solve=getattr(cli, name), **kwargs:
                          solves.append(args) or solve(*args, **kwargs))
        if reg is not None and any(exact):
            # Refused before any solve is scheduled.
            with pytest.raises(ValueError, match="--reg"):
                cli._transports(pairs, reg)
            assert pools == [] and solves == []
            return
        plans = [wasserstein_exact(a, b) if a.m == b.m else wasserstein_sinkhorn(a, b, reg=reg)
                 for a, b in pairs]
        solves.clear()
        if not all(plan.converged for plan in plans):
            with pytest.raises(cli._NotConverged):
                cli._transports(pairs, reg)
        else:
            results = cli._transports(pairs, reg)
            assert [(r["wasserstein"], r["method"], r["iterations"]) for r in results] == [
                (plan.cost, plan.method, plan.iterations) for plan in plans
            ]
    # Only an all-exact list runs concurrently; every pair is solved once.
    assert pools == [min(len(pairs), cpus) if all(exact) else 1]
    assert len(solves) == len(pairs)


def test_second_pipeline_run_starts_no_threads(tmp_path, monkeypatch):
    # The transport pool lives as long as the process: a second sweep runs
    # its three concurrent exact solves on the first sweep's threads.
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    threads, _ = _record_transport_threads(monkeypatch, "wasserstein_exact", 3)
    argv = ["pipeline", "--m", 80, "--seed", 21, "--degrees", "1,2,3", "--outdir"]
    assert run(*argv, tmp_path / "first") == 0
    before = set(threading.enumerate())
    assert run(*argv, tmp_path / "second") == 0
    assert set(threading.enumerate()) <= before
    assert set(threads[3:]) == set(threads[:3]) and len(set(threads)) == 3


def test_pipeline_transport_error_exits_2_without_manifest(tmp_path, monkeypatch, capsys):
    # One of three concurrent exact solves fails with an input error.
    calls = itertools.count()

    def exact(a, b):
        if next(calls) == 1:
            raise ValueError("injected transport failure")
        return wasserstein_exact(a, b)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(cli, "wasserstein_exact", exact)
    outdir = tmp_path / "pipe"
    assert run("pipeline", "--m", 200, "--seed", 19, "--degrees", "1,2,3",
               "--outdir", outdir) == 2
    assert "injected transport failure" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize(
    "argv, code, named",
    [
        # fit_map at degree 0 is the constant 1, whose band is empty.
        (["--degrees", "1,0"], 2, "the model is the constant 1"),
        # At eta = 1e-9, D = 1's band is too thin for 2000 proposals.
        (["--degrees", "1,3", "--eta", 1e-9, "--max-proposals", 2000], 3, "accepted only"),
    ],
    ids=["degree-0", "proposal-budget"],
)
def test_pipeline_late_failure_writes_nothing(tmp_path, capsys, argv, code, named):
    # Each run fails after the cloud is generated and a degree is fitted;
    # nothing is written until every stage has passed.
    outdir = tmp_path / "pipe"
    assert run("pipeline", "--m", 60, "--seed", 1, *argv, "--outdir", outdir) == code
    assert named in capsys.readouterr().err
    assert not outdir.exists()


def _fitted(tmp_path):
    run("gen", "sphere-plane", "--m", 150, "--seed", 2, "-o", tmp_path / "omega.csv")
    run("fit", "-i", tmp_path / "omega.csv", "-D", 3, "-o", tmp_path / "model.json")


MANIFEST_CASES = [
    (["gen", "noisy-line", "--m", 30, "--sigma", 0.01, "--seed", 1, "-o", "g.csv"],
     "g.csv.manifest.json"),
    (["fit", "-i", "omega.csv", "-D", 2, "-o", "m2.json"], "m2.json.manifest.json"),
    (["sample", "--model", "model.json", "--m", 40, "--seed", 3, "-o", "s.csv"],
     "s.csv.manifest.json"),
    (["singular", "--model", "model.json", "-i", "omega.csv", "--epsilon", 0.02,
      "-o", "x.csv"], "x.csv.manifest.json"),
    (["compare", "--input-a", "omega.csv", "--input-b", "omega.csv", "-o", "c.json"],
     "c.json.manifest.json"),
    (["export-algebra", "--model", "model.json", "-o", "a.sing"], "a.sing.manifest.json"),
    (["pipeline", "--m", 100, "--degrees", "3", "--seed", 4, "--outdir", "pipe"],
     "pipe/manifest.json"),
]


@pytest.mark.parametrize("argv,manifest", MANIFEST_CASES, ids=[a[0] for a, _ in MANIFEST_CASES])
def test_every_command_writes_manifest(tmp_path, argv, manifest):
    _fitted(tmp_path)
    paths = {"omega.csv", "model.json", argv[-1]}
    assert run(*(tmp_path / a if a in paths else a for a in argv)) == 0
    doc = json.loads((tmp_path / manifest).read_text())
    assert set(doc) == {"command", "arguments", "seed", "started_utc", "duration_s", "results"}
    assert doc["command"] == argv[0]
    assert "func" not in doc["arguments"] and "command" not in doc["arguments"]
    assert doc["seed"] == doc["arguments"].get("seed")
    assert doc["duration_s"] >= 0 and doc["results"]


def test_compare_nonconvergence_exits_3_without_manifest(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "wasserstein_sinkhorn", functools.partial(cli.wasserstein_sinkhorn, max_iters=1)
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run("gen", "sphere-plane-singular", "--m", 20, "--seed", 13, "-o", a)
    run("gen", "sphere-plane-singular", "--m", 30, "--seed", 14, "-o", b)
    metrics = tmp_path / "m.json"
    assert run("compare", "--input-a", a, "--input-b", b, "-o", metrics) == 3
    assert "did not converge" in capsys.readouterr().err
    assert not metrics.exists()
    assert not (tmp_path / "m.json.manifest.json").exists()


def test_compare_sinkhorn_nan_exits_3_with_only_the_error(tmp_path, capsys):
    # At a reg this far below the squared distances a scaling overflows and
    # the marginal error turns NaN: the solve stops there, and stderr holds
    # the error line and no numpy warning.
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run("gen", "sphere-plane", "--m", 200, "--seed", 1, "-o", a)
    run("gen", "sphere-plane", "--m", 100, "--seed", 2, "-o", b)
    metrics = tmp_path / "m.json"
    capsys.readouterr()
    # The warnings module would print a warning to stderr outside pytest.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("compare", "--input-a", a, "--input-b", b, "--reg", 1e-30, "-o", metrics) == 3
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error: sinkhorn did not converge")
    assert "marginal error nan" in err
    assert "--reg" in err
    assert not metrics.exists()
    assert not (tmp_path / "m.json.manifest.json").exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["fit", "singular", "compare"])
def test_non_finite_cloud_is_input_error(tmp_path, capsys, command, bad):
    _fitted(tmp_path)
    lines = (tmp_path / "omega.csv").read_text().splitlines()
    lines[6] = f"0.5,{bad},0.5"
    cloud = tmp_path / "bad.csv"
    cloud.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    argv = {
        "fit": ["fit", "-i", cloud, "-D", 3, "-o", out],
        "singular": ["singular", "--model", tmp_path / "model.json", "-i", cloud,
                     "--epsilon", 0.02, "-o", out],
        "compare": ["compare", "--input-a", cloud, "--input-b", tmp_path / "omega.csv",
                    "-o", out],
    }[command]
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert "line 7" in err and "non-finite" in err
    assert not out.exists()


def test_pipeline_nonconvergence_exits_3_without_manifest(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "wasserstein_sinkhorn", functools.partial(cli.wasserstein_sinkhorn, max_iters=1)
    )
    # A 150-point reference against 100-point resamples picks Sinkhorn.
    reference = tmp_path / "ref.csv"
    save_cloud(gen_sphere_plane(150, 0.5, seed=1), reference)
    outdir = tmp_path / "pipe"
    assert run("pipeline", "--m", 100, "--seed", 1, "--degrees", "1,3",
               "--reference", reference, "--outdir", outdir) == 3
    assert "did not converge" in capsys.readouterr().err
    assert not outdir.exists()


def _set(key, value):
    def edit(doc):
        doc[key] = value
        return doc
    return edit


def _set_item(key, index, value):
    def edit(doc):
        doc[key][index] = value
        return doc
    return edit


def _drop(key):
    def edit(doc):
        del doc[key]
        return doc
    return edit


# (case id, edit of a good model document, field the error must name)
MALFORMED_MODELS = [
    ("top-level-list", lambda doc: [doc], "JSON object"),
    ("not-json", None, "not a JSON model file"),
    ("no-coefficients", _drop("coefficients"), "'coefficients'"),
    ("no-exponents", _drop("exponents"), "'exponents'"),
    ("no-lambda", _drop("lambda"), "'lambda'"),
    ("exponents-int", _set("exponents", 5), "'exponents'"),
    ("exponent-short", _set_item("exponents", 0, [3, 0]), "'exponents'"),
    ("exponent-negative", _set_item("exponents", 0, [3, 0, -1]), "'exponents'"),
    ("exponents-swapped",
     lambda doc: {**doc, "exponents": [doc["exponents"][1], doc["exponents"][0],
                                       *doc["exponents"][2:]]},
     "'exponents'"),
    ("exponent-huge",
     lambda doc: {**doc, "exponents": [[100000, 0, 0]], "coefficients": [1.0]},
     "'exponents'"),
    ("n-bool", _set("n", True), "'n'"),
    ("n-string", _set("n", "3"), "'n'"),
    ("coefficient-null", _set_item("coefficients", 2, None), "'coefficients'"),
    ("coefficient-nan", _set_item("coefficients", 2, float("nan")), "'coefficients'"),
    ("coefficient-inf", _set_item("coefficients", 2, float("-inf")), "'coefficients'"),
    ("coefficient-string", _set_item("coefficients", 2, "0.5"), "'coefficients'"),
    ("coefficient-huge", _set_item("coefficients", 2, 10**400), "'coefficients'"),
    ("coefficients-short", lambda doc: {**doc, "coefficients": doc["coefficients"][:-1]},
     "'coefficients'"),
    ("lambda-nan", _set("lambda", float("nan")), "'lambda'"),
    ("lambda-null", _set("lambda", None), "'lambda'"),
    ("kernel-dim-float", _set("kernel_dim", 1.5), "'kernel_dim'"),
    ("ordering", _set("ordering", "lex"), "'ordering'"),
    ("seed-string", _set("seed", "7"), "'seed'"),
    ("normalization-nan", _set("normalization", {"scale": [1, 1, float("nan")],
                                                 "offset": [0, 0, 0]}), "'normalization'"),
    ("normalization-list", _set("normalization", [1, 1, 1]), "'normalization'"),
    ("normalization-zero-scale", _set("normalization", {"scale": [1, 0, 1],
                                                        "offset": [0, 0, 0]}),
     "'normalization' is refused: normalization scale 0.0 on axis 1"),
    ("kind-unknown", _set("kind", "banana"), "'kind'"),
    ("kind-list", _set("kind", ["map"]), "'kind'"),
    ("degree-disagrees", _set("degree", 7), "'degree'"),
    ("degree-intersected", _set("kind", "intersected"), "'degree'"),
]


@pytest.fixture(scope="module")
def good_model(tmp_path_factory):
    root = tmp_path_factory.mktemp("good")
    _fitted(root)
    return root


@pytest.mark.parametrize("command", ["sample", "singular", "export-algebra"])
@pytest.mark.parametrize("edit,field", [c[1:] for c in MALFORMED_MODELS],
                         ids=[c[0] for c in MALFORMED_MODELS])
def test_malformed_model_is_input_error(tmp_path, capsys, good_model, command, edit, field):
    bad = tmp_path / "bad.json"
    if edit is None:
        bad.write_text("{\"n\": 3,")
    else:
        doc = json.loads((good_model / "model.json").read_text())
        bad.write_text(json.dumps(edit(doc)))
    out = tmp_path / "out"
    argv = {
        "sample": ["sample", "--model", bad, "--m", 5, "--seed", 1, "-o", out],
        "singular": ["singular", "--model", bad, "-i", good_model / "omega.csv",
                     "--epsilon", 0.02, "-o", out],
        "export-algebra": ["export-algebra", "--model", bad, "-o", out],
    }[command]
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and field in err
    assert not out.exists()
    assert not (tmp_path / "out.manifest.json").exists()


# The exit-code contract over cli.main: every command, input files of the
# right and the wrong kind, and flag values of the flag's own type, so that
# argparse takes them. A quarter of the draws are edges (0, negatives, NaN,
# +-inf, 1e+-300 and huge sizes), the rest are in range, so that a command
# with several flags still runs through now and then.
def _values(valid, edge):
    return st.sampled_from([valid, valid, valid, edge]).flatmap(st.sampled_from)


_EDGE_FLOATS = ["0", "-1", "nan", "inf", "-inf", "1e300", "-1e300", "1e-300"]
_FLOATS = _values(["0.001", "0.02", "0.05", "0.5"], _EDGE_FLOATS)
_SIZES = _values(["1", "25"], ["-1", "0", str(10**10), str(10**300)])
_SEEDS = _values(["0", "1"], ["-1", str(2**64), str(10**30)])
_DEGREES = _values(["0", "1", "3"], ["-1", "40", str(10**6)])
# Small budgets only: at a tiny --eta a sample spends all of it.
_PROPOSALS = _values(["20000"], ["-1", "0", "1", "25"])
_SWITCH = st.just(None)
_CLOUDS = _values(["a.csv", "b.csv"], ["model.json", "missing.csv"])
_MODELS = _values(["model.json"], ["a.csv"])

# command -> (flags it needs, flags it may take, its output argv).
_COMMANDS = {
    "gen": (
        {"kind": st.sampled_from(list(cli._GENERATORS)), "--m": _SIZES, "--seed": _SEEDS},
        {"--sigma": _FLOATS, "--plane-fraction": _FLOATS},
        ["-o", "g.csv"],
    ),
    "fit": (
        {"--input": _CLOUDS, "--degree": _DEGREES},
        {"--intersected": _SWITCH, "--multiplicity-tol": _FLOATS, "--normalize": _SWITCH},
        ["-o", "m.json"],
    ),
    "sample": (
        {"--model": _MODELS, "--m": _SIZES, "--seed": _SEEDS, "--max-proposals": _PROPOSALS},
        {"--eta": _FLOATS},
        ["-o", "s.csv"],
    ),
    "singular": (
        {"--model": _MODELS, "--input": _CLOUDS, "--epsilon": _FLOATS},
        {"--eta": _FLOATS, "--norms-output": st.just("n.txt")},
        ["-o", "x.csv"],
    ),
    "compare": (
        {"--input-a": _CLOUDS, "--input-b": _CLOUDS},
        {"--reg": _FLOATS},
        ["-o", "c.json"],
    ),
    "export-algebra": (
        {"--model": _MODELS},
        {"--max-denominator": _SIZES, "--drop-tol": _FLOATS},
        ["-o", "a.sing"],
    ),
    "pipeline": (
        {"--m": _SIZES, "--seed": _SEEDS, "--max-proposals": _PROPOSALS},
        {"--kind": st.sampled_from(list(cli._GENERATORS)), "--sigma": _FLOATS,
         "--plane-fraction": _FLOATS,
         "--degrees": _values(["1", "0", "1,3"], ["-1", "1,1", "x", "1,40"]),
         "--eta": _FLOATS, "--epsilon": _FLOATS, "--reg": _FLOATS,
         "--reference": _CLOUDS},
        ["--outdir", "pipe"],
    ),
}
_INPUT_FLAGS = {"--input", "--model", "--input-a", "--input-b", "--reference"}


@st.composite
def _cli_case(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    required, optional, output = _COMMANDS[command]
    return command, draw(st.fixed_dictionaries(required, optional=optional)), output


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    save_cloud(gen_sphere_plane(30, 0.5, seed=1), root / "a.csv")
    save_cloud(gen_sphere_plane(37, 0.5, seed=2), root / "b.csv")
    save_model(ModelFile.from_fit(fit_map(gen_sphere_plane(40, 0.5, seed=3), 3)),
               root / "model.json")
    return root


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_cli_case())
def test_main_exit_code_contract(cli_inputs, case):
    command, flags, (output_flag, output) = case
    with tempfile.TemporaryDirectory(dir=cli_inputs) as work:
        work = Path(work)
        argv = [command]
        for flag, value in flags.items():
            if flag in _INPUT_FLAGS:
                value = cli_inputs / value
            elif flag == "--norms-output":
                value = work / value
            # --flag=value, so that a value such as -inf is not read as a flag.
            argv.append(value if flag == "kind" else flag if value is None else f"{flag}={value}")
        argv += [output_flag, str(work / output)]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
        # Outside pytest a warning would go to stderr: none may.
        assert [str(w.message) for w in caught] == []
        assert code in (0, 2, 3)
        written = sorted(work.rglob("*"))
        if code != 0:
            assert err.getvalue().startswith("error:")
            assert written == []
            return
        for path in written:
            if path.suffix == ".csv" and path.name != "distances.csv":
                assert path.read_bytes() == b"" or load_cloud(path).m > 0
            elif path.suffix == ".json":
                json.loads(path.read_text())
