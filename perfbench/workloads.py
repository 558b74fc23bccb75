"""The benchmark's three workloads, their inputs and their per-op checks.

Each workload has `instances` distinct inputs derived from the run seed;
op i runs input i mod instances, so a run's medians and means cover
several inputs and a single unlucky draw does not decide a run. Every
call into the program goes through a module attribute looked up at call
time, so the tracer's wrappers see it.

sweep-exact        the paper's degree sweep through the CLI: gen, fit
                   D=1,2,3, direct resample, singular filter, equal-size
                   exact transport, CSV/model/manifest output. Exact
                   assignment dominates; Sinkhorn is bypassed.
singular-sinkhorn  criterion 4's chain: direct resample of the D=3 fit,
                   singular filter, unequal-size Sinkhorn against the
                   singular circle. Sinkhorn is >99% of the op; the exact
                   solver, the CLI and file I/O are bypassed.
resample-dense     20000 direct samples at eta=1e-4 and the singular
                   filter on all of them: polynomial evaluation dominates
                   and transport is bypassed entirely.

Layer metric -> end-to-end metric it should move (on which workload):
  transport.exact_s                       -> op_s (sweep-exact)
  transport.sinkhorn_s, _iters, _s_per_iter -> op_s (singular-sinkhorn)
  transport.cost_matrix_bytes             -> peak_rss_mb
  transport.marginal_err                  -> guards failed ops
  polynomials.evaluate_*, gradient_*      -> op_s (resample-dense); small
                                             on sweep-exact, nil on
                                             singular-sinkhorn
  sampling.direct_s, self_s, proposals, acceptance
                                          -> op_s (resample-dense,
                                             sweep-exact)
  singular.filter_s, accepted             -> op_s (resample-dense)
  fitting.*                               -> setup_s, op_s (sweep-exact,
                                             where it is <0.1% of the op)
  datasets.gen_s                          -> setup_s, op_s (sweep-exact)
  cloud.io_s, modelio.io_s, cli.self_s    -> op_s (sweep-exact only)
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import shutil
import tempfile
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

import varietyfit.cli
import varietyfit.datasets
import varietyfit.fitting
import varietyfit.sampling
import varietyfit.singular
import varietyfit.transport
from varietyfit.cloud import PointCloud

# Slack for comparing the program's |f| and ||grad f|| against thresholds
# with an independent evaluation: unit-norm coefficients on [0,1]^3 keep
# rounding differences near 1e-15, far below eta or epsilon.
ROUNDING_TOL = 1e-12


def instance_seed(seed: int, instance: int) -> int:
    """Seed of one input of a run, distinct across runs and inputs."""
    return int(np.random.SeedSequence([seed, instance]).generate_state(1)[0])


def _exponents(n: int, degree: int) -> np.ndarray:
    return np.array(
        [a for a in itertools.product(range(degree + 1), repeat=n) if sum(a) <= degree]
    )


def _monomials(points: np.ndarray, exps: np.ndarray) -> np.ndarray:
    return np.prod(points[:, None, :] ** exps[None, :, :], axis=2)


def reference_values(f, points: np.ndarray, chunk: int = 4096):
    """|f| and ||grad f|| at points, by the benchmark's own power products."""
    exps = f.basis.exponent_array
    c = f.coeffs
    vals, norms = [], []
    for start in range(0, len(points), chunk):
        block = points[start : start + chunk]
        vals.append(np.abs(_monomials(block, exps) @ c))
        grad = np.empty_like(block)
        for j in range(block.shape[1]):
            shifted = exps.copy()
            shifted[:, j] = np.maximum(shifted[:, j] - 1, 0)
            grad[:, j] = _monomials(block, shifted) @ (c * exps[:, j])
        norms.append(np.linalg.norm(grad, axis=1))
    return np.concatenate(vals), np.concatenate(norms)


def reference_w2(a: np.ndarray, b: np.ndarray) -> float:
    """Exact W2 of two equal-size uniform clouds, by scipy's assignment."""
    C = cdist(a, b, metric="sqeuclidean")
    rows, cols = linear_sum_assignment(C)
    return float(np.sqrt(np.mean(C[rows, cols])))


class Workload:
    """A named workload with `instances` inputs derived from the run seed.

    setup(seed) builds the state every op shares; op(state, i) is the timed
    operation on input i; check(state, i, out) is untimed and returns
    (w2, failed checks). Output files go under workdir.
    """

    name: str
    instances: int

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir


class SweepExact(Workload):
    """`varietyfit pipeline --m 1600 --degrees 1,2,3`, in-process."""

    name = "sweep-exact"
    instances = 8
    degrees = (1, 2, 3)

    def setup(self, seed: int):
        return {"seeds": [instance_seed(seed, i) for i in range(self.instances)]}

    def op(self, state, instance: int):
        outdir = tempfile.mkdtemp(prefix="sweep-", dir=self.workdir)
        argv = [
            "pipeline", "--kind", "sphere-plane", "--m", "1600", "--sigma", "0",
            "--degrees", ",".join(map(str, self.degrees)), "--eta", "1e-3",
            "--epsilon", "0.02", "--seed", str(state["seeds"][instance]),
            "--outdir", outdir,
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = varietyfit.cli.main(argv)
        return rc, Path(outdir)

    def check(self, state, instance: int, out):
        """(w2, list of failed checks); removes the op's output directory."""
        rc, outdir = out
        try:
            if rc != 0:
                return None, [f"pipeline exit code {rc}"]
            with open(outdir / "distances.csv", encoding="utf-8") as fh:
                rows = {int(r["D"]): r for r in csv.DictReader(fh)}
            if sorted(rows) != list(self.degrees):
                return None, [f"distances.csv rows for D={sorted(rows)}"]
            w = {d: float(rows[d]["wasserstein"]) for d in self.degrees}
            lam = float(rows[3]["lambda"])
            omega = np.loadtxt(outdir / "omega.csv", delimiter=",", ndmin=2)
            trace = float((_monomials(omega, _exponents(3, 3)) ** 2).sum())
            failures = []
            if not lam <= 1e-12 * trace:
                failures.append(f"D=3 lambda {lam:.3e} > 1e-12 * trace {trace:.3e}")
            if not (w[3] < w[1] and w[3] < w[2]):
                failures.append(f"W not lowest at D=3: {w}")
            return w[3], failures
        finally:
            shutil.rmtree(outdir, ignore_errors=True)


class SingularSinkhorn(Workload):
    """Criterion 4's chain on criterion 4's own fixture.

    The instance is fixed (data seed 101, sampler seed 202, reference seed
    303) because the chain's cost swings with the draw: over six other
    draws the Sinkhorn took 3346-4960 iterations (21-30 s on a 2-core
    Xeon) and W2 ranged 0.060-0.111, beyond criterion 4's 0.1 bound on two
    of them. One op takes 20-27 s there, so a run cannot average several
    draws. The run seed only permutes the row order of the data and
    reference clouds, which leaves the transport problem unchanged.
    """

    name = "singular-sinkhorn"
    instances = 1
    eta = 1e-3
    epsilon = 0.02

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        data = varietyfit.datasets.gen_sphere_plane(1600, 0.5, seed=101)
        data = PointCloud(data.points[rng.permutation(data.m)])
        f = varietyfit.fitting.map_polynomial(varietyfit.fitting.fit_map(data, 3))
        reference = varietyfit.datasets.gen_sphere_plane_singular(400, seed=303)
        reference = PointCloud(reference.points[rng.permutation(reference.m)])
        return {"f": f, "reference": reference}

    def op(self, state, instance: int):
        f, reference = state["f"], state["reference"]
        cfg = varietyfit.sampling.SamplerConfig(seed=202, target_m=1600, eta=self.eta)
        resampled, _ = varietyfit.sampling.direct_sample(f, cfg, full_output=True)
        accepted = varietyfit.singular.singularity_filter(f, resampled, self.epsilon).accepted
        sq = ((accepted.points[:, None, :] - reference.points[None, :, :]) ** 2).sum(axis=-1)
        reg = 0.002 * float(np.median(sq))
        return accepted, varietyfit.transport.wasserstein_sinkhorn(accepted, reference, reg=reg)

    def check(self, state, instance: int, out):
        accepted, plan = out
        failures = []
        if not plan.converged:
            failures.append(f"sinkhorn not converged (marginal error {plan.marginal_error:.3e})")
        if not 150 <= accepted.m <= 350:
            failures.append(f"accepted {accepted.m} outside [150, 350]")
        if not plan.cost <= 0.1:
            failures.append(f"W2 {plan.cost:.4f} > 0.1")
        return plan.cost, failures


class ResampleDense(Workload):
    """20000 direct samples at eta=1e-4 from a D=3 fit, then the filter."""

    name = "resample-dense"
    instances = 2
    m = 20000
    w2_block = 500
    eta = 1e-4
    epsilon = 0.02

    def setup(self, seed: int):
        data = varietyfit.datasets.gen_sphere_plane(1600, 0.5, seed=seed)
        f = varietyfit.fitting.map_polynomial(varietyfit.fitting.fit_map(data, 3))
        # The generator lists sphere points before plane points; shuffle so
        # every block holds both components in proportion.
        # Input index `instances` is one no sampler uses.
        truth = varietyfit.datasets.gen_sphere_plane(
            self.m, 0.5, seed=instance_seed(seed, self.instances)
        )
        truth = truth.points[np.random.default_rng(seed).permutation(self.m)]
        return {
            "f": f,
            "truth": truth,
            "seeds": [instance_seed(seed, i) for i in range(self.instances)],
            "w2": {},
        }

    def op(self, state, instance: int):
        f = state["f"]
        cfg = varietyfit.sampling.SamplerConfig(
            seed=state["seeds"][instance], target_m=self.m, eta=self.eta
        )
        samples, _ = varietyfit.sampling.direct_sample(f, cfg, full_output=True)
        return samples, varietyfit.singular.singularity_filter(f, samples, self.epsilon)

    def check(self, state, instance: int, out):
        """Independent |f| and gradient checks, plus w2.

        The op transports nothing, so w2 is the benchmark's own accuracy
        measure: the mean exact W2 over disjoint w2_block-point pairs of
        samples and a fresh draw of the true variety. Averaging 40 blocks
        keeps its run-to-run spread near 1%, where one 1600-point W2 swings
        ~10%. It is a pure function of the input, so it is computed once.
        """
        samples, report = out
        pts = samples.points
        failures = []
        if pts.shape != (self.m, 3):
            return None, [f"sample shape {pts.shape}"]
        vals, norms = reference_values(state["f"], pts)
        if not np.all(vals < self.eta + ROUNDING_TOL):
            failures.append(f"{int(np.sum(vals >= self.eta + ROUNDING_TOL))} samples with |f| >= eta")
        flagged = report.accepted.points
        _, flagged_norms = reference_values(state["f"], flagged)
        if not np.all(flagged_norms < self.epsilon + ROUNDING_TOL):
            failures.append("flagged point with ||grad f|| >= epsilon")
        sure = int(np.sum(norms < self.epsilon - ROUNDING_TOL))
        maybe = int(np.sum(norms < self.epsilon + ROUNDING_TOL))
        if not sure <= report.accepted_count <= maybe:
            failures.append(f"filter kept {report.accepted_count}, expected {sure}..{maybe}")
        if instance not in state["w2"]:
            b = self.w2_block
            state["w2"][instance] = float(np.mean([
                reference_w2(pts[i : i + b], state["truth"][i : i + b])
                for i in range(0, self.m, b)
            ]))
        return state["w2"][instance], failures


WORKLOADS = {w.name: w for w in (SweepExact, SingularSinkhorn, ResampleDense)}
