"""Command-line driver: data -> fit -> {sample, singular-filter, compare, export}.

Every successful command writes a JSON manifest beside its output recording
the command, all flags, timings, and a result summary, so any published
number can be replayed. Randomized commands require an explicit --seed.

Exit codes: 0 success, 2 input or usage errors, 3 budget or convergence
failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor, wait
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .cloud import (
    EXACT_SIZE_CAP,
    CloudFormatError,
    PointCloud,
    check_dense_budget,
    load_cloud,
    normalize_to_unit_cube,
    save_cloud,
)
from .datasets import gen_noisy_line, gen_sphere_plane, gen_sphere_plane_singular
from .fitting import RationalizationError, check_fit_budget, fit_map, rationalize
from .modelio import ModelFile, export_singular_script, load_model, save_model
from .sampling import ProposalBudgetError, SamplerConfig, check_eta, direct_sample
from .singular import check_epsilon, singularity_filter
from .transport import wasserstein_exact, wasserstein_sinkhorn

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3

# At this acceptance rate or above, at least half the proposals pass: the
# band covers half the cube, and a resample is mostly uniform proposals.
BAND_SWALLOW_RATE = 0.5


class _NotConverged(RuntimeError):
    """An iterative solver stopped at its budget without converging."""


def _manifest_path(output) -> Path:
    out = Path(output)
    if out.is_dir():
        return out / "manifest.json"
    return out.with_name(out.name + ".manifest.json")


def _finite_or_null(value):
    """value with every non-finite float, nested in dicts and lists too,
    made None, which strict JSON can hold."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _write_json(path, doc) -> None:
    """Write doc as strict JSON: a non-finite float is written as null."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_finite_or_null(doc), fh, indent=2, default=str, allow_nan=False)
        fh.write("\n")


def _write_manifest(output, args, results, started, t0) -> None:
    doc = {
        "command": args.command,
        "arguments": {
            k: v for k, v in vars(args).items() if k not in ("func", "command")
        },
        "seed": getattr(args, "seed", None),
        "started_utc": started,
        "duration_s": time.perf_counter() - t0,
        "results": results,
    }
    _write_json(_manifest_path(output), doc)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


# Generator kind -> cloud from (m, seed, sigma, plane_fraction). The
# generators are looked up in this module at call time, so a wrapper put on
# cli.gen_* (a tracer, a test double) still sees the call.
_GENERATORS = {
    "sphere-plane": lambda m, seed, sigma, frac: gen_sphere_plane(
        m, frac, seed=seed, noise_sigma=sigma
    ),
    "sphere-plane-singular": lambda m, seed, sigma, frac: gen_sphere_plane_singular(m, seed=seed),
    "noisy-line": lambda m, seed, sigma, frac: gen_noisy_line(m, sigma, seed=seed),
}


# Each command does its work and returns the manifest's result summary;
# main times it and writes the manifest.


def _check_generator_flags(args) -> None:
    # Refused before anything is written: an empty cloud, a cloud over the
    # dense budget (every generator's is 3-d), and a flag the kind's
    # generator does not read (it would be ignored).
    if args.m < 1:
        raise ValueError(f"--m must be at least 1, got {args.m}")
    check_dense_budget(args.m, 3, "cloud")
    if args.kind == "sphere-plane-singular" and args.sigma != 0:
        raise ValueError("--sigma does not apply to sphere-plane-singular, which is noise-free")
    if args.kind != "sphere-plane" and args.plane_fraction != 0.5:
        raise ValueError(f"--plane-fraction applies to sphere-plane only, not {args.kind}")


def cmd_gen(args) -> dict:
    _check_generator_flags(args)
    cloud = _GENERATORS[args.kind](args.m, args.seed, args.sigma, args.plane_fraction)
    save_cloud(cloud, args.output)
    print(f"wrote {cloud.m} x {cloud.dim} cloud to {args.output}")
    return {"m": cloud.m, "dim": cloud.dim}


def cmd_fit(args) -> dict:
    cloud = load_cloud(args.input)
    record = None
    if args.normalize:
        cloud, record = normalize_to_unit_cube(cloud)
    fit = fit_map(cloud, args.degree)
    model = ModelFile.from_fit(fit, intersected=args.intersected, normalization=record)
    save_model(model, args.output)
    print(
        f"lambda={fit.lam:.6e} kernel_dim={fit.kernel_dim} "
        f"trace={fit.trace:.6e} residual={fit.residual:.3e}"
    )
    return {
        "lambda": fit.lam,
        "kernel_dim": fit.kernel_dim,
        "trace": fit.trace,
        "residual": fit.residual,
        "rank": fit.rank,
        "gap": fit.gap,
        "m": fit.m,
    }


def _band_quantiles(values: np.ndarray, gradient_norms: np.ndarray) -> dict:
    # 50/90/99% quantiles of |f| / ||grad f|| over accepted points: the
    # first-order distance to V(f), i.e. how wide the eta band is in space.
    # A zero gradient counts as inf.
    ratio = np.full(len(values), np.inf)
    np.divide(np.abs(values), gradient_norms, out=ratio, where=gradient_norms > 0)
    q = np.quantile(ratio, [0.5, 0.9, 0.99], method="inverted_cdf")
    return {p: float(v) for p, v in zip([50, 90, 99], q)}


def _warn_if_band_swallows(stats: dict, label: str) -> None:
    rate = stats["acceptance_rate"]
    if rate >= BAND_SWALLOW_RATE:
        print(
            f"warning: {label}acceptance rate {rate:.3g} >= {BAND_SWALLOW_RATE}; "
            "the sample is mostly uniform proposals, not points near the zero set",
            file=sys.stderr,
        )


def cmd_sample(args) -> dict:
    model = load_model(args.model)
    f = model.poly
    cfg = SamplerConfig(
        seed=args.seed,
        target_m=args.m,
        eta=args.eta,
        max_proposals=args.max_proposals,
    )
    cloud, stats = direct_sample(f, cfg, full_output=True)
    # The sample is drawn in model coordinates; a normalized model's goes
    # out in the data's.
    record = model.normalization
    save_cloud(cloud if record is None else PointCloud(record.invert(cloud.points)), args.output)
    print(
        f"wrote {cloud.m} points to {args.output} "
        f"(acceptance rate {stats['acceptance_rate']:.3g})"
    )
    _warn_if_band_swallows(stats, "")
    norms = np.linalg.norm(f.gradient(cloud.points), axis=1)
    return stats | {"band_distance_quantiles": _band_quantiles(f.evaluate(cloud.points), norms)}


def cmd_singular(args) -> dict:
    # Every refusal comes before the epsilon <= eta warning.
    check_epsilon(args.epsilon)
    if args.eta is not None:
        check_eta(args.eta)
    model = load_model(args.model)
    f = model.poly
    cloud = load_cloud(args.input)
    if cloud.dim != f.basis.n:
        raise ValueError(f"cloud dimension {cloud.dim} does not match the model's n={f.basis.n}")
    if args.eta is not None and args.epsilon <= args.eta:
        print(
            f"warning: epsilon={args.epsilon} <= eta={args.eta}; the filter "
            "guarantee needs epsilon > eta",
            file=sys.stderr,
        )
    # A normalized model is filtered in its own coordinates; the accepted
    # input rows go out as read.
    record = model.normalization
    in_model = cloud if record is None else PointCloud(record.apply(cloud.points))
    report = singularity_filter(f, in_model, args.epsilon)
    accepted = PointCloud(cloud.points[report.gradient_norms < args.epsilon])
    save_cloud(accepted, args.output)
    if args.norms_output:
        # Both outputs or neither: the cloud goes if its norms cannot be written.
        try:
            np.savetxt(args.norms_output, report.gradient_norms, fmt="%.17g")
        except OSError:
            os.remove(args.output)
            raise
    print(f"accepted {accepted.m} of {cloud.m} points")
    q = np.percentile(report.gradient_norms, [1, 5, 25, 50, 75, 95, 99])
    return {
        "accepted_count": accepted.m,
        "input_count": cloud.m,
        "gradient_norm_percentiles": {
            p: float(v) for p, v in zip([1, 5, 25, 50, 75, 95, 99], q)
        },
    }


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


@functools.cache
def _pool(workers: int) -> ThreadPoolExecutor:
    """The process's one executor with this many threads, made on first use."""
    return ThreadPoolExecutor(workers, thread_name_prefix=f"varietyfit-transport-{workers}")


def _transports(pairs) -> list[dict]:
    """Distance and diagnostics of the transport from a to b for each
    (a, b) in pairs, in pair order; every command's transports go here.

    A pair is solved exactly when lcm(m, m') <= EXACT_SIZE_CAP, the most
    points the exact solver repeats both clouds to, and by Sinkhorn at its
    default reg otherwise. An all-exact list runs on up to one thread per
    usable CPU: transport prepares one exact solve at a time, beside the
    other threads' assignments, which release the GIL, so each thread
    holds at most one cost matrix. That order is measured to pay with two
    threads only; with three or more, every preparation waits for the one
    before it (see transport's module docstring). Sinkhorn solves each
    hold two dense matrices, so any other list runs one at a time. A Sinkhorn
    solve cut short raises _NotConverged. Every solve is waited for before
    the first error in pair order is raised. The solvers are looked up in
    this module at call time, so a wrapper on cli.wasserstein_* (a tracer,
    a test double) still sees each call.
    """
    exact = [math.lcm(a.m, b.m) <= EXACT_SIZE_CAP for a, b in pairs]

    def transport(a, b, is_exact):
        # No plan is kept: it would hold its dense coupling until every
        # pair is done.
        if is_exact:
            plan = wasserstein_exact(a, b)
        else:
            plan = wasserstein_sinkhorn(a, b)
            if not plan.converged:
                raise _NotConverged(
                    f"sinkhorn did not converge in {plan.iterations} iterations "
                    f"(marginal error {plan.marginal_error:.3e})"
                )
        return {
            "wasserstein": plan.cost,
            "method": plan.method,
            "iterations": plan.iterations,
            "marginal_error": plan.marginal_error,
            "omega": plan.omega,
        }

    # The pool lives as long as the process. Once glibc's mmap threshold has
    # grown past a freed cost matrix, later ones come from the threads'
    # malloc arenas, which keep freed pages resident; a pool per call starts
    # fresh threads on fresh arenas, and repeated in-process sweeps at
    # m = 1600 could then hold an extra 20 MB matrix or two.
    pool = _pool(min(len(pairs), _usable_cpus()) if all(exact) else 1)
    futures = [pool.submit(transport, a, b, e) for (a, b), e in zip(pairs, exact)]
    wait(futures)
    return [future.result() for future in futures]


def cmd_compare(args) -> dict:
    a = load_cloud(args.input_a)
    b = load_cloud(args.input_b)
    (result,) = _transports([(a, b)])
    distance = result.pop("wasserstein")
    print(f"wasserstein {distance:.6f} ({result['method']})")
    results = {"distance": distance} | result
    _write_json(args.output, results)
    return results


def cmd_export_algebra(args) -> dict:
    f = load_model(args.model).poly.normalized()
    rational = rationalize(f, max_denominator=args.max_denominator)
    script = export_singular_script(rational)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(script)
    print(f"wrote algebra script to {args.output}")
    return {"scale": rational.scale}


def cmd_pipeline(args) -> dict:
    _check_generator_flags(args)
    try:
        degrees = [int(d) for d in args.degrees.split(",")]
    except ValueError:
        raise ValueError(f"--degrees must be comma-separated integers, got {args.degrees}") from None
    if min(degrees) < 0 or len(set(degrees)) < len(degrees):
        raise ValueError(f"--degrees must be distinct and >= 0, got {args.degrees}")
    # Sampler and filter settings are checked here, before any fit; each
    # degree's sampler differs from this one by its seed only.
    sampler = SamplerConfig(
        seed=args.seed,
        target_m=args.m,
        eta=args.eta,
        max_proposals=args.max_proposals,
    )
    check_epsilon(args.epsilon)
    reference = load_cloud(args.reference) if args.reference else None
    # Each transport's cost matrix is the reference's size by --m, since
    # every resample has exactly --m points: refused before the cloud is
    # generated.
    check_dense_budget(args.m if reference is None else reference.m, args.m, "cost matrix")
    cloud = _GENERATORS[args.kind](args.m, args.seed, args.sigma, args.plane_fraction)
    if reference is not None:
        if reference.dim != cloud.dim:
            raise ValueError(
                f"{args.reference}: reference dimension {reference.dim} does not "
                f"match the {args.kind} cloud's {cloud.dim}"
            )
    elif args.sigma > 0:
        reference = _GENERATORS[args.kind](args.m, args.seed, 0.0, args.plane_fraction)
    else:
        reference = cloud
    # Every degree's Vandermonde table and matrix of right singular vectors
    # are checked before any fit.
    for degree in degrees:
        check_fit_budget(cloud.m, cloud.dim, degree)

    # Compute, transport, then write: a run that fails at any stage writes
    # nothing. Rows get their distance and transport diagnostics once
    # every transport is done.
    outputs = [(save_cloud, cloud, "omega.csv"), (save_cloud, reference, "reference.csv")]
    rows, pairs = [], []
    for degree in degrees:
        fit = fit_map(cloud, degree)
        model = ModelFile.from_fit(fit, seed=args.seed)
        cfg = dataclasses.replace(sampler, seed=args.seed + 1000 * degree)
        f = model.poly
        resampled, stats = direct_sample(f, cfg, full_output=True)
        _warn_if_band_swallows(stats, f"D={degree}: ")
        report = singularity_filter(f, resampled, args.epsilon)
        outputs.append((save_model, model, f"model_D{degree}.json"))
        outputs.append((save_cloud, resampled, f"resampled_D{degree}.csv"))
        # Written even when empty, so a reused --outdir keeps no stale file.
        outputs.append((save_cloud, report.accepted, f"singular_D{degree}.csv"))
        pairs.append((reference, resampled))
        rows.append(
            {
                "D": degree,
                "lambda": fit.lam,
                "kernel_dim": fit.kernel_dim,
                "rank": fit.rank,
                "gap": fit.gap,
                "wasserstein": None,
                "singular_count": report.accepted_count,
                "acceptance_rate": stats["acceptance_rate"],
                "band_distance_quantiles": _band_quantiles(
                    f.evaluate(resampled.points), report.gradient_norms
                ),
            }
        )

    for row, result in zip(rows, _transports(pairs)):
        row.update(result)
        print(
            f"D={row['D']}: lambda={row['lambda']:.3e} kernel_dim={row['kernel_dim']} "
            f"W={row['wasserstein']:.4f} singular={row['singular_count']}"
        )

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for save, value, name in outputs:
        save(value, outdir / name)
    header = ["D", "lambda", "kernel_dim", "wasserstein", "singular_count", "acceptance_rate"]
    with open(outdir / "distances.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{row[k]:.17g}" if isinstance(row[k], float) else str(row[k]) for k in header) + "\n")
    return {"table": rows}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varietyfit",
        description="Fit an algebraic variety to a point cloud and analyze it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a benchmark point cloud")
    p.add_argument("kind", choices=list(_GENERATORS))
    p.add_argument("--m", type=int, required=True, help="number of points")
    p.add_argument("--sigma", type=float, default=0.0, help="noise std dev")
    p.add_argument("--plane-fraction", type=float, default=0.5)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("fit", help="fit a polynomial model to a cloud")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--degree", "-D", type=int, required=True)
    p.add_argument("--intersected", action="store_true")
    p.add_argument("--normalize", action="store_true", help="min-max map into [0,1]^n first")
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sample", help="sample a cloud from a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--eta", type=float, default=1e-3)
    p.add_argument("--max-proposals", type=int, default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("singular", help="filter a cloud to near-singular points")
    p.add_argument("--model", required=True)
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--eta", type=float, default=None, help="eta used to draw the input cloud")
    p.add_argument("--norms-output", default=None)
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=cmd_singular)

    p = sub.add_parser("compare", help="Wasserstein distance between two clouds")
    p.add_argument("--input-a", required=True)
    p.add_argument("--input-b", required=True)
    p.add_argument("--output", "-o", required=True, help="metrics JSON path")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("export-algebra", help="emit a computer-algebra script for a model")
    p.add_argument("--model", required=True)
    p.add_argument("--max-denominator", type=int, default=64)
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=cmd_export_algebra)

    p = sub.add_parser(
        "pipeline", help="gen -> fit -> sample -> singular -> compare, per degree"
    )
    p.add_argument("--kind", default="sphere-plane", choices=list(_GENERATORS))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--plane-fraction", type=float, default=0.5)
    p.add_argument("--degrees", default="1,2,3", help="comma-separated degree sweep")
    p.add_argument("--eta", type=float, default=1e-3)
    p.add_argument("--epsilon", type=float, default=0.02)
    p.add_argument("--max-proposals", type=int, default=None)
    p.add_argument("--reference", default=None, help="reference cloud CSV (default: noise-free regeneration)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started, t0 = _now(), time.perf_counter()
    try:
        results = args.func(args)
        output = args.outdir if args.command == "pipeline" else args.output
        _write_manifest(output, args, results, started, t0)
    except (ProposalBudgetError, _NotConverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (CloudFormatError, RationalizationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
