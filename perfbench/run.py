"""varietyfit benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload sweep-exact --seed 1 --seconds 35 --trace 0

Benchmarks the sources in src/ of the checkout holding this directory and
writes only under .perfbench/ in that checkout. Ops run back to back: the
next starts when the previous one and its correctness check have returned,
until --seconds is used up; an untraced run still covers every input of
the workload once, a traced run makes at least two ops. Besides this
process only BLAS's default threads run. Workloads, their inputs and
checks are in workloads.py.

--trace 0 reports the end-to-end metrics:
  setup_s      median of SETUP_REPS cold imports of varietyfit with numpy
               and scipy, plus the median of SETUP_REPS workload set-ups
  op_s         median wall seconds per successful op
  w2           transported distance, mean over the run's inputs
  peak_rss_mb  peak resident memory of the process
--trace 1 runs input 0 only, traces every second op and reports the
per-layer metrics of spans.py: medians over traced ops, plus
trace.overhead_s, the median traced minus the median untraced op time.
The counts in spans.EXACT_REPEAT must repeat exactly whenever an input
runs again, within a run or in an earlier run of this checkout with the
same code and seed; the run fails otherwise.

failed / attempted is the fail ratio: an op fails when a check fails, the
sampler runs out of budget, the CLI exits non-zero or Sinkhorn does not
converge. The last stdout line is JSON with keys correct, attempted,
failed and metrics; the exit code is 0 only if correct is true. Exit code
2, with no result, means varietyfit could not be imported from src/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
SETUP_REPS = 5


@dataclass
class OpRecord:
    index: int
    instance: int
    traced: bool
    seconds: float
    wall: float
    w2: float | None
    failures: list[str]


# Times a cold import in a fresh interpreter; argv[1] is the src directory.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import varietyfit.cli; print(time.perf_counter() - t)"
)


def load_program() -> float:
    """Import varietyfit from ROOT/src and return the seconds it took."""
    pkg = ROOT / "src" / "varietyfit"
    if not (pkg / "__init__.py").is_file():
        raise ImportError(f"no varietyfit package at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import varietyfit.cli  # every module, numpy and scipy come with it

    seconds = time.perf_counter() - t0
    if Path(varietyfit.__file__).resolve().parent != pkg.resolve():
        raise ImportError(f"varietyfit resolved to {varietyfit.__file__}, not {pkg}")
    return seconds


def import_times(first: float) -> list[float]:
    """This process's import time plus SETUP_REPS - 1 cold imports in
    fresh interpreters; on a 2-core Xeon one process's import time differs
    from the next by up to ~15%."""
    times = [first]
    for _ in range(SETUP_REPS - 1):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(probe.stdout))
    return times


def drive(wl, state, seconds: float, inputs: int, tracer=None) -> list[OpRecord]:
    """Closed loop over the first `inputs` inputs in turn: run, check,
    repeat until each input has run once and the next op would overrun.

    With a tracer, every second op is traced, so traced and untraced ops
    interleave and machine drift during the run hits both alike.
    """
    from varietyfit.sampling import ProposalBudgetError

    records: list[OpRecord] = []
    min_ops = inputs if tracer is None else max(inputs, 2)
    deadline = time.perf_counter() + seconds
    while True:
        index = len(records)
        instance = index % inputs
        traced = tracer is not None and index % 2 == 1
        t_iter = time.perf_counter()
        if traced:
            tracer.install(op=index)
        t0 = time.perf_counter()
        try:
            out = wl.op(state, instance)
        except ProposalBudgetError as exc:
            out = exc
        finally:
            op_s = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        if isinstance(out, ProposalBudgetError):
            w2, failures = None, [f"proposal budget: {out}"]
        else:
            w2, failures = wl.check(state, instance, out)
        now = time.perf_counter()
        records.append(OpRecord(index, instance, traced, op_s, now - t_iter, w2, failures))
        if len(records) >= min_ops and now + statistics.median(r.wall for r in records) > deadline:
            return records


def repeat_errors(records: list[OpRecord]) -> list[str]:
    """w2 is a pure function of the input: repeats of an input must agree."""
    seen: dict[int, float] = {}
    errors = []
    for r in records:
        if r.w2 is None:
            continue
        if seen.setdefault(r.instance, r.w2) != r.w2:
            errors.append(f"input {r.instance}: w2 {r.w2!r} != {seen[r.instance]!r}")
    return errors


def end_to_end(records, setup_s: float) -> dict:
    ok = [r for r in records if not r.failures] or records
    w2 = {r.instance: r.w2 for r in records if r.w2 is not None}
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_s": {"value": statistics.median(r.seconds for r in ok), "unit": "s"},
        "w2": {"value": statistics.fmean(w2.values()) if w2 else 0.0, "unit": "length"},
        "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MiB"},
    }


def count_errors(key_prefix: str, counts_by_op, record_path: Path) -> list[str]:
    """Compare exact-repeat counts with earlier ops and runs; extend the record."""
    try:
        record = json.loads(record_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        record = {}
    errors = []
    for instance, counts in counts_by_op:
        key = f"{key_prefix}:{instance}"
        before = record.setdefault(key, counts)
        for name, value in counts.items():
            if before.get(name) != value:
                errors.append(f"{key} {name}: {value} != earlier {before.get(name)}")
    tmp = record_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, record_path)
    return errors


def traced_run(wl, state, args, code_id: str):
    import spans

    # Every op repeats input 0, so traced and untraced ops compare like with
    # like and each traced op re-checks the exact-repeat counts of the last.
    tracer = spans.Tracer()
    records = drive(wl, state, args.seconds, 1, tracer)
    plain = [r for r in records if not r.traced]
    traced = [r for r in records if r.traced]

    per_op = [spans.op_layer_metrics(tracer.op_spans(r.index)) for r in traced]
    layer = spans.median_metrics(per_op)
    layer["trace.overhead_s"] = statistics.median(r.seconds for r in traced) - statistics.median(
        r.seconds for r in plain
    )

    counts = [
        (r.instance, {k: m[k] for k in spans.EXACT_REPEAT}) for r, m in zip(traced, per_op)
    ]
    errors = count_errors(
        f"{code_id}:{wl.name}:{args.seed}", counts, WORK / "exact_repeat_counts.json"
    )
    names = sorted({s.name for s in tracer.spans})
    by_op = [spans.self_times(tracer.op_spans(r.index)) for r in traced]
    self_table = {n: statistics.median(t.get(n, 0.0) for t in by_op) for n in names}
    report = {
        "ops": [asdict(r) for r in records],
        "per_op_layer_metrics": per_op,
        "median_self_s": self_table,
        "spans": [asdict(s) for s in tracer.spans],
    }
    print("self_s " + json.dumps(self_table, sort_keys=True))
    print("exact_repeat " + json.dumps(list(spans.EXACT_REPEAT)))
    metrics = {k: {"value": layer[k], "unit": spans.LAYER_UNITS[k]} for k in spans.LAYER_UNITS}
    return records, metrics, errors, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_s = load_program()
    except ImportError as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2

    import provenance
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    info = provenance.collect(ROOT)
    print("provenance " + json.dumps(info, sort_keys=True))
    wl = workloads.WORKLOADS[args.workload](tmp)

    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        state = wl.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)
    imports = import_times(import_s)
    setup_s = statistics.median(imports) + statistics.median(setup_times)

    try:
        if args.trace:
            code_id = provenance.fingerprint(
                provenance.source_files(ROOT) + sorted(BENCH_DIR.glob("*.py"))
            )
            records, metrics, errors, report = traced_run(wl, state, args, code_id)
        else:
            records = drive(wl, state, args.seconds, wl.instances)
            metrics, errors, report = end_to_end(records, setup_s), [], {"ops": [asdict(r) for r in records]}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    errors += repeat_errors(records)

    failed = sum(1 for r in records if r.failures)
    for r in records:
        for msg in r.failures:
            print(f"op {r.index} (input {r.instance}) failed: {msg}", file=sys.stderr)
    for msg in errors:
        print(f"error: {msg}", file=sys.stderr)
    op_s = sorted(r.seconds for r in records)
    print(
        f"{wl.name} seed={args.seed} trace={args.trace} ops={len(records)} failed={failed} "
        f"fail_ratio={failed / len(records):.3g} import_median_s={statistics.median(imports):.4f} "
        f"setup_median_s={statistics.median(setup_times):.4f} "
        f"op_s min/median/max={op_s[0]:.4f}/{statistics.median(op_s):.4f}/{op_s[-1]:.4f}"
    )
    report.update(
        workload=wl.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
        import_times=imports, setup_times=setup_times, provenance=info, errors=errors,
    )
    out = WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1), encoding="utf-8")

    correct = failed == 0 and not errors
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
