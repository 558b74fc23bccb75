"""In-memory spans around varietyfit's public functions.

The tracer swaps each traced name, in the module or class where its caller
looks it up, for a wrapper that records one span per call: name, start,
end, parent span and the op it belongs to, plus any counts read off the
call's arguments or result. Nothing under src/ changes; the wrappers exist
only in this process, only while the tracer is installed.

Self time of a span is its duration minus the durations of its children.
Calls are strictly nested (one thread), so the children never overlap.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import varietyfit.cli
import varietyfit.fitting
import varietyfit.polynomials
import varietyfit.sampling
import varietyfit.singular
import varietyfit.transport


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _count_points(span, args, result):
    points = args[1]
    span.counts["points"] = 1 if np.ndim(points) == 1 else int(np.shape(points)[0])


def _count_sampler(span, args, result):
    if isinstance(result, tuple):
        stats = result[1]
        span.counts["proposals"] = int(stats["proposals"])
        span.counts["accepted"] = int(stats["accepted"])


def _count_filter(span, args, result):
    span.counts["accepted"] = int(result.accepted_count)


def _count_transport(span, args, result):
    a, b = args[0], args[1]
    span.counts["cost_matrix_bytes"] = 8 * a.m * b.m
    span.counts["iterations"] = int(result.iterations)
    span.counts["marginal_error"] = float(result.marginal_error)


def _count_fit(span, args, result):
    n_coeffs = len(result.kernel_basis[0].coeffs)
    span.counts["gram_flops"] = result.m * n_coeffs * n_coeffs


def targets():
    """(owner, attribute, span name, count function) for every traced name.

    Each function is wrapped where its caller binds it: the CLI imported
    its helpers by name, fit_map calls its helpers through the fitting
    module, and the benchmark's own ops call through the defining modules.
    Every helper the CLI's pipeline command can reach is wrapped, so
    another --kind, or a change in which solver the pipeline picks, still
    lands in a span.
    """
    cli = varietyfit.cli
    Poly = varietyfit.polynomials.Poly
    return [
        (cli, "main", "cli.main", None),
        (cli, "gen_sphere_plane", "datasets.gen", None),
        (cli, "gen_sphere_plane_singular", "datasets.gen", None),
        (cli, "gen_noisy_line", "datasets.gen", None),
        (cli, "save_cloud", "cloud.io", None),
        (cli, "load_cloud", "cloud.io", None),
        (cli, "save_model", "modelio.io", None),
        (cli, "fit_map", "fitting.fit_map", _count_fit),
        (varietyfit.fitting, "vandermonde", "fitting.vandermonde", None),
        (varietyfit.fitting, "smallest_eigenpairs", "fitting.eigh", None),
        (Poly, "evaluate", "polynomials.evaluate", _count_points),
        (Poly, "__call__", "polynomials.evaluate", _count_points),
        (Poly, "gradient", "polynomials.gradient", _count_points),
        (cli, "direct_sample", "sampling.direct", _count_sampler),
        (varietyfit.sampling, "direct_sample", "sampling.direct", _count_sampler),
        (cli, "singularity_filter", "singular.filter", _count_filter),
        (varietyfit.singular, "singularity_filter", "singular.filter", _count_filter),
        (cli, "wasserstein_exact", "transport.exact", _count_transport),
        (cli, "wasserstein_sinkhorn", "transport.sinkhorn", _count_transport),
        (varietyfit.transport, "wasserstein_sinkhorn", "transport.sinkhorn", _count_transport),
    ]


class Tracer:
    """Records spans of one op while installed; uninstall restores the originals."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), name, parent, self.op, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(span, args, result)
            return result

        return traced

    def install(self, op: int) -> None:
        """Wrap every target and attribute the spans to op."""
        self.op = op
        for owner, attr, name, count in targets():
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, count))

    def uninstall(self) -> None:
        self.op = None
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def op_spans(self, op: int) -> list[Span]:
        return [s for s in self.spans if s.op == op]


# Per-layer metrics: name -> unit. Counts in EXACT_REPEAT must be identical
# whenever one input is run again; "computed" units are derived from array
# shapes, not measured.
LAYER_UNITS = {
    "transport.exact_s": "s",
    "transport.sinkhorn_s": "s",
    "transport.sinkhorn_iters": "count",
    "transport.sinkhorn_s_per_iter": "s",
    "transport.cost_matrix_bytes": "bytes-computed",
    "transport.marginal_err": "ratio",
    "polynomials.evaluate_s": "s",
    "polynomials.evaluate_points": "count",
    "polynomials.evaluate_pts_per_s": "1/s",
    "polynomials.gradient_s": "s",
    "polynomials.gradient_points": "count",
    "sampling.direct_s": "s",
    "sampling.self_s": "s",
    "sampling.proposals": "count",
    "sampling.acceptance": "ratio",
    "singular.filter_s": "s",
    "singular.accepted": "count",
    "fitting.fit_map_s": "s",
    "fitting.vandermonde_s": "s",
    "fitting.eigh_s": "s",
    "fitting.gram_flops": "flops-computed",
    "datasets.gen_s": "s",
    "cloud.io_s": "s",
    "modelio.io_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

EXACT_REPEAT = (
    "sampling.proposals",
    "polynomials.evaluate_points",
    "transport.sinkhorn_iters",
    "fitting.gram_flops",
    "transport.cost_matrix_bytes",
    "singular.accepted",
)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    out = defaultdict(float)
    for s in spans:
        out[s.name] += s.duration - child[s.id]
    return dict(out)


def op_layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Layer metrics of one op from its spans (all but trace.overhead_s).

    Evaluate calls made inside Poly.gradient belong to the gradient: only
    evaluate spans whose parent is outside the polynomials layer count as
    evaluate time and points.
    """
    by_id = {s.id: s for s in spans}

    def outer(s: Span) -> bool:
        return s.parent is None or not by_id[s.parent].name.startswith("polynomials.")

    def named(name):
        return [s for s in spans if s.name == name]

    def dur(name, only_outer=False):
        return sum((s.duration for s in named(name) if not only_outer or outer(s)), 0.0)

    def count(name, key, only_outer=False):
        return sum(s.counts.get(key, 0) for s in named(name) if not only_outer or outer(s))

    selfs = self_times(spans)
    sinkhorn_s = dur("transport.sinkhorn")
    sinkhorn_iters = count("transport.sinkhorn", "iterations")
    evaluate_s = dur("polynomials.evaluate", only_outer=True)
    evaluate_points = count("polynomials.evaluate", "points", only_outer=True)
    proposals = count("sampling.direct", "proposals")
    transports = named("transport.exact") + named("transport.sinkhorn")
    return {
        "transport.exact_s": dur("transport.exact"),
        "transport.sinkhorn_s": sinkhorn_s,
        "transport.sinkhorn_iters": sinkhorn_iters,
        "transport.sinkhorn_s_per_iter": sinkhorn_s / sinkhorn_iters if sinkhorn_iters else 0.0,
        "transport.cost_matrix_bytes": sum(s.counts["cost_matrix_bytes"] for s in transports),
        "transport.marginal_err": max((s.counts["marginal_error"] for s in transports), default=0.0),
        "polynomials.evaluate_s": evaluate_s,
        "polynomials.evaluate_points": evaluate_points,
        "polynomials.evaluate_pts_per_s": evaluate_points / evaluate_s if evaluate_s else 0.0,
        "polynomials.gradient_s": dur("polynomials.gradient", only_outer=True),
        "polynomials.gradient_points": count("polynomials.gradient", "points", only_outer=True),
        "sampling.direct_s": dur("sampling.direct"),
        "sampling.self_s": selfs.get("sampling.direct", 0.0),
        "sampling.proposals": proposals,
        "sampling.acceptance": count("sampling.direct", "accepted") / proposals if proposals else 0.0,
        "singular.filter_s": dur("singular.filter"),
        "singular.accepted": count("singular.filter", "accepted"),
        "fitting.fit_map_s": dur("fitting.fit_map"),
        "fitting.vandermonde_s": dur("fitting.vandermonde"),
        "fitting.eigh_s": dur("fitting.eigh"),
        "fitting.gram_flops": count("fitting.fit_map", "gram_flops"),
        "datasets.gen_s": dur("datasets.gen"),
        "cloud.io_s": dur("cloud.io"),
        "modelio.io_s": dur("modelio.io"),
        "cli.self_s": selfs.get("cli.main", 0.0),
    }


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
