"""Seeded direct sampling of a polynomial's zero set.

direct_sample proposes uniform points a on [0,1]^n and accepts iff
|f(a)| < eta, producing points within a hard algebraic-distance band of
the zero set. Proposals are drawn in blocks of points from one
counter-based stream keyed by the seed, and scanned in order.

A proposal the screen cannot rule out is a candidate, and
``Poly.evaluate`` decides every candidate. The screen is the
polynomial's nested Horner form (``Poly._horner``), whose value s is
within a proven B of ``Poly.evaluate``'s on the cube: a proposal with
|s| >= eta + B has |f(a)| >= eta and is rejected unevaluated. The rest are
candidates, and the exact value accepts them with a strict |f(a)| < eta.
Near the band that is about 2% of the proposals at eta = 1e-4. A
non-finite B proves nothing, and then every proposal is a candidate.

Candidates are evaluated in batches across blocks, since each call has
a fixed cost: the pending candidates are evaluated once they could
complete the sample or number _BATCH, or when the budget ends.
``Poly.evaluate`` computes each row's value from that row alone, so
neither the screen, the batch nor the block size changes a value or a
decision: the accepted cloud, its stream position and the partial result
of a ProposalBudgetError depend only on (f, config).
Small eta makes acceptance arbitrarily rare; the proposal budget turns
that into a reported error instead of a hang.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, check_dense_budget
from .polynomials import Poly
from .rng import make_rng

__all__ = [
    "ProposalBudgetError",
    "SamplerConfig",
    "direct_sample",
]

_BLOCK = 8192

# Pending candidates are evaluated once there are this many, or enough to
# complete the sample: enough to amortize each call's fixed cost, few
# enough to keep the pending rows small.
_BATCH = 2048

# Default proposal budget per requested sample.
DEFAULT_PROPOSALS_PER_POINT = 10**6


@dataclass(frozen=True)
class SamplerConfig:
    """Seed, sample size, band half-width eta and proposal budget."""

    seed: int
    target_m: int
    eta: float = 1e-3
    max_proposals: int | None = None

    def __post_init__(self) -> None:
        if self.target_m < 1:
            raise ValueError("target_m must be >= 1")
        if not (np.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be finite and > 0, got {self.eta}")
        if self.max_proposals is not None and self.max_proposals < self.target_m:
            raise ValueError("max_proposals must be >= target_m")

    @property
    def budget(self) -> int:
        if self.max_proposals is not None:
            return self.max_proposals
        return DEFAULT_PROPOSALS_PER_POINT * self.target_m


class ProposalBudgetError(RuntimeError):
    """Budget ran out before enough points were accepted.

    Carries the partial result so callers can inspect the accepted points
    and the realized acceptance rate.
    """

    def __init__(self, message: str, accepted: PointCloud, proposals: int):
        super().__init__(message)
        self.accepted = accepted
        self.proposals = proposals


def _screen(f: Poly, eta: float):
    """Mask of the proposals in a block that |f| < eta does not rule out.

    None when the Horner bound is not finite: every proposal is then a
    candidate. The threshold is rounded up, so it is at least eta + B.
    """
    horner = f._horner
    threshold = np.nextafter(eta + horner.bound, np.inf)
    if not np.isfinite(threshold):
        return None
    n = f.basis.n
    kernels = {}  # block length -> (column buffer, Horner kernel)

    def screen(pts: np.ndarray) -> np.ndarray:
        b = pts.shape[0]
        if b not in kernels:
            cols = np.empty((n, b))
            kernels[b] = cols, horner.bind(cols)
        cols, run = kernels[b]
        np.copyto(cols, pts.T)
        values = run()
        return np.abs(values, values) < threshold

    return screen


def direct_sample(f: Poly, cfg: SamplerConfig, full_output: bool = False):
    """Draw cfg.target_m uniform points conditioned on |f(a)| < cfg.eta.

    Every returned point satisfies the threshold strictly. full_output=True
    also returns a dict with the proposal count, the acceptance rate and
    ``exact_evaluations``, the number of candidates the Horner screen could
    not reject. A target_m x n sample over the dense budget is refused
    before anything is drawn. Raises ProposalBudgetError when the budget
    runs out, which usually signals an eta too small for the budget.
    """
    n = f.basis.n
    check_dense_budget(cfg.target_m, n, "sample")
    screen = _screen(f, cfg.eta)
    rng = make_rng(cfg.seed)
    points = np.empty((cfg.target_m, n))
    pending: list[np.ndarray] = []  # candidate proposals
    positions: list[np.ndarray] = []  # their stream positions
    waiting = 0
    collected = 0
    used = 0
    evaluated = 0
    proposals_at_finish = None
    while used < cfg.budget and collected < cfg.target_m:
        b = min(_BLOCK, cfg.budget - used)
        block = rng.random((b, n))
        if screen is None:
            pending.append(block)
            positions.append(np.arange(used, used + b))
        else:
            keep = np.flatnonzero(screen(block))
            pending.append(block[keep])
            positions.append(used + keep)
        waiting += pending[-1].shape[0]
        used += b
        if waiting and (
            waiting >= min(cfg.target_m - collected, _BATCH) or used == cfg.budget
        ):
            rows = np.concatenate(pending)
            where = np.concatenate(positions)
            pending, positions, waiting = [], [], 0
            evaluated += rows.shape[0]
            hits = np.flatnonzero(np.abs(f.evaluate(rows)) < cfg.eta)
            hits = hits[: cfg.target_m - collected]
            points[collected : collected + hits.size] = rows[hits]
            collected += hits.size
            if collected == cfg.target_m:
                # stream position of the proposal completing the target
                proposals_at_finish = int(where[hits[-1]]) + 1
    if collected < cfg.target_m:
        raise ProposalBudgetError(
            f"accepted only {collected} of {cfg.target_m} points in "
            f"{used} proposals (acceptance rate {collected / used:.3g})",
            accepted=PointCloud(points[:collected]),
            proposals=used,
        )
    cloud = PointCloud(points)
    if full_output:
        stats = {
            "proposals": proposals_at_finish,
            "accepted": cfg.target_m,
            "acceptance_rate": cfg.target_m / proposals_at_finish,
            "exact_evaluations": evaluated,
        }
        return cloud, stats
    return cloud
