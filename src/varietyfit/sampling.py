"""Seeded samplers drawing point clouds from a polynomial's zero set.

Both samplers propose uniform points on [0,1]^n and filter them:

  * rejection sampling accepts a proposal a with probability exp(-f(a)^2),
    the unnormalized likelihood of the fitted model, so accepted points
    concentrate where |f| is small but noise is represented;
  * direct sampling accepts iff |f(a)| < eta, producing points within a
    hard algebraic-distance band of the zero set.

Proposals are drawn in blocks from one counter-based stream keyed by the
seed, one contiguous (point, alpha) record per proposal, and scanned in
order. ``Poly.evaluate`` computes each proposal's value from that proposal
alone, so the accepted cloud depends only on (f, config), not on the
block size.
Small eta makes acceptance arbitrarily rare; the proposal budget turns
that into a reported error instead of a hang.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .polynomials import Poly
from .rng import make_rng

__all__ = [
    "ProposalBudgetError",
    "SamplerConfig",
    "direct_sample",
    "rejection_sample",
]

_BLOCK = 8192

# Default proposal budget per requested sample.
DEFAULT_PROPOSALS_PER_POINT = 10**6


@dataclass(frozen=True)
class SamplerConfig:
    """Sampler parameters; eta only matters for direct sampling."""

    seed: int
    target_m: int
    eta: float = 1e-3
    max_proposals: int | None = None

    def __post_init__(self) -> None:
        if self.target_m < 1:
            raise ValueError("target_m must be >= 1")
        if not self.eta > 0:
            raise ValueError("eta must be > 0")
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


def _sample(f: Poly, cfg: SamplerConfig, accept, full_output: bool):
    n = f.basis.n
    rng = make_rng(cfg.seed)
    chunks: list[np.ndarray] = []
    collected = 0
    used = 0
    proposals_at_finish = None
    while used < cfg.budget and collected < cfg.target_m:
        b = min(_BLOCK, cfg.budget - used)
        block = rng.random((b, n + 1))
        pts = block[:, :n]
        alpha = block[:, n]
        mask = accept(f.evaluate(pts), alpha)
        hits = pts[mask]
        if hits.shape[0] > 0:
            chunks.append(hits)
            if collected + hits.shape[0] >= cfg.target_m:
                # stream position of the proposal completing the target
                need = cfg.target_m - collected
                last = int(np.flatnonzero(mask)[need - 1])
                proposals_at_finish = used + last + 1
            collected += hits.shape[0]
        used += b
    points = (
        np.vstack(chunks)[: cfg.target_m] if chunks else np.empty((0, n))
    )
    if collected < cfg.target_m:
        raise ProposalBudgetError(
            f"accepted only {collected} of {cfg.target_m} points in "
            f"{used} proposals (acceptance rate {collected / used:.3g})",
            accepted=PointCloud(points),
            proposals=used,
        )
    cloud = PointCloud(points)
    if full_output:
        stats = {
            "proposals": proposals_at_finish,
            "accepted": cfg.target_m,
            "acceptance_rate": cfg.target_m / proposals_at_finish,
        }
        return cloud, stats
    return cloud


def rejection_sample(f: Poly, cfg: SamplerConfig, full_output: bool = False):
    """Draw cfg.target_m points, accepting proposals with prob exp(-f(a)^2).

    With full_output=True also returns a dict with the proposal count and
    acceptance rate. Raises ProposalBudgetError when the budget runs out.
    """
    return _sample(
        f, cfg, lambda vals, alpha: alpha < np.exp(-(vals**2)), full_output
    )


def direct_sample(f: Poly, cfg: SamplerConfig, full_output: bool = False):
    """Draw cfg.target_m uniform points conditioned on |f(a)| < cfg.eta.

    Every returned point satisfies the threshold strictly. Raises
    ProposalBudgetError when the budget runs out, which usually signals an
    eta too small for the budget.
    """
    eta = cfg.eta
    return _sample(f, cfg, lambda vals, alpha: np.abs(vals) < eta, full_output)
