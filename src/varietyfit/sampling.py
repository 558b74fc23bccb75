"""Seeded direct sampling of a polynomial's zero set.

direct_sample proposes uniform points a on [0,1]^n and accepts iff
|f(a)| < eta, producing points within a hard algebraic-distance band of
the zero set. Proposals are drawn in blocks of points from one
counter-based stream keyed by the seed, and scanned in order.

Each block is evaluated by the polynomial's nested Horner form, the
kernel behind ``Poly.evaluate``, bound once per call to a column buffer
for each block length. The kernel computes each row's value from that row
alone, so the block size changes neither a value nor a decision: the
accepted cloud, its stream position and the partial result of a
ProposalBudgetError depend only on (f, config) and match ``Poly.evaluate``
bit for bit.

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

# Default proposal budget per requested sample.
DEFAULT_PROPOSALS_PER_POINT = 10**6


def check_eta(eta: float) -> None:
    """Refuse a band half-width that is not finite and > 0."""
    if not (np.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be finite and > 0, got {eta}")


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
        check_eta(self.eta)
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


def direct_sample(f: Poly, cfg: SamplerConfig, full_output: bool = False):
    """Draw cfg.target_m uniform points conditioned on |f(a)| < cfg.eta.

    Every returned point satisfies the threshold strictly. full_output=True
    also returns a dict with the proposal count and the acceptance rate. A
    target_m x n sample over the dense budget is refused before anything
    is drawn, and so is a nonzero constant f with |f| >= eta, whose band
    is empty. Raises ProposalBudgetError when the budget runs out, which
    usually signals an eta too small for the budget.
    """
    n = f.basis.n
    check_dense_budget(cfg.target_m, n, "sample")
    constant = float(f.coeffs[-1])
    if not f.coeffs[:-1].any() and abs(constant) >= cfg.eta:
        raise ValueError(
            f"the model is the constant {constant:.6g}, so its band |f| < eta = "
            f"{cfg.eta:.6g} is empty"
        )
    rng = make_rng(cfg.seed)
    points = np.empty((cfg.target_m, n))
    kernels = {}  # block length -> (column buffer, Horner kernel)
    collected = 0
    used = 0
    while used < cfg.budget and collected < cfg.target_m:
        b = min(_BLOCK, cfg.budget - used)
        block = rng.random((b, n))
        if b not in kernels:
            cols = np.empty((n, b))
            kernels[b] = cols, f._horner.bind(cols)
        cols, run = kernels[b]
        np.copyto(cols, block.T)
        values = run()
        hits = np.flatnonzero(np.abs(values, values) < cfg.eta)
        hits = hits[: cfg.target_m - collected]
        points[collected : collected + hits.size] = block[hits]
        collected += hits.size
        if collected == cfg.target_m:
            # stream position of the proposal completing the target
            used += int(hits[-1]) + 1
        else:
            used += b
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
            "proposals": used,
            "accepted": cfg.target_m,
            "acceptance_rate": cfg.target_m / used,
        }
        return cloud, stats
    return cloud
