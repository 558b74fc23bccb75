"""Gradient-norm screening for sample points near a variety's singular locus.

For an irreducible hypersurface the singular points are exactly the points
of the variety where the gradient vanishes, so on a cloud sampled close to
the zero set, a small gradient norm flags proximity to the singular locus.
The converse does not hold in general; this is a heuristic filter, and the
report exposes all gradient norms so a threshold can be picked from their
empirical distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .polynomials import Poly

__all__ = ["SingularityReport", "singularity_filter"]


def check_epsilon(epsilon: float) -> None:
    """Refuse a gradient-norm threshold that is not finite and > 0."""
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")


@dataclass(frozen=True)
class SingularityReport:
    """Outcome of the gradient-norm filter on one cloud."""

    epsilon: float
    accepted: PointCloud
    gradient_norms: np.ndarray

    def __post_init__(self) -> None:
        norms = np.array(self.gradient_norms, dtype=float)
        norms.setflags(write=False)
        object.__setattr__(self, "gradient_norms", norms)

    @property
    def accepted_count(self) -> int:
        return self.accepted.m


def singularity_filter(
    f: Poly, cloud: PointCloud, epsilon: float
) -> SingularityReport:
    """Keep the points of the cloud where ||grad f||_2 < epsilon.

    Accepted points preserve input order. Pure function of its inputs.
    """
    check_epsilon(epsilon)
    if cloud.dim != f.basis.n:
        raise ValueError(
            f"cloud dimension {cloud.dim} does not match polynomial n={f.basis.n}"
        )
    norms = np.linalg.norm(f.gradient(cloud.points), axis=1)
    accepted = PointCloud(cloud.points[norms < epsilon])
    return SingularityReport(
        epsilon=epsilon, accepted=accepted, gradient_norms=norms
    )
