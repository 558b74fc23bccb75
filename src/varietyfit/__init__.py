"""Learn an algebraic variety from a point cloud and analyze it numerically.

The pipeline: generate or load a cloud in the unit cube, fit a bounded
degree polynomial model by a smallest-eigenpair computation, then resample
the learned zero set, screen for near-singular points, and compare clouds
by optimal transport.
"""

from .cloud import (
    CloudFormatError,
    NormalizationRecord,
    PointCloud,
    load_cloud,
    normalize_to_unit_cube,
    save_cloud,
)
from .datasets import (
    cyclooctane_residuals,
    gen_noisy_line,
    gen_sphere_plane,
    gen_sphere_plane_singular,
    sphere_plane_polynomial,
)
from .fitting import (
    MapFit,
    RationalizationError,
    RationalPoly,
    fit_map,
    intersected_map,
    map_polynomial,
    rationalize,
    smallest_eigenpairs,
    vandermonde,
)
from .modelio import ModelFile, export_singular_script, load_model, save_model
from .polynomials import (
    MonomialBasis,
    Poly,
    enumerate_monomials,
    gradient_polys,
    sum_of_squares,
)
from .sampling import ProposalBudgetError, SamplerConfig, direct_sample
from .singular import SingularityReport, singularity_filter
from .transport import TransportPlan, wasserstein_exact, wasserstein_sinkhorn

__version__ = "0.1.0"

__all__ = [
    "CloudFormatError",
    "MapFit",
    "ModelFile",
    "MonomialBasis",
    "NormalizationRecord",
    "PointCloud",
    "Poly",
    "ProposalBudgetError",
    "RationalPoly",
    "RationalizationError",
    "SamplerConfig",
    "SingularityReport",
    "TransportPlan",
    "cyclooctane_residuals",
    "direct_sample",
    "enumerate_monomials",
    "export_singular_script",
    "fit_map",
    "gen_noisy_line",
    "gen_sphere_plane",
    "gen_sphere_plane_singular",
    "gradient_polys",
    "intersected_map",
    "load_cloud",
    "load_model",
    "map_polynomial",
    "normalize_to_unit_cube",
    "rationalize",
    "save_cloud",
    "save_model",
    "singularity_filter",
    "smallest_eigenpairs",
    "sphere_plane_polynomial",
    "sum_of_squares",
    "vandermonde",
    "wasserstein_exact",
    "wasserstein_sinkhorn",
]
