"""Certified flat-distance and Gromov-Hausdorff bounds for rotationally
symmetric asymptotically flat manifolds built from Hawking-mass profiles."""

from .certificates import (DeltaBudget, FlatCertificate, WellCut,
                           delta_budget, flat_certificate, switch_bounds,
                           well_cut)
from .embedding import (EmbeddingConstants, annulus_distance,
                        budget_embedding_constants, embedding_constant_bound,
                        metric_embedding_check, q_slope, tube_distance)
from .errors import (CertificateError, DomainError, InvalidProfileError,
                     MassflatError, ProfileFormatError, QuadratureError,
                     RangeError, WindowOverflowError)
from .geometry import (ManifoldModel, TubularWindow, euclidean_annulus_volume,
                       tubular_window)
from .ghdist import (GHBound, SegmentBound, best_gh_bound, gh_bound,
                     segment_limit_bound)
from .profiles import (ConstantPiece, CubicSplinePiece, HawkingProfile,
                       PowerLawPiece, ValidationIssue, ValidationReport,
                       deep_well, deep_well_parameters, flat, monotone_slopes,
                       schwarzschild, stripes, unit_sphere_area, validate)
from .serialization import (canonical_json, dumps_profile, loads_profile,
                            profile_from_dict, profile_to_dict, read_profile,
                            write_profile)
from .sweeps import SWEEP_COLUMNS, run_sweep, write_sweep_csv

__version__ = "0.1.0"

__all__ = [
    "CertificateError",
    "ConstantPiece",
    "CubicSplinePiece",
    "DeltaBudget",
    "DomainError",
    "EmbeddingConstants",
    "FlatCertificate",
    "GHBound",
    "HawkingProfile",
    "InvalidProfileError",
    "ManifoldModel",
    "MassflatError",
    "PowerLawPiece",
    "ProfileFormatError",
    "QuadratureError",
    "RangeError",
    "SWEEP_COLUMNS",
    "SegmentBound",
    "TubularWindow",
    "ValidationIssue",
    "ValidationReport",
    "WellCut",
    "WindowOverflowError",
    "annulus_distance",
    "best_gh_bound",
    "budget_embedding_constants",
    "canonical_json",
    "deep_well",
    "deep_well_parameters",
    "delta_budget",
    "dumps_profile",
    "embedding_constant_bound",
    "euclidean_annulus_volume",
    "flat",
    "flat_certificate",
    "gh_bound",
    "loads_profile",
    "metric_embedding_check",
    "monotone_slopes",
    "profile_from_dict",
    "profile_to_dict",
    "q_slope",
    "read_profile",
    "run_sweep",
    "schwarzschild",
    "segment_limit_bound",
    "stripes",
    "switch_bounds",
    "tube_distance",
    "tubular_window",
    "unit_sphere_area",
    "validate",
    "well_cut",
    "write_profile",
    "write_sweep_csv",
]
