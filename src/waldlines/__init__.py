"""Certified lower bounds for Waldschmidt constants of very general lines in P^3.

Exact rational arithmetic throughout: plane-system reduction by Cremona moves
and merges, iterated quadric degeneration in space, closed-form specialization
bounds, a Chudnovsky-type inequality, and the conjectural upper bounds e_s
(largest roots of t^3 - 3st + 2s).
"""

__version__ = "0.1.0"

from .linform import LinForm, as_rational, format_linform, parse_linform
from .cubic import AsymptoticCubic, RootBracket, largest_root
from .plane import (
    IterationLimitError,
    Move,
    PlaneSystem,
    ReductionStep,
    ThresholdInput,
    ThresholdResult,
    apply_cremona,
    associate_system,
    cremona_k,
    format_system,
    merge_four,
    normalize,
    parse_system,
    quadric_threshold,
    reference_reduction,
)
from .space import (
    DegenerationResult,
    DegenerationStep,
    LMove,
    SpaceSystem,
    best_bound,
    certify_lower_bound,
    format_space_system,
    replay_degeneration,
)
from .bounds import (
    STRONG_BOUND_EXCEPTIONS,
    StrongBoundStatus,
    alpha_max,
    chudnovsky_bound,
    chudnovsky_verify,
    plane_degeneration_bound,
    small_waldschmidt,
    sqrt_lower_bound,
    square_specialization_bound,
    strong_bound_closed_form_ok,
    strong_sqrt_check,
)
from .report import BoundReport, build_report

__all__ = [
    "__version__",
    "LinForm",
    "as_rational",
    "format_linform",
    "parse_linform",
    "AsymptoticCubic",
    "RootBracket",
    "largest_root",
    "IterationLimitError",
    "Move",
    "PlaneSystem",
    "ReductionStep",
    "ThresholdInput",
    "ThresholdResult",
    "apply_cremona",
    "associate_system",
    "cremona_k",
    "format_system",
    "merge_four",
    "normalize",
    "parse_system",
    "quadric_threshold",
    "reference_reduction",
    "DegenerationResult",
    "DegenerationStep",
    "LMove",
    "SpaceSystem",
    "best_bound",
    "certify_lower_bound",
    "format_space_system",
    "replay_degeneration",
    "STRONG_BOUND_EXCEPTIONS",
    "StrongBoundStatus",
    "alpha_max",
    "chudnovsky_bound",
    "chudnovsky_verify",
    "plane_degeneration_bound",
    "small_waldschmidt",
    "sqrt_lower_bound",
    "square_specialization_bound",
    "strong_bound_closed_form_ok",
    "strong_sqrt_check",
    "BoundReport",
    "build_report",
]
