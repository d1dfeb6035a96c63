"""Certified lower bounds for Waldschmidt constants of very general lines in P^3.

Exact rational arithmetic throughout: plane-system reduction by Cremona moves
and merges, iterated quadric degeneration in space, closed-form specialization
bounds, a Chudnovsky-type inequality, and the conjectural upper bounds e_s
(largest roots of t^3 - 3st + 2s).

The package exports the four names of the README quick start; everything else
is imported from its module (e.g. ``waldlines.bounds.chudnovsky_verify``).
"""

__version__ = "0.1.0"

from .plane import SpaceSystem, quadric_threshold
from .space import best_bound, certify_lower_bound

__all__ = [
    "__version__",
    "SpaceSystem",
    "best_bound",
    "certify_lower_bound",
    "quadric_threshold",
]
