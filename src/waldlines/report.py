"""Per-s bound reports and their CSV/JSON/Markdown renderings.

A report gathers the three integer lower bounds, the Chudnovsky-type bound,
the search bound the caller passes (None: not searched), and the conjectural
upper bound e_s with its enclosure.  JSON carries exact rationals as "p/q"
strings next to the rendered decimals; CSV and Markdown show the same
decimals, so all three renderings agree numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import reference
from .bounds import (
    STRONG_BOUND_EXCEPTIONS,
    chudnovsky_bound,
    plane_degeneration_bound,
    square_specialization_bound,
    sqrt_lower_bound,
)
from .cubic import RootBracket, largest_root
from .linform import as_rational
# Unused here, but the benchmark tracer rebinds report.best_bound, so it
# stays importable.
from .space import best_bound

FLAG_STRONG_BOUND_EXCEPTION = (
    "strong-bound-exception: floor(sqrt(2.5s)) is not certified for this s"
)


def chud_discrepancy_flag(computed: Fraction, published: Fraction) -> str:
    return (
        f"chudnovsky-reference-mismatch: derived {computed}"
        f" but the published table prints {published}"
    )


@dataclass(frozen=True)
class BoundReport:
    s: int
    chud: Fraction
    sqrt_bound: int
    square_bound: int
    degeneration_bound: int
    l_bound: Fraction | None
    e_root: RootBracket
    e_precision: Fraction
    flags: tuple[str, ...]


def build_report(s: int, precision: Fraction, l_bound: Fraction | None) -> BoundReport:
    """Compute every bound for one s but the search bound, which the caller
    passes as ``l_bound`` (None: not searched)."""
    precision = as_rational(precision)
    chud = chudnovsky_bound(s)
    root = largest_root(s, precision)
    flags: list[str] = []
    if s in STRONG_BOUND_EXCEPTIONS:
        flags.append(FLAG_STRONG_BOUND_EXCEPTION)
    published = reference.REFERENCE_CHUD.get(s)
    if published is not None and published != chud:
        flags.append(chud_discrepancy_flag(chud, published))
    return BoundReport(
        s=s,
        chud=chud,
        sqrt_bound=sqrt_lower_bound(s),
        square_bound=square_specialization_bound(s),
        degeneration_bound=plane_degeneration_bound(s),
        l_bound=l_bound,
        e_root=root,
        e_precision=precision,
        flags=tuple(flags),
    )


def decimal_places(precision: Fraction) -> int:
    """Smallest n with 10^-n <= precision, capped at 18."""
    n = 0
    while Fraction(1, 10**n) > precision and n < 18:
        n += 1
    return n


def decimal_str(x: Fraction, places: int) -> str:
    """Fixed-point decimal with round-half-to-even, computed exactly."""
    if places <= 0:
        return str(round(x))
    sign = "-" if x < 0 else ""
    scaled = round(abs(x) * 10**places)  # Fraction round is half-to-even
    whole, frac = divmod(scaled, 10**places)
    return f"{sign}{whole}.{frac:0{places}d}"


def report_to_json_dict(r: BoundReport) -> dict:
    places = decimal_places(r.e_precision)
    return {
        "s": r.s,
        "thm_chud": str(r.chud),
        "thm_approach1": r.sqrt_bound,
        "thm_approach1alg": r.square_bound,
        "thm_approach2alg": r.degeneration_bound,
        "algorithm_L": None if r.l_bound is None else str(r.l_bound),
        "e_s": {
            "decimal": decimal_str(r.e_root.midpoint, places),
            "lo": str(r.e_root.lo),
            "hi": str(r.e_root.hi),
            "precision": str(r.e_precision),
        },
        "flags": list(r.flags),
    }


def _row_values(r: BoundReport) -> dict[str, str]:
    """Rendered value per row key; the same strings feed CSV and Markdown."""
    places = decimal_places(r.e_precision)
    chud = (
        str(r.chud.numerator)
        if r.chud.denominator == 1
        else decimal_str(r.chud, 1)
    )
    return {
        "thm_chud": chud,
        "thm_approach1": str(r.sqrt_bound),
        "thm_approach1alg": str(r.square_bound),
        "thm_approach2alg": str(r.degeneration_bound),
        "algorithm_L": "" if r.l_bound is None else decimal_str(r.l_bound, places),
        "e_s": decimal_str(r.e_root.midpoint, places),
    }


def reports_to_csv(reports: list[BoundReport]) -> str:
    lines = ["s," + ",".join(reference.ROW_KEYS)]
    for r in reports:
        vals = _row_values(r)
        lines.append(f"{r.s}," + ",".join(vals[k] for k in reference.ROW_KEYS))
    return "\n".join(lines) + "\n"


def reports_to_markdown(reports: list[BoundReport]) -> str:
    """Table-shaped rendering: one column per s, one row per bound source."""
    header = "| bound | " + " | ".join(str(r.s) for r in reports) + " |"
    rule = "|---" * (len(reports) + 1) + "|"
    lines = [header, rule]
    all_vals = [_row_values(r) for r in reports]
    for key in reference.ROW_KEYS:
        lines.append(
            f"| {key} | " + " | ".join(v[key] or "-" for v in all_vals) + " |"
        )
    flagged = [r for r in reports if r.flags]
    if flagged:
        lines.append("")
        for r in flagged:
            for f in r.flags:
                lines.append(f"- s={r.s}: {f}")
    return "\n".join(lines) + "\n"
