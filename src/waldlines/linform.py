"""Exact linear forms a + b*t over the rationals, with evaluation ordering.

All degrees and multiplicities handled by the reduction algorithms are
polynomials of degree at most one in a single indeterminate t, with rational
coefficients.  They are compared by evaluating at a fixed small positive
rational tau; exact `fractions.Fraction` arithmetic is used throughout, so no
comparison ever goes through floating point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

RationalLike = Union[Fraction, int, str]

# The one rational-literal grammar: "p", "p/q" or "p.d".
_UNSIGNED = r"\d+(?:/\d+|\.\d+)?"
_RATIONAL_RE = re.compile(rf"[+-]?{_UNSIGNED}")


def as_rational(x: RationalLike) -> Fraction:
    """Coerce an int, Fraction or "p"/"p/q"/"p.d" string to an exact Fraction.

    Malformed literals, zero denominators included, raise ValueError.  A
    bool is not read as 0 or 1: like a float, it raises TypeError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        s = x.strip()
        if not _RATIONAL_RE.fullmatch(s):
            raise ValueError(f"not a rational literal: {x!r}")
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in rational literal: {x!r}") from None
    raise TypeError(f"cannot interpret {type(x).__name__} as a rational")


def check_line_count(s: object) -> None:
    """Refuse a line count s that is not an int >= 1: a TypeError for a
    non-int, a bool included (True is not read as 1), and a ValueError for
    s < 1."""
    if not isinstance(s, int) or isinstance(s, bool):
        raise TypeError(f"the line count {s!r} is not an int")
    if s < 1:
        raise ValueError("s must be positive")


@dataclass(frozen=True)
class LinForm:
    """Linear polynomial ``a + b*t`` with exact rational coefficients.

    A coefficient is converted only when it is not already a Fraction.  A
    form keeps its value at the last tau object it was called with and
    returns it while called with that same object (an identity check), so a
    reduction evaluates each form object once, not once per step.  The pair
    sits in the instance dict, outside the fields, so ==, hash and repr
    never see it; holding tau keeps the identity check sound."""

    a: Fraction
    b: Fraction = Fraction(0)
    _memo = (object(), None)  # (tau, value), tau no caller holds; unannotated, so not a field

    def __post_init__(self) -> None:
        if type(self.a) is not Fraction:
            object.__setattr__(self, "a", as_rational(self.a))
        if type(self.b) is not Fraction:
            object.__setattr__(self, "b", as_rational(self.b))

    def __call__(self, x: RationalLike) -> Fraction:
        """Exact value a + b*x; a constant form returns a, with no arithmetic."""
        at, value = self._memo
        if x is at:
            return value
        x = as_rational(x)
        value = self.a + self.b * x if self.b else self.a
        object.__setattr__(self, "_memo", (x, value))
        return value

    def __add__(self, other: "LinForm") -> "LinForm":
        return LinForm(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "LinForm") -> "LinForm":
        return LinForm(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "LinForm":
        return LinForm(-self.a, -self.b)

    def __mul__(self, c: RationalLike) -> "LinForm":
        c = as_rational(c)
        return LinForm(self.a * c, self.b * c)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return format_linform(self)

    @classmethod
    def const(cls, x: RationalLike) -> "LinForm":
        return cls(as_rational(x), Fraction(0))


def format_linform(f: LinForm) -> str:
    """Render as "a", "bt" or "a+bt"/"a-bt", e.g. "6-2t", "3t", "-8+141t".

    Signs and magnitudes are read from the coefficients' numerators and
    denominators, with no Fraction arithmetic or comparison; the text is
    str(Fraction)'s, "n" or "n/d"."""
    bn, bd = f.b.numerator, f.b.denominator
    an, ad = f.a.numerator, f.a.denominator
    if not bn:
        return str(an) if ad == 1 else f"{an}/{ad}"
    bmag = -bn if bn < 0 else bn
    tpart = f"{bmag}/{bd}t" if bd != 1 else "t" if bmag == 1 else f"{bmag}t"
    if not an:
        return tpart if bn > 0 else f"-{tpart}"
    sign = "+" if bn > 0 else "-"
    return f"{an}{sign}{tpart}" if ad == 1 else f"{an}/{ad}{sign}{tpart}"
