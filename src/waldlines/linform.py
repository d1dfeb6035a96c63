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

    Malformed literals, zero denominators included, raise ValueError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
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


@dataclass(frozen=True)
class LinForm:
    """Linear polynomial ``a + b*t`` with exact rational coefficients.

    A coefficient is converted only when it is not already a Fraction.
    normalize evaluates each form at tau once per call."""

    a: Fraction
    b: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if type(self.a) is not Fraction:
            object.__setattr__(self, "a", as_rational(self.a))
        if type(self.b) is not Fraction:
            object.__setattr__(self, "b", as_rational(self.b))

    def __call__(self, x: RationalLike) -> Fraction:
        """Exact value a + b*x; a constant form returns a, with no arithmetic."""
        x = as_rational(x)
        return self.a + self.b * x if self.b else self.a

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
    """Render as "a", "bt" or "a+bt"/"a-bt", e.g. "6-2t", "3t", "-8+141t"."""
    if f.b == 0:
        return str(f.a)
    bmag = abs(f.b)
    tpart = "t" if bmag == 1 else f"{bmag}t"
    if f.a == 0:
        return tpart if f.b > 0 else f"-{tpart}"
    sign = "+" if f.b > 0 else "-"
    return f"{f.a}{sign}{tpart}"
