"""Largest real roots of the asymptotic cubics t^3 - 3st + 2s + 2k.

The largest real root of t^3 - 3st + 2s is the conjectural value e_s of the
Waldschmidt constant of s very general lines for s large; the 2k correction
accounts for k simple intersection points between the lines.  Roots are
isolated with exact rational bisection; a decimal is produced only when the
result is rendered.

On [1, oo) such a cubic decreases to its minimum at sqrt(s) and then
increases, so it has at most one root on the increasing branch and the
minimum's sign is decided by the exact integer comparison s^3 vs (s+k)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .linform import RationalLike, as_rational


@dataclass(frozen=True)
class AsymptoticCubic:
    """The polynomial t^3 - 3*s*t + (2*s + 2*k), evaluated exactly."""

    s: int
    k: int = 0

    def __post_init__(self) -> None:
        if self.s < 1:
            raise ValueError("s must be positive")
        if self.k < 0:
            raise ValueError("k must be nonnegative")

    def __call__(self, t: RationalLike) -> Fraction:
        t = as_rational(t)
        return t * t * t - 3 * self.s * t + 2 * self.s + 2 * self.k


@dataclass(frozen=True)
class RootBracket:
    """Rational enclosure lo <= root <= hi; lo == hi for exact roots."""

    lo: Fraction
    hi: Fraction

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def width(self) -> Fraction:
        return self.hi - self.lo


def _bisect(cubic: AsymptoticCubic, lo: Fraction, hi: Fraction, precision: Fraction) -> RootBracket:
    """Shrink a sign-change bracket (cubic(lo) < 0 < cubic(hi)) below
    ``precision``, returning an exact bracket if a midpoint hits the root."""
    while hi - lo >= precision:
        mid = (lo + hi) / 2
        v = cubic(mid)
        if v == 0:
            return RootBracket(mid, mid)
        if v < 0:
            lo = mid
        else:
            hi = mid
    return RootBracket(lo, hi)


def _bisect_right_of_dip(
    cubic: AsymptoticCubic, lo: Fraction, hi: Fraction, precision: Fraction
) -> RootBracket:
    """The largest root in (sqrt(s), hi), where lo <= sqrt(s) and
    cubic(hi) > 0 and the minimum at sqrt(s) is negative: tighten a rational
    point x > sqrt(s) with cubic(x) < 0, then bisect [x, hi]."""
    x = hi
    while cubic(x) >= 0:
        mid = (lo + x) / 2
        if mid * mid <= cubic.s:
            lo = mid
        else:
            x = mid
    return _bisect(cubic, x, hi, precision)


def largest_root(cubic: AsymptoticCubic, precision: RationalLike) -> RootBracket | None:
    """Largest real root of the cubic on [1, ceil(sqrt(3s)) + 1].

    Returns None when the cubic is positive on the whole bracket (possible
    for k > 0, e.g. t^3 - 6t + 6 has no real root above 1).  Scanning integer
    points from the right locates the rightmost sign change; the cubic's
    single-dip shape on the bracket makes that the largest root.
    """
    precision = as_rational(precision)
    if precision <= 0:
        raise ValueError("precision must be positive")
    s, k = cubic.s, cubic.k
    hi_end = math.isqrt(3 * s)
    if hi_end * hi_end < 3 * s:
        hi_end += 1
    hi_end += 1

    min_sign = s**3 - (s + k) ** 2  # sign of -(minimum value) at t = sqrt(s)
    if min_sign < 0:
        return None  # minimum is positive: no root at or beyond t = 1
    if min_sign == 0:
        # Minimum value is exactly 0; s^3 a perfect square forces s square,
        # so the double root sqrt(s) is an exact integer (e.g. s=1, k=0).
        r = math.isqrt(s)
        assert cubic(r) == 0
        x = Fraction(r)
        return RootBracket(x, x)

    prev = Fraction(hi_end)
    assert cubic(prev) > 0
    for j in range(hi_end - 1, 0, -1):
        x = Fraction(j)
        v = cubic(x)
        if v > 0:
            prev = x
            continue
        if v == 0 and j * j >= s:
            return RootBracket(x, x)  # on the increasing branch: largest root
        if v < 0:
            return _bisect(cubic, x, prev, precision)
        # v == 0 left of the minimum: the largest root hides in (sqrt(s), prev)
        return _bisect_right_of_dip(cubic, x, prev, precision)
    # No sign change on integer points: the dip lies inside one unit interval.
    return _bisect_right_of_dip(cubic, Fraction(1), Fraction(hi_end), precision)
