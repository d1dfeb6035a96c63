"""Largest real roots of the asymptotic cubics t^3 - 3st + 2s + 2k.

The largest real root of t^3 - 3st + 2s is the conjectural value e_s of the
Waldschmidt constant of s very general lines for s large; the 2k correction
accounts for k simple intersection points between the lines.  Roots are
isolated on the dyadic grid in exact integers: every point tested is an
integer m at a scale 2^e, and the cubic's sign there is that of the integer
8^e * cubic(m/2^e).  The result is the bracket that halving the sign-change
bracket until it is narrower than the precision ends on, the same as that of
the rational bisection this replaced; it is computed from floor(root * 2^E)
by integer Newton steps, in O(log log 1/precision) steps near a simple root
rather than O(log 1/precision) halvings.  Fractions are built only for the
returned bracket, and a decimal only when the result is rendered.

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
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def _bisect(s: int, c: int, lo: int, hi: int, e: int, precision: Fraction) -> RootBracket:
    """The bracket that halving [lo/2^e, hi/2^e] (cubic negative at lo,
    positive at hi) until it is narrower than ``precision`` ends on.  ``c``
    is the constant term 2s + 2k; the bracket holds one root, right of sqrt(s).

    Halving keeps hi - lo = d at each new scale, so after n halvings, at
    scale E = e + n, the bracket is [L + i*d, L + (i + 1)*d] with L = lo*2^n:
    the one of the 2^n equal parts of [lo, hi] that holds the root.  No
    halving point is the root: a monic integer cubic has only integer
    rational roots, and largest_root returns those without calling this.  So
    with M = floor(root * 2^E), i = (M - L) // d.  Halving goes on while
    d/2^E >= precision = num/den, i.e. while 2^E <= d*den // num, so E is
    e or the bit length of d*den // num, whichever is larger.

    M comes from Newton steps on P(m) = 8^E * cubic(m/2^E)
    = m^3 - 3s*m*4^E + c*8^E, started at hi*2^n.  Right of sqrt(s) the cubic
    is convex and increasing, so each real Newton step from m > root lands
    in [root, m), and taking the floor of the step P(m)/P'(m) keeps m above
    the irrational root.  The three roots r are real (the minimum is
    negative), so P/P' = 1/sum(1/(m - r)) >= (m - root)/3: once the floored
    step is 0, m - root < 3, and at most two unit steps reach M + 1.
    """
    d = hi - lo
    n = max(0, (d * precision.denominator // precision.numerator).bit_length() - e)
    e += n
    a, b = (3 * s) << (2 * e), c << (3 * e)
    m = hi << n
    while (step := (m * (m * m - a) + b) // (3 * m * m - a)) > 0:
        m -= step
    while (m - 1) * ((m - 1) * (m - 1) - a) + b > 0:
        m -= 1
    lo <<= n
    lo += (m - 1 - lo) // d * d  # m - 1 = M
    return RootBracket(Fraction(lo, 1 << e), Fraction(lo + d, 1 << e))


def _bisect_right_of_dip(s: int, c: int, lo: int, hi: int, precision: Fraction) -> RootBracket:
    """The largest root in (sqrt(s), hi), where the integers lo <= sqrt(s) < hi
    have cubic(hi) > 0 and the minimum at sqrt(s) is negative: tighten a
    dyadic point x > sqrt(s) with cubic(x) < 0, then bisect [x, hi].  All
    three points are kept at the common scale 2^e."""
    x, e = hi, 0
    while True:
        mid = lo + x
        e += 1
        lo, x, hi = lo << 1, x << 1, hi << 1
        if mid * mid <= s << (2 * e):
            lo = mid  # still left of the dip; cubic(x) has not changed
        else:
            x = mid
            if mid * mid * mid - ((3 * s * mid) << (2 * e)) + (c << (3 * e)) < 0:
                return _bisect(s, c, x, hi, e, precision)


def half_at_most_e_s(w: int | Fraction, s: int) -> bool:
    """Whether w/2 <= e_s, the largest root of t^3 - 3st + 2s, for rational
    w, decided exactly from the cubic's sign with no enclosure.

    The cubic's minimum on t >= 0 sits at sqrt(s) and is 2s(1 - sqrt(s))
    <= 0, so e_s >= sqrt(s), and right of sqrt(s) the cubic increases.  So
    w/2 <= e_s iff w <= 0, or w^2 <= 4s (w/2 <= sqrt(s)), or cubic(w/2) <= 0,
    where 8 * cubic(w/2) = w^3 - 12sw + 16s.

    For s >= 20 it holds with w/2 any lower bound of waldlines.bounds, so
    `verify invariants`, which checks it for each s up to --max-s, proves
    "every lower bound is at most e_s" for every s once --max-s >= 19.
    With phi = (1 + sqrt 5)/2:

      * every bound is at most phi*sqrt(s).  plane_degeneration_bound's q
        has q <= k + sqrt(s - k) <= k + sqrt(s) and k <= s/q, so
        q^2 - sqrt(s)q - s <= 0, i.e. q <= phi*sqrt(s).  The square and
        sqrt bounds are at most sqrt(2s), and (alpha_max + 1)/2 is below
        sqrt(6s)/2 < sqrt(2s);
      * e_s > sqrt(3s) - 1/2 for s >= 2.  That point lies right of sqrt(s),
        and the cubic there is -s + (3/4)sqrt(3s) - 1/8, which is negative
        since (8s + 1)^2 > 108s for s >= 2;
      * phi*sqrt(s) <= sqrt(3s) - 1/2 iff (sqrt 3 - phi)sqrt(s) >= 1/2, iff
        s >= 1/(4(sqrt 3 - phi)^2) ~ 19.2: it holds from s = 20 on, and
        fails at 19.
    """
    return w <= 0 or w * w <= 4 * s or w * (w * w - 12 * s) + 16 * s <= 0


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
    c = 2 * s + 2 * k
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
        assert r * (r * r - 3 * s) + c == 0
        x = Fraction(r)
        return RootBracket(x, x)

    assert hi_end * (hi_end * hi_end - 3 * s) + c > 0
    for j in range(hi_end - 1, 0, -1):
        v = j * (j * j - 3 * s) + c
        if v > 0:
            continue
        if v == 0 and j * j >= s:
            x = Fraction(j)
            return RootBracket(x, x)  # on the increasing branch: largest root
        if v < 0:
            return _bisect(s, c, j, j + 1, 0, precision)
        # v == 0 left of the minimum: the largest root hides in (sqrt(s), j + 1)
        return _bisect_right_of_dip(s, c, j, j + 1, precision)
    # No sign change on integer points: the dip lies inside one unit interval.
    return _bisect_right_of_dip(s, c, 1, hi_end, precision)
