"""The largest real root e_s of t^3 - 3st + 2s, enclosed in exact integers.

e_s is the conjectural value of the Waldschmidt constant of s very general
lines for s large.  Roots are isolated on the dyadic grid in exact
integers: every point tested is an integer m at a scale 2^e, and the
cubic's sign there is that of the integer 8^e * cubic(m/2^e).  The result
is the bracket that halving the sign-change bracket until it is narrower
than the precision ends on, the same as that of the rational bisection this
replaced, which the tests keep as the oracle; it is computed from
floor(root * 2^E) by integer Newton steps, in O(log log 1/precision) steps
near a simple root rather than O(log 1/precision) halvings.  Fractions are
built only for the returned bracket, and a decimal only when the result is
rendered.

On [1, oo) the cubic decreases to its minimum 2s(1 - sqrt(s)) <= 0 at
sqrt(s) and then increases, so e_s is its one root on the increasing branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .linform import RationalLike, check_line_count, positive_rational


@dataclass(frozen=True)
class RootBracket:
    """Rational enclosure lo <= root <= hi; lo == hi for exact roots."""

    lo: Fraction
    hi: Fraction

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def _bisect(s: int, c: int, j: int, precision: Fraction) -> RootBracket:
    """The bracket that halving [j, j + 1] (t^3 - 3st + c, c > 0, negative
    at j >= 0 and positive at j + 1) until it is narrower than ``precision``
    ends on.  The bracket holds the largest root, right of sqrt(s), since
    the smallest is negative.  largest_root passes c = 2s; acceptance
    criterion C5 also reads the root at c = 2s + 2k, s = 100, k = 225.

    Halving goes on while 1/2^n >= precision = num/den, i.e. while
    2^n <= den // num, so it stops after n halvings, n the bit length of
    den // num, on the one of the 2^n equal parts of [j, j + 1] that holds
    the root.  No halving point is the root: a monic integer cubic has only
    integer rational roots, and the cubic is nonzero at j and j + 1.  So the
    part is [M, M + 1]/2^n with M = floor(root * 2^n).

    M comes from Newton steps on P(m) = 8^n * cubic(m/2^n)
    = m^3 - 3s*m*4^n + c*8^n, started at (j + 1)*2^n.  Right of sqrt(s)
    the cubic is convex and increasing, so each real Newton step from
    m > root lands in [root, m), and taking the floor of the step
    P(m)/P'(m) keeps m above the irrational root.  The three roots r are
    real (the cubic is negative at j), so P/P' = 1/sum(1/(m - r))
    >= (m - root)/3: once the floored step is 0, m - root < 3, and at most
    two unit steps reach M + 1.
    """
    n = (precision.denominator // precision.numerator).bit_length()
    a, b = (3 * s) << (2 * n), c << (3 * n)
    m = (j + 1) << n
    while (step := (m * (m * m - a) + b) // (3 * m * m - a)) > 0:
        m -= step
    while (m - 1) * ((m - 1) * (m - 1) - a) + b > 0:
        m -= 1
    return RootBracket(Fraction(m - 1, 1 << n), Fraction(m, 1 << n))


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


def largest_root(s: int, precision: RationalLike) -> RootBracket:
    """e_s, the largest real root of t^3 - 3st + 2s, within ``precision``.

    The cubic is 1 - s <= 0 at t = 1 and positive at isqrt(3s) + 1, where
    t^2 > 3s.  Its only integer root left of sqrt(s) would need
    s = j^3/(3j - 2) > j^2, i.e. j < 1, so the first integer from
    isqrt(3s) down with a nonpositive value is either a root on the
    increasing branch, hence e_s (s = 1, 2), or has the root in the unit
    interval to its right.
    """
    check_line_count(s)
    precision = positive_rational(precision, "precision")
    j = math.isqrt(3 * s)
    while (v := j * (j * j - 3 * s) + 2 * s) > 0:
        j -= 1
    if v == 0:
        return RootBracket(Fraction(j), Fraction(j))
    return _bisect(s, 2 * s, j, precision)
