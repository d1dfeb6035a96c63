"""Closed-form lower bounds for Waldschmidt constants of very general lines.

Three specialization arguments give integer lower bounds for the Waldschmidt
constant of s very general lines in P^3:

  * square_specialization_bound: put k^2 of the lines onto k planes (k lines
    each); any q with (q - k)^2 <= s - k^2 for some 1 <= k <= sqrt(s) is a
    lower bound.  The largest is the largest m with
    floor(m/2)^2 + ceil(m/2)^2 <= s, found with one isqrt.
  * sqrt_lower_bound: the closed form floor(sqrt(2s - 1)), always admissible
    for the previous condition.
  * plane_degeneration_bound: put k lines onto each of q planes; any q with
    q*k <= s and (q - k)^2 <= s - k is a lower bound.  The largest sits where
    k + isqrt(s - k), which never decreases in k, crosses s // k, which never
    increases, and is found by bisecting for that crossing in O(log s)
    isqrt calls.

A condition count caps the initial degree alpha(s) of the ideal of the lines
by (alpha + 2)(alpha + 1) <= 6s, and the Chudnovsky-type inequality
alphahat >= (alpha + 1)/2 follows from the bounds above; chudnovsky_verify
checks the whole inequality chain exactly.  The strong bound
floor(sqrt(2.5 s)) holds for every s except 4, 7 and 10: by the known exact
values for s <= 5, and for every s >= 6 by plane_degeneration_bound wherever
it reaches the bound (proved for every s >= 685), by the degeneration loop
at the 47 s where it falls short.

Everything here is exact integer/rational arithmetic; the only approximate
quantity anywhere is the rendered decimal of a cubic root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# Unused here, but the benchmark tracer rebinds bounds.largest_root, so it
# stays importable.
from .cubic import largest_root
from .linform import RationalLike, as_rational, check_line_count
from .space import certify_lower_bound


def square_specialization_bound(s: int) -> int:
    """Largest q such that (q - k)^2 <= s - k^2 for some 1 <= k <= sqrt(s).

    That is the largest m with floor(m/2)^2 + ceil(m/2)^2 <= s.  For a given
    q the least k^2 + (q - k)^2 over integers k is at k = ceil(q/2), which is
    >= 1 and has k^2 <= s whenever the sum is <= s; and the sum grows with q.
    With a = isqrt(s // 2), the largest a with 2a^2 <= s, the answer is 2a
    or, when 2a^2 + 2a + 1 = a^2 + (a + 1)^2 <= s, 2a + 1.
    """
    # Sweeps call the closed forms once per s, so they skip the call for a
    # plain int s >= 1.
    if type(s) is not int or s < 1:
        check_line_count(s)
    a = math.isqrt(s // 2)
    return 2 * a + (2 * a * (a + 1) < s)


def sqrt_lower_bound(s: int) -> int:
    """floor(sqrt(2s - 1)), computed with exact integer arithmetic."""
    if type(s) is not int or s < 1:
        check_line_count(s)
    return math.isqrt(2 * s - 1)


def plane_degeneration_bound(s: int) -> int:
    """Largest q such that q*k <= s and (q - k)^2 <= s - k for some k >= 0.

    Any maximizing pair has k <= sqrt(s) (larger k forces q <= sqrt(s),
    already achieved at k = 0).  With A(k) = k + isqrt(s - k) and
    B(k) = s // k, the largest q is A(0) = isqrt(s) for k = 0 and
    min(A(k), B(k)) for 1 <= k <= K = isqrt(s).  A never decreases (from k
    to k + 1, isqrt(s - k) drops by at most 1) and B never increases.  So
    with k* the least k >= 1 with A(k) >= B(k), or K + 1 if there is none,
    the minimum is A left of k* and B from k* on, and the answer is the
    larger of A(k* - 1) and B(k*): A(k* - 1) >= A(0) covers k = 0, and for
    k* = K + 1, B(K + 1) <= K = A(0) since s < (K + 1)^2.  k* is found by
    bisection.
    """
    if type(s) is not int or s < 1:
        check_line_count(s)
    lo, hi = 1, math.isqrt(s) + 1
    while lo < hi:
        k = (lo + hi) // 2
        if k + math.isqrt(s - k) >= s // k:
            hi = k
        else:
            lo = k + 1
    return max(lo - 1 + math.isqrt(s - lo + 1), s // lo)


def alpha_max(s: int) -> int:
    """Largest alpha >= 1 with (alpha + 2)(alpha + 1) <= 6s.

    Counting conditions imposed by s lines on forms of degree alpha - 1 shows
    the initial degree of the ideal of the lines cannot exceed this value.
    Since 4(a + 2)(a + 1) = (2a + 3)^2 - 1, the condition is
    (2a + 3)^2 <= 24s + 1, i.e. 2a + 3 <= isqrt(24s + 1).
    """
    if type(s) is not int or s < 1:
        check_line_count(s)
    return (math.isqrt(24 * s + 1) - 3) // 2


def chudnovsky_bound(s: int) -> Fraction:
    """(alpha_max(s) + 1) / 2, the strongest Chudnovsky-type requirement any
    feasible initial degree can impose."""
    return Fraction(alpha_max(s) + 1, 2)


def small_waldschmidt(s: int) -> Fraction:
    """Known exact Waldschmidt constants for 1 <= s <= 5."""
    known = {
        1: Fraction(1),
        2: Fraction(2),
        3: Fraction(2),
        4: Fraction(8, 3),
        5: Fraction(10, 3),
    }
    if type(s) is not int or s < 1:
        check_line_count(s)
    if s not in known:
        raise ValueError(f"exact value only known for s in 1..5, got {s}")
    return known[s]


def chudnovsky_verify(s_max: int) -> list[str]:
    """Exact sweep of the Chudnovsky-type inequality chain up to s_max.

    For each s checks that the best of the three closed-form lower bounds
    reaches (alpha_max(s) + 1)/2, and that for every a >= 10 with
    (a + 2)(a + 1) <= 6s the inequality sqrt(2s - 1) - 1 >= (a + 1)/2 holds
    (equivalently 8s - 4 >= (a + 3)^2, checked in integers).  The other two
    bounds are computed only when the sqrt bound falls short, and since
    (a + 3)^2 grows with a, a = alpha_max(s) decides the second check.
    Returns a list of violation descriptions; empty means the chain holds
    everywhere.

    Past s = 19 neither check can fail, so an empty sweep with s_max >= 19
    proves the chain for every s.  With a = alpha_max(s):

      * for s >= 20 the sqrt bound alone suffices, 2*isqrt(2s - 1) >= a + 1.
        From (2a + 3)^2 <= 24s + 1, a + 1 <= (sqrt(24s + 1) - 1)/2, and
        isqrt(2s - 1) > sqrt(2s - 1) - 1, so it is enough that
        4 sqrt(2s - 1) - 3 >= sqrt(24s + 1).  Squaring, this is
        s - 1 >= 3 sqrt(2s - 1), i.e. (s - 1)^2 >= 9(2s - 1), i.e.
        s^2 - 20s + 10 >= 0, which holds for s >= 20 (and fails at 19);
      * for a >= 10, 6s >= (a + 2)(a + 1) gives 8s - 4 >= (a + 3)^2, since
        4(a + 2)(a + 1)/3 - 4 - (a + 3)^2 = (a^2 - 6a - 31)/3 >= 0 for
        a >= 10.
    """
    if type(s_max) is not int or s_max < 1:
        check_line_count(s_max)
    violations: list[str] = []
    for s in range(1, s_max + 1):
        a = alpha_max(s)
        have = sqrt_lower_bound(s)
        if 2 * have < a + 1:  # have < chudnovsky_bound(s), in integers
            have = max(have, square_specialization_bound(s), plane_degeneration_bound(s))
            if 2 * have < a + 1:
                violations.append(f"s={s}: best closed-form bound {have} < {chudnovsky_bound(s)}")
        if a >= 10 and 8 * s - 4 < (a + 3) ** 2:
            violations.append(f"s={s}, a={a}: 8s-4 < (a+3)^2")
    return violations


STRONG_BOUND_EXCEPTIONS = frozenset({4, 7, 10})


@dataclass(frozen=True)
class StrongBoundStatus:
    holds: bool
    # "exact-value" (s <= 5), "known-exception" (4, 7, 10), or for s >= 6
    # "closed-form" (plane_degeneration_bound) or "algorithm-L" (the loop)
    method: str


def strong_sqrt_check(s: int, tau: RationalLike) -> StrongBoundStatus:
    """Is the bound floor(sqrt(2.5 s)) certified for this s?

    s = 4, 7 and 10 are the known exceptions (for s = 4 the bound is simply
    false; for 7 and 10 it is open).  The other s <= 5 are decided by their
    exact constants, which the loop, certifying only strict separations,
    does not reach.  Every s >= 6 follows one rule: with delta =
    floor(sqrt(2.5 s)) = isqrt(5s // 2), the closed form decides when
    plane_degeneration_bound(s) >= delta, and otherwise the degeneration
    loop at delta does.  Both are proved lower bounds, so the rule is sound
    for every s; a False answer from the loop means "not certified by this
    method", not a disproof.

    The closed form decides every s >= 685, so the loop runs on finitely
    many s; the tests find exactly 47 besides the exceptions, all <= 411.
    Proof: for s >= 685 the pair q = isqrt(5s // 2) = delta,
    k = isqrt(2s // 5) meets q*k <= s and (q - k)^2 <= s - k, so
    plane_degeneration_bound(s) >= delta.

      * q*k <= s for every s, since q <= sqrt(2.5s) and k <= sqrt(0.4s).
      * (q - k)^2 <= s - k.  Here 0 <= k <= q <= sqrt(2.5s), k <= sqrt(0.4s),
        and k > sqrt(floor(2s/5)) - 1 >= sqrt(0.4s - 0.8) - 1, as
        floor(2s/5) >= 0.4s - 0.8.  So (q - k)^2 < (sqrt(2.5s) -
        sqrt(0.4s - 0.8) + 1)^2 and s - k >= s - sqrt(0.4s): the condition
        holds wherever

            h(s) = s - sqrt(0.4s) - (sqrt(2.5s) - sqrt(0.4s - 0.8) + 1)^2 >= 0.

        With u = sqrt(s), e = sqrt(0.4)u - sqrt(0.4u^2 - 0.8)
        = 0.8/(sqrt(0.4)u + sqrt(0.4u^2 - 0.8)) and
        sqrt(2.5) - sqrt(0.4) = sqrt(0.9),

            h = 0.1u^2 - (sqrt(0.4) + 2 sqrt(0.9))u - 2 sqrt(0.9) u*e - (1 + e)^2.

        Both e and u*e fall as u grows, and the first two terms rise for
        u >= 5(sqrt(0.4) + 2 sqrt(0.9)) ~ 12.65, i.e. s >= 161, so h
        increases on s >= 161.  Exact rational bounds on its square roots
        give h(685) > 0 > h(684) (h is about 0.038 and -0.013 there), so
        h(s) >= 0, and the condition holds, for every s >= 685.
    """
    if type(s) is not int or s < 1:
        check_line_count(s)
    if s in STRONG_BOUND_EXCEPTIONS:
        return StrongBoundStatus(False, "known-exception")
    delta = math.isqrt(5 * s // 2)
    if s <= 5:
        return StrongBoundStatus(small_waldschmidt(s) >= delta, "exact-value")
    if plane_degeneration_bound(s) >= delta:
        return StrongBoundStatus(True, "closed-form")
    answer = certify_lower_bound(delta, s, as_rational(tau)).answer
    return StrongBoundStatus(answer, "algorithm-L")
