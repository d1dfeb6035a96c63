import functools
import math
from fractions import Fraction as F

import pytest

import helpers

from waldlines import bounds
from waldlines.bounds import (
    STRONG_BOUND_EXCEPTIONS,
    alpha_max,
    chudnovsky_bound,
    chudnovsky_verify,
    plane_degeneration_bound,
    small_waldschmidt,
    sqrt_lower_bound,
    square_specialization_bound,
    strong_sqrt_check,
)
from waldlines.cubic import half_at_most_e_s

TAU = F(1, 1000)

# Published integer rows for s = 10, 20, 50, 100, 200, 300, 400, 500.
TABLE_S = (10, 20, 50, 100, 200, 300, 400, 500)
SQRT_ROW = (4, 6, 9, 14, 19, 24, 28, 31)
SQUARE_ROW = (4, 6, 10, 14, 20, 24, 28, 31)
DEGENERATION_ROW = (4, 6, 10, 15, 22, 27, 31, 35)


# From the strong_sqrt_check docstring: plane_degeneration_bound(s) reaches
# floor(sqrt(2.5 s)) for every s from here on.
CLOSED_FORM_N0 = 685

# Every s in 6..100,000 where plane_degeneration_bound(s) < floor(sqrt(2.5 s)):
# the known exceptions 7 and 10, and the s that strong_sqrt_check leaves to
# the degeneration loop.
PLANE_SHORT = (
    7, 10, 15, 16, 17, 20, 26, 27, 33, 34, 35, 49, 50, 51, 52, 58, 59, 68,
    79, 80, 81, 82, 83, 103, 104, 105, 116, 117, 118, 145, 146, 147, 148, 149, 150,
    194, 195, 196, 197, 231, 232, 233, 292, 293, 294, 295, 296, 410, 411,
)


# The brute-force oracles try every pair (k, q) once, at the least s it is
# admissible for, and take running maxima over s.  q <= 2*sqrt(s) + 2 for
# every admissible pair of either condition, so the q range is complete.
BRUTE_S_MAX = 10_000


def _running_max(least_s_of_pairs, s_max: int) -> list[int]:
    """best[s] for 0 <= s <= s_max: the largest q of a pair (least_s, q) with
    least_s <= s, and at least 1."""
    best = [1] * (s_max + 1)
    for least_s, q in least_s_of_pairs:
        if least_s <= s_max:
            best[least_s] = max(best[least_s], q)
    for s in range(1, s_max + 1):
        best[s] = max(best[s], best[s - 1])
    return best


def brute_square_bounds(s_max: int) -> list[int]:
    # 1 <= k <= sqrt(s) and (q - k)^2 <= s - k^2: from s = k^2 + (q - k)^2 on
    q_max = 2 * math.isqrt(s_max) + 2
    return _running_max(
        ((k * k + (q - k) ** 2, q) for k in range(1, math.isqrt(s_max) + 1) for q in range(1, q_max + 1)),
        s_max,
    )


def brute_degeneration_bounds(s_max: int) -> list[int]:
    # q*k <= s and (q - k)^2 <= s - k: from s = max(q*k, (q - k)^2 + k) on;
    # the q loop stops where q*k alone passes s_max
    q_max = 2 * math.isqrt(s_max) + 2
    return _running_max(
        (
            (max(q * k, (q - k) ** 2 + k), q)
            for k in range(0, s_max + 1)
            for q in range(1, min(q_max, s_max // max(k, 1)) + 1)
        ),
        s_max,
    )


def brute_alpha_max(s: int) -> int:
    a = 1
    while (a + 3) * (a + 2) <= 6 * s:
        a += 1
    return a


@functools.cache
def doubled_greatest_bounds() -> tuple[int, ...]:
    """Twice the greatest closed-form lower bound at each s = 1..100,000, as
    verify invariants takes it: doubled, (alpha_max(s) + 1)/2 is an integer."""
    return tuple(
        max(
            2 * square_specialization_bound(s),
            2 * sqrt_lower_bound(s),
            2 * plane_degeneration_bound(s),
            alpha_max(s) + 1,
        )
        for s in range(1, 100_001)
    )


class TestSquareSpecialization:
    def test_published_row(self):
        assert [square_specialization_bound(s) for s in TABLE_S] == list(SQUARE_ROW)

    def test_small_values(self):
        assert square_specialization_bound(2) == 2
        assert square_specialization_bound(1) == 1

    def test_against_brute_force(self):
        brute = brute_square_bounds(BRUTE_S_MAX)
        for s in range(1, BRUTE_S_MAX + 1):
            assert square_specialization_bound(s) == brute[s], s


class TestSqrtBound:
    def test_published_row(self):
        assert [sqrt_lower_bound(s) for s in TABLE_S] == list(SQRT_ROW)

    def test_small_values(self):
        assert sqrt_lower_bound(1) == 1
        assert sqrt_lower_bound(100) == 14

    def test_is_exact_integer_sqrt(self):
        for s in range(1, 2000):
            q = sqrt_lower_bound(s)
            assert q * q <= 2 * s - 1 < (q + 1) * (q + 1)


class TestPlaneDegeneration:
    def test_published_row(self):
        assert [plane_degeneration_bound(s) for s in TABLE_S] == list(DEGENERATION_ROW)

    def test_witnesses(self):
        assert plane_degeneration_bound(200) == 22  # k = 9
        assert plane_degeneration_bound(100) == 15  # k = 6
        assert plane_degeneration_bound(1) == 1

    def test_against_brute_force(self):
        brute = brute_degeneration_bounds(BRUTE_S_MAX)
        for s in range(1, BRUTE_S_MAX + 1):
            assert plane_degeneration_bound(s) == brute[s], s


class TestAlphaMax:
    def test_examples(self):
        assert alpha_max(10) == 6
        assert alpha_max(100) == 23
        assert alpha_max(1) == 1
        assert alpha_max(20) == 9

    def test_against_brute_force(self):
        for s in range(1, 500):
            assert alpha_max(s) == brute_alpha_max(s)

    def test_window_and_monotonicity(self):
        prev = 0
        for s in range(1, 10**5 + 1):
            a = alpha_max(s)
            assert (a + 2) * (a + 1) <= 6 * s < (a + 3) * (a + 2)
            assert a >= prev
            prev = a


class TestChudnovsky:
    def test_published_row_merge(self):
        # the published row prints 6 at s = 20; the derivation yields 5 and
        # the mismatch is surfaced as a report flag, not silently patched
        expected = {10: F(7, 2), 50: F(8), 100: F(12), 200: F(17),
                    300: F(41, 2), 400: F(24), 500: F(27)}
        for s, v in expected.items():
            assert chudnovsky_bound(s) == v
        assert chudnovsky_bound(20) == F(5)

    def test_verify_sweep_clean(self):
        assert chudnovsky_verify(1000) == []

    def test_verify_matches_the_double_loop(self):
        assert chudnovsky_verify(3000) == helpers.reference_chudnovsky_verify(3000)

    def test_violation_messages_match_the_oracle(self, monkeypatch):
        # the best closed form set to (a + 1) // 2 for a = alpha_max(s), less
        # one where 3 divides s: for odd a that is (a + 1)/2 itself, a pass at
        # the boundary, or one below it; for even a, 1/2 below.  The sqrt
        # bound falls short everywhere, so the other two decide.
        def weak(s: int) -> int:
            return (alpha_max(s) + 1) // 2 - (s % 3 == 0)

        def weaker(s: int) -> int:
            return weak(s) - 1

        for name, bound in (("sqrt_lower_bound", weaker), ("square_specialization_bound", weak),
                            ("plane_degeneration_bound", weak)):
            monkeypatch.setattr(bounds, name, bound)
            monkeypatch.setattr(helpers, name, bound)
        got = chudnovsky_verify(300)
        assert got == helpers.reference_chudnovsky_verify(300)
        assert "s=10: best closed-form bound 3 < 7/2" in got  # a = 6
        assert "s=12: best closed-form bound 3 < 4" in got  # a = 7
        assert not any(v.startswith("s=14:") for v in got)  # a = 7, have = 4

    def test_tail_proof(self):
        # what the chudnovsky_verify docstring proves, on a finite range:
        # the sqrt bound alone reaches
        # (alpha_max(s) + 1)/2 for s >= 20, and below 20 fails only at s = 2
        assert all(2 * math.isqrt(2 * s - 1) >= alpha_max(s) + 1 for s in range(20, 100_001))
        assert [s for s in range(1, 20) if 2 * math.isqrt(2 * s - 1) < alpha_max(s) + 1] == [2]

    def test_e_s_tail_proof(self):
        # what the cubic.half_at_most_e_s docstring proves, in integers: from
        # s = 20 on, every bound is at most phi*sqrt(s) < sqrt(3s) - 1/2 < e_s.
        # w/2 <= phi*sqrt(s) iff w - sqrt(s) <= sqrt(5s), iff w^2 <= 4s or
        # (w^2 - 4s)^2 <= 4w^2 s
        for s, w in enumerate(doubled_greatest_bounds(), start=1):
            assert w * w <= 4 * s or (w * w - 4 * s) ** 2 <= 4 * w * w * s, s
        # the cubic at sqrt(3s) - 1/2 is -s + (3/4)sqrt(3s) - 1/8 < 0 iff
        # (8s + 1)^2 > 108s, which fails only at s = 1
        assert [s for s in range(1, 100_001) if (8 * s + 1) ** 2 <= 108 * s] == [1]
        # phi*sqrt(s) <= sqrt(3s) - 1/2 from s = 20 on, and not at 19.  Times
        # 2n these are n*sqrt(s) + n*sqrt(5s) and 2n*sqrt(3s) - n, and each
        # n*sqrt(x) is rounded to an integer the way that makes the claim harder
        n = 10**6

        def down(x):
            return math.isqrt(n * n * x)

        def up(x):
            return math.isqrt(n * n * x - 1) + 1

        assert all(up(s) + up(5 * s) <= 2 * down(3 * s) - n for s in range(20, 100_001))
        assert down(19) + down(5 * 19) > 2 * up(3 * 19) - n

    def test_every_bound_at_most_e_s(self):
        # the exact verdict of verify invariants holds at every s <= 100,000;
        # with the tail proof, at every s
        assert all(half_at_most_e_s(w, s) for s, w in enumerate(doubled_greatest_bounds(), start=1))

    def test_s2_needs_square_bound(self):
        assert sqrt_lower_bound(2) == 1
        assert square_specialization_bound(2) == 2
        assert chudnovsky_bound(2) == F(3, 2)


class TestSmallValues:
    def test_known_values(self):
        assert small_waldschmidt(4) == F(8, 3)
        assert small_waldschmidt(1) == 1
        assert small_waldschmidt(5) == F(10, 3)

    @pytest.mark.parametrize("s", [0, 6, -3, 100])
    def test_out_of_range(self, s):
        with pytest.raises(ValueError):
            small_waldschmidt(s)


class TestStrongBound:
    def test_exceptions(self):
        assert STRONG_BOUND_EXCEPTIONS == {4, 7, 10}
        status = strong_sqrt_check(4, TAU)
        assert status.holds is False and status.method == "known-exception"
        # the s = 4 exception is genuine: (8/3)^2 = 64/9 < 10 = 2.5 * 4
        assert small_waldschmidt(4) ** 2 < 10

    def test_closed_form_threshold(self):
        for s in (490, 491, 1000):
            assert plane_degeneration_bound(s) >= math.isqrt(5 * s // 2)
        status = strong_sqrt_check(490, TAU)
        assert status.holds and status.method == "closed-form"

    def test_closed_form_below_the_proved_range(self):
        # the docstring proves the closed form for every s >= 685; the s
        # below it down to 490, checked exhaustively
        assert all(plane_degeneration_bound(s) >= math.isqrt(5 * s // 2) for s in range(490, CLOSED_FORM_N0))

    def test_where_the_closed_form_falls_short(self):
        short = [s for s in range(6, 100_001) if plane_degeneration_bound(s) < math.isqrt(5 * s // 2)]
        assert short == list(PLANE_SHORT)

    def test_closed_form_proof_threshold(self):
        # the docstring's h(s) = s - sqrt(0.4s) - (sqrt(2.5s) - sqrt(0.4s - 0.8) + 1)^2
        # changes sign between 684 and 685, bounded with rational square roots
        scale = 10**12

        def root(x: F) -> tuple[F, F]:
            r = math.isqrt(math.floor(x * scale * scale))
            return F(r, scale), F(r + 1, scale)

        def h_bounds(s: int) -> tuple[F, F]:
            a_lo, a_hi = root(F(2, 5) * s)
            b_lo, b_hi = root(F(5, 2) * s)
            c_lo, c_hi = root(F(2, 5) * s - F(4, 5))
            return s - a_hi - (b_hi - c_lo + 1) ** 2, s - a_lo - (b_lo - c_hi + 1) ** 2

        assert h_bounds(CLOSED_FORM_N0)[0] > 0
        assert h_bounds(CLOSED_FORM_N0 - 1)[1] < 0

    def test_degeneration_route(self):
        status = strong_sqrt_check(15, TAU)
        assert status.holds and status.method == "algorithm-L"
        assert math.isqrt(5 * 15 // 2) == 6 > plane_degeneration_bound(15)

    def test_rejects_bad_s(self):
        with pytest.raises(ValueError):
            strong_sqrt_check(0, TAU)
        # tau is read before the exact-value, exception and closed-form
        # routes, which run no loop
        with pytest.raises(ValueError, match="tau must be positive"):
            strong_sqrt_check(40, -1)
        with pytest.raises(ValueError):
            strong_sqrt_check(40, "garbage")
        for tau in (0.5, None):
            with pytest.raises(TypeError):
                strong_sqrt_check(40, tau)
        with pytest.raises(TypeError):
            strong_sqrt_check(3, None)
