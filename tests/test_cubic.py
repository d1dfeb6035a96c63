import math
from fractions import Fraction as F

import pytest

import helpers
from waldlines.cubic import AsymptoticCubic, half_at_most_e_s, largest_root

EPS = F(1, 10**6)
# precision 1 is the width of an integer bracket, so it tells a width test
# `>= precision` from `> precision`
PRECISIONS = (F(2), F(1), F(1, 3), F(3, 7), F(1, 10), F(1, 1000), EPS)
# (s, k) reaching each branch of largest_root
NO_ROOT = ((1, 1), (2, 1))
# a zero minimum: the double root sqrt(s) is found as an integer root
EXACT_MINIMUM = ((1, 0), (4, 4))
INTEGER_ROOT = ((2, 0), (7, 11))
ZERO_LEFT_OF_DIP = ((5, 6), (6, 8), (11, 25))
NO_INTEGER_SIGN_CHANGE = ((12, 29),)
RIGHT_OF_DIP = ZERO_LEFT_OF_DIP + NO_INTEGER_SIGN_CHANGE


def bracket(root):
    return None if root is None else (root.lo, root.hi)


def assert_matches_oracle(s: int, k: int, precision: F) -> None:
    cubic = AsymptoticCubic(s, k)
    ours, oracle = largest_root(cubic, precision), helpers.reference_largest_root(cubic, precision)
    assert bracket(ours) == bracket(oracle), (s, k, precision)


def approx(cubic: AsymptoticCubic, precision=EPS) -> F:
    root = largest_root(cubic, precision)
    assert root is not None
    return root.midpoint


class TestLargestRoot:
    def test_exact_double_root_at_one(self):
        # t^3 - 3t + 2 = (t - 1)^2 (t + 2)
        root = largest_root(AsymptoticCubic(1), EPS)
        assert root.lo == root.hi == 1

    def test_exact_root_at_two(self):
        # t^3 - 6t + 4 = (t - 2)(t^2 + 2t - 2)
        root = largest_root(AsymptoticCubic(2), EPS)
        assert root.lo == root.hi == 2

    def test_exact_double_root_with_correction(self):
        # s = r^2, k = r^3 - r^2: t^3 - 3r^2 t + 2r^3 = (t - r)^2 (t + 2r),
        # e.g. t^3 - 12t + 16 = (t - 2)^2 (t + 4)
        for r in range(1, 61):
            root = largest_root(AsymptoticCubic(r * r, r**3 - r * r), EPS)
            assert root.lo == root.hi == r, r

    def test_no_root_above_one(self):
        # t^3 - 6t + 6 only vanishes near -2.85
        assert largest_root(AsymptoticCubic(2, 1), EPS) is None

    def test_bracket_is_a_sign_change(self):
        # evaluated with the public exact evaluator, independently of both
        # the integer bisection and its Fraction oracle
        cases = [(s, k) for s in (3, 7, 10, 100, 500) for k in (0, 1, s // 2, s)]
        for s, k in cases + list(RIGHT_OF_DIP):
            cubic = AsymptoticCubic(s, k)
            root = largest_root(cubic, EPS)
            if root is None:
                assert (s, k) not in RIGHT_OF_DIP
                continue
            assert root.hi - root.lo < EPS
            if root.lo == root.hi:
                assert cubic(root.lo) == 0
            else:
                assert cubic(root.lo) < 0 < cubic(root.hi)
            assert root.hi * root.hi >= s  # on the increasing branch

    def test_matches_the_fraction_oracle(self):
        for s in range(1, 301):
            for k in {0, 1, s // 2, s, 2 * s}:
                for precision in PRECISIONS:
                    assert_matches_oracle(s, k, precision)

    def test_matches_the_fraction_oracle_at_high_precision(self):
        # about 133 halvings of a unit bracket, all replaced by Newton steps
        for s in range(1, 61):
            for k in (0, 1, s):
                assert_matches_oracle(s, k, F(1, 10**40))

    def test_matches_the_oracle_on_every_branch(self):
        for s, k in NO_ROOT:
            assert largest_root(AsymptoticCubic(s, k), EPS) is None
        for s, k in EXACT_MINIMUM + INTEGER_ROOT:
            root = largest_root(AsymptoticCubic(s, k), EPS)
            assert root.lo == root.hi and root.lo.denominator == 1
        for s, k in NO_ROOT + EXACT_MINIMUM + INTEGER_ROOT + RIGHT_OF_DIP:
            for precision in PRECISIONS:
                assert_matches_oracle(s, k, precision)

    def test_known_decimals(self):
        assert abs(approx(AsymptoticCubic(10)) - F("5.107249")) <= F(1, 10**5)
        assert abs(approx(AsymptoticCubic(7)) - F("4.203503")) <= F(1, 10**5)
        assert abs(approx(AsymptoticCubic(100, 225)) - F("16.114")) <= F(1, 10**3)

    def test_correction_only_lowers_the_root(self):
        for s in (5, 10, 50, 100):
            plain = approx(AsymptoticCubic(s))
            for k in (1, s // 2, 2 * s):
                shifted = largest_root(AsymptoticCubic(s, k), EPS)
                if shifted is not None:
                    assert shifted.midpoint <= plain + EPS

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AsymptoticCubic(0)
        with pytest.raises(ValueError):
            AsymptoticCubic(3, -1)
        with pytest.raises(ValueError):
            largest_root(AsymptoticCubic(3), F(0))


class TestHalfAtMostEs:
    def test_every_integer_near_twice_the_root(self):
        # each integer w within 3 of 2 e_s falls outside a 10^-40 enclosure
        # [lo, hi] of e_s when halved, and the exact check must side with it;
        # so must the enclosure's own ends, doubled, as rational w
        for s in range(1, 2001):
            root = largest_root(AsymptoticCubic(s), F(1, 10**40))
            lo, hi = root.lo, root.hi
            for w in range(math.floor(2 * lo) - 3, math.ceil(2 * hi) + 4):
                assert w <= 2 * lo or w > 2 * hi, (s, w)
                assert half_at_most_e_s(w, s) == (w <= 2 * lo), (s, w)
            assert half_at_most_e_s(2 * lo, s), s
            assert half_at_most_e_s(2 * hi, s) == (lo == hi), s

    def test_double_root_at_sqrt_s(self):
        # s = 1: t^3 - 3t + 2 = (t - 1)^2 (t + 2), so e_1 = 1 = sqrt(s), where
        # the cubic touches zero; w = 2 sits exactly there
        assert half_at_most_e_s(2, 1) and half_at_most_e_s(F(2), 1)
        assert not half_at_most_e_s(F(2) + F(1, 10**40), 1)
        assert not half_at_most_e_s(3, 1)
        assert all(half_at_most_e_s(w, 1) for w in (-100, -3, 0, 1, F(3, 2)))
