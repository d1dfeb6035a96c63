import hashlib
import math
from fractions import Fraction as F

import pytest

import helpers
from waldlines.cubic import _bisect, half_at_most_e_s, largest_root

EPS = F(1, 10**6)
# precision 1 is the width of an integer bracket, so it tells a width test
# `>= precision` from `> precision`
PRECISIONS = (F(2), F(1), F(1, 3), F(3, 7), F(1, 10), F(1, 1000), EPS)
# s reaching each branch of largest_root: an integer root, the double root
# at the zero minimum or a simple one, and Newton steps in a unit bracket
EXACT_MINIMUM = (1,)
INTEGER_ROOT = (2,)
NEWTON = (3, 7, 10, 100)
# sha256 over "s lo hi" lines of largest_root for s = 1..20000 at 10^-6,
# then at 1/1000, recorded before the k family was deleted
BRACKET_DIGEST = "c6a3f8394b25e7f74b6d1d5e49ecfbdec3fa4fadcbc91b0b734bcc80e5a5397b"


def assert_matches_oracle(s: int, precision: F) -> None:
    ours, oracle = largest_root(s, precision), helpers.reference_largest_root(s, precision)
    assert (ours.lo, ours.hi) == (oracle.lo, oracle.hi), (s, precision)


def approx(s: int, precision=EPS) -> F:
    return largest_root(s, precision).midpoint


class TestLargestRoot:
    def test_exact_double_root_at_one(self):
        # t^3 - 3t + 2 = (t - 1)^2 (t + 2)
        root = largest_root(1, EPS)
        assert root.lo == root.hi == 1

    def test_exact_root_at_two(self):
        # t^3 - 6t + 4 = (t - 2)(t^2 + 2t - 2)
        root = largest_root(2, EPS)
        assert root.lo == root.hi == 2

    def test_bracket_is_a_sign_change(self):
        # evaluated with the tests' own evaluator, independently of both
        # the integer bisection and its Fraction oracle
        for s in (1, 2, 3, 7, 10, 100, 500, 10**6):
            root = largest_root(s, EPS)
            assert root.hi - root.lo < EPS
            if root.lo == root.hi:
                assert helpers.cubic_value(s, root.lo) == 0
            else:
                assert helpers.cubic_value(s, root.lo) < 0 < helpers.cubic_value(s, root.hi)
            assert root.hi * root.hi >= s  # on the increasing branch

    def test_matches_the_fraction_oracle(self):
        for s in range(1, 301):
            for precision in PRECISIONS:
                assert_matches_oracle(s, precision)

    def test_matches_the_fraction_oracle_at_high_precision(self):
        # about 133 halvings of a unit bracket, all replaced by Newton steps
        for s in range(1, 61):
            assert_matches_oracle(s, F(1, 10**40))

    def test_matches_the_oracle_on_every_branch(self):
        for s in EXACT_MINIMUM + INTEGER_ROOT:
            root = largest_root(s, EPS)
            assert root.lo == root.hi and root.lo.denominator == 1
        for s in EXACT_MINIMUM + INTEGER_ROOT + NEWTON:
            for precision in PRECISIONS:
                assert_matches_oracle(s, precision)

    def test_brackets_are_pinned(self):
        h = hashlib.sha256()
        for precision in (EPS, F(1, 1000)):
            for s in range(1, 20001):
                root = largest_root(s, precision)
                h.update(f"{s} {root.lo} {root.hi}\n".encode())
        assert h.hexdigest() == BRACKET_DIGEST

    def test_known_decimals(self):
        assert abs(approx(10) - F("5.107249")) <= F(1, 10**5)
        assert abs(approx(7) - F("4.203503")) <= F(1, 10**5)

    def test_correction_root_of_c5(self):
        # t^3 - 300t + 650, the root C5 reads; the bracket is the one the
        # cubic with a 2k term gave at s = 100, k = 225 before that family
        # was deleted
        root = _bisect(100, 2 * 100 + 2 * 225, 16, EPS)
        assert (root.lo, root.hi) == (F(16896803, 1048576), F(4224201, 262144))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            largest_root(0, EPS)
        with pytest.raises(ValueError):
            largest_root(3, F(0))


class TestHalfAtMostEs:
    def test_every_integer_near_twice_the_root(self):
        # each integer w within 3 of 2 e_s falls outside a 10^-40 enclosure
        # [lo, hi] of e_s when halved, and the exact check must side with it;
        # so must the enclosure's own ends, doubled, as rational w
        for s in range(1, 2001):
            root = largest_root(s, F(1, 10**40))
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
