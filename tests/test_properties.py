"""Randomized and exhaustive property suites.

The named suites in helpers.py are the heavy ones; the acceptance gate runs
them too.  The hypothesis tests below cover the smaller algebraic contracts.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from waldlines.cubic import largest_root
from waldlines.plane import (
    Move,
    apply_cremona,
    cremona_k,
    merge_four,
    normalize,
    reference_reduction,
)

TAU = F(1, 1000)


@pytest.mark.parametrize("name", sorted(helpers.ALL_SUITES))
def test_suite(name):
    ok, detail = helpers.ALL_SUITES[name]()
    assert ok, f"{name}: {detail}"


class TestNormalizeContracts:
    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(300):
            sys = helpers.random_plane_system(rng)
            assert normalize(sys, TAU) == sys

    def test_sorted_non_increasing(self):
        rng = random.Random(8)
        for _ in range(300):
            sys = helpers.random_plane_system(rng)
            vals = [lf(TAU) for lf, n in sys.groups for _ in range(n)]
            assert vals == sorted(vals, reverse=True)
            assert all(v > 0 for v in vals)


class TestCremonaContracts:
    def test_bookkeeping(self):
        # degree changes by exactly k; the three leading units change by k
        rng = random.Random(9)
        for _ in range(300):
            sys = helpers.random_plane_system(rng)
            if sys.mult_count < 3:
                continue
            k = cremona_k(sys)
            moved = apply_cremona(sys, k)
            assert moved.degree == sys.degree + k
            assert moved.mult_count == sys.mult_count
            lead = [lf for lf, n in sys.groups for _ in range(n)][:3]
            moved_lead = [lf for lf, n in moved.groups for _ in range(n)][:3]
            assert moved_lead == [lf + k for lf in lead]

    def test_reduction_strictly_shrinks_at_tau(self):
        # each Cremona move lowers the degree's value at tau by |k(tau)|
        res = reference_reduction(helpers.random_threshold_input(random.Random(10)), TAU)
        for a, b in zip(res.steps, res.steps[1:]):
            if a.move is Move.CREMONA:
                assert b.system.degree(TAU) == a.system.degree(TAU) + a.k(TAU)
                assert a.k(TAU) < 0


class TestMergeContracts:
    def test_merge_preserves_tau_mass_of_group(self):
        rng = random.Random(11)
        seen = 0
        for _ in range(1000):
            mults = []
            for _ in range(rng.randint(1, 4)):
                mults.extend([helpers.random_linform(rng)] * rng.randint(1, 6))
            sys = normalize(
                helpers.plane_system(helpers.random_linform(rng), mults), TAU
            )
            four = [lf for lf, n in sys.groups if n >= 4]
            merged = merge_four(sys, TAU)
            if merged is None:
                assert not four
                continue
            seen += 1
            assert merged.mult_count == sys.mult_count - 3
            assert merged.degree == sys.degree
        assert seen > 300


small_s = st.integers(min_value=1, max_value=120)


class TestBoundFacts:
    @settings(max_examples=200, deadline=None)
    @given(small_s)
    def test_sqrt_bound_within_one_of_true_sqrt(self, s):
        q = helpers.sqrt_lower_bound(s)
        assert q * q <= 2 * s - 1 < (q + 1) ** 2

    def test_factorable_roots_exact(self):
        assert largest_root(1, F(1, 10)).lo == 1
        assert largest_root(2, F(1, 10)).lo == 2
