import hashlib
import math
import random
from fractions import Fraction as F

import pytest

import helpers
from waldlines import space
from waldlines.cubic import AsymptoticCubic, largest_root
from waldlines.plane import ThresholdInput, associate_system, reference_reduction
from waldlines.space import (
    DegenerationResult,
    DegenerationStep,
    LMove,
    SpaceSystem,
    best_bound,
    certify_lower_bound,
    format_space_system,
    replay_degeneration,
)

TAU = F(1, 1000)

# best_bound(s, 1/1000, 1/1000), as returned by the downward scan; the
# acceptance test C6 pins the same values.
PINNED_BEST = {
    7: F(3833, 1000),
    10: F(2397, 500),
    20: F(7069, 1000),
    50: F(11569, 1000),
}


def upper_index(s: int, grid: F) -> int:
    """Index of the conjectural upper bound e_s rounded up to the grid."""
    root = largest_root(AsymptoticCubic(s), min(grid, F(1, 1000)))
    return -(-root.hi // grid)


def scan_best_bound(s: int, tau: F, grid: F) -> F:
    """Oracle for best_bound: the first certified grid point scanning
    downward from e_s (rounded up to the grid) to 1, else 0."""
    delta = upper_index(s, grid) * grid
    while delta > 1:
        if certify_lower_bound(delta, s, tau).answer:
            return delta
        delta -= grid
    return F(0)


class TestRestrictToQuadric:
    def test_plane_data_at_zero(self):
        # at t = 0 the associated system is (2d - mu; d, d - mu, 1^(2p))
        inp = ThresholdInput(F(7), (F(1),) * 5, 15)
        sys = associate_system(inp)
        assert sys.degree(0) == 9
        vals = [lf(0) for lf, n in sys.groups for _ in range(min(n, 2))]
        assert vals[:2] == [7, 2]
        assert sys.mult_count == 2 + 30

    def test_empty_specialization(self):
        sys = associate_system(ThresholdInput(F(5), (), 0))
        assert sys.degree.a == 10 and sys.degree.b == -4
        assert sys.groups == ((sys.groups[0][0], 2),)
        assert sys.groups[0][0].a == 5 and sys.groups[0][0].b == -2


# The worked degeneration of (4; 1^8): every state on arrival at the exit
# check, the threshold computed there, and the move taken.
GOLDEN_DEGENERATION = [
    ("(4; | 1^8)", "0", LMove.SPECIALIZE),
    ("(4; 1 | 1^7)", "0", LMove.SPECIALIZE),
    ("(4; 1,1 | 1^6)", "0", LMove.SPECIALIZE),
    ("(4; 1,1,1 | 1^5)", "4/7", LMove.SUBTRACT),
    ("(20/7; 3/7,3/7,3/7 | 1^5)", "3/14", LMove.SUBTRACT),
    ("(17/7; 3/14,3/14,3/14 | 1^5)", "27/224", LMove.SUBTRACT),
    ("(35/16; 3/32,3/32,3/32 | 1^5)", "135/2464", LMove.SUBTRACT),
    ("(160/77; 3/77,3/77,3/77 | 1^5)", "115/4928", LMove.SUBTRACT),
    ("(65/32; 1/64,1/64,1/64 | 1^5)", "49/5184", LMove.SUBTRACT),
    ("(163/81; 1/162,1/162,1/162 | 1^5)", "751/200394", LMove.SUBTRACT),
    ("(2480/1237; 3/1237,3/1237,3/1237 | 1^5)", "11424/6240665", LMove.SUBTRACT),
    ("(10096/5045; 3/5045,3/5045,3/5045 | 1^5)", "0", LMove.SPECIALIZE),
    ("(10096/5045; 3/5045,3/5045,3/5045,1 | 1^4)", "3/5045", LMove.SUBTRACT),
    ("(2; 5042/5045 | 1^4)", "5042/5045", LMove.SUBTRACT),
    ("(6/5045; | 1^4)", None, LMove.TERMINATE_YES),
]


# sha256 over the JSON traces (helpers.degeneration_signature) of these
# runs, one line each, as computed by the kernel that re-sorted every group
# after each plane move and scaled by the lcm of all denominators.
GOLDEN_DIGEST_CASES = [(F(math.isqrt(5 * s // 2)), s) for s in range(11, 21)] + [
    (value + d, s) for s, value in PINNED_BEST.items() for d in (-TAU, TAU)
]
GOLDEN_DIGEST = "95e3f8059b541a6d0b39952137869825f6f1c42ef0b1d49bc70108cc8d92da53"


def trace(*rows) -> tuple[DegenerationStep, ...]:
    """Steps from (delta, specialized, p, t0, move) rows."""
    return tuple(DegenerationStep(SpaceSystem(d, qs, p), t0, move) for d, qs, p, t0, move in rows)


OVER = F(4, 7) + F(1, 10**12)  # past the threshold 4/7 at step 3 of (4; 1^8)
# name -> (answer, steps, the AssertionError replay_degeneration must raise)
FORGED = {
    # (29/10; 1 | 1) has threshold 0, and 29/10 exceeds alphahat(2) = 2
    "past-zero-threshold": (True, trace(
        (F(29, 10), (), 2, F(0), LMove.SPECIALIZE),
        (F(29, 10), (F(1),), 1, F(1), LMove.SUBTRACT),
        (F(9, 10), (), 1, None, LMove.TERMINATE_YES),
    ), "step 1: subtraction of 1 exceeds the threshold 0"),
    "past-threshold": (False, trace(
        *((F(4), (F(1),) * j, 8 - j, F(0), LMove.SPECIALIZE) for j in range(3)),
        (F(4), (F(1),) * 3, 5, OVER, LMove.SUBTRACT),
        (4 - 2 * OVER, (1 - OVER,) * 3, 5, None, LMove.TERMINATE_NO),
    ), "step 3: subtraction of .* exceeds the threshold 4/7"),
    "specialize-at-p0": (False, trace(
        (F(2), (), 1, F(0), LMove.SPECIALIZE),
        (F(2), (F(1),), 0, F(0), LMove.SPECIALIZE),
        (F(2), (F(1), F(1)), 0, F(0), LMove.TERMINATE_NO),
    ), "step 1: recorded successor diverges"),
    "bad-start": (True, trace((F(1, 2), (F(1),), 0, None, LMove.TERMINATE_YES)), "step 0: "),
}


class TestDegeneration:
    def test_golden_trace(self):
        res = certify_lower_bound(F(4), 8, TAU)
        assert res.answer is True
        assert len(res.steps) == len(GOLDEN_DEGENERATION)
        for step, (text, t0, move) in zip(res.steps, GOLDEN_DEGENERATION):
            assert format_space_system(step.system) == text
            assert step.t0 == (None if t0 is None else F(t0))
            assert step.move is move

    def test_golden_replay(self):
        assert replay_degeneration(certify_lower_bound(F(4), 8, TAU), TAU) == (F(4), 8)

    @pytest.mark.parametrize("name", sorted(FORGED))
    def test_replay_rejects_forged_trace(self, name):
        answer, steps, message = FORGED[name]
        with pytest.raises(AssertionError, match=message):
            replay_degeneration(DegenerationResult(answer, steps), TAU)

    def test_thresholds_match_reference_reduction(self):
        # the replay re-derives t0 with the integer kernel; sample the
        # Fraction reference on the deep states of a large-s trace
        res = certify_lower_bound(PINNED_BEST[50], 50, TAU)
        subtract = [st for st in res.steps if st.move is LMove.SUBTRACT]
        for st in random.Random(50).sample(subtract, 10):
            inp = ThresholdInput(st.system.delta, st.system.specialized, st.system.p)
            assert reference_reduction(inp, TAU).t0 == st.t0

    def test_sub_tau_subtraction_removes_lines(self):
        # the step at t0 = 3/5045 < tau is taken because t0 equals the least
        # specialized multiplicity; it must drop the three zeroed entries
        res = certify_lower_bound(F(4), 8, TAU)
        before = res.steps[12]
        after = res.steps[13]
        assert before.t0 == F(3, 5045) and before.t0 < TAU
        assert before.move is LMove.SUBTRACT
        assert after.system.specialized == (F(5042, 5045),)

    def test_large_delta_is_refused(self):
        res = certify_lower_bound(F(10), 2, TAU)
        assert res.answer is False
        assert res.steps[-1].move is LMove.TERMINATE_NO

    def test_answers_are_sound_for_known_small_s(self):
        # exact values: 1, 2, 2, 8/3, 10/3
        known = {1: F(1), 2: F(2), 3: F(2), 4: F(8, 3), 5: F(10, 3)}
        for s, cap in known.items():
            probe = cap + F(1, 4)
            assert certify_lower_bound(probe, s, TAU).answer is False

    def test_trace_length_bound(self):
        # subtractions either shrink delta by 2*tau or remove a specialized
        # line, so traces cannot be longer than delta/(2 tau) + 2s + 2
        for delta, s in ((F(4), 8), (F(3), 5), (F(5), 9)):
            res = certify_lower_bound(delta, s, TAU)
            assert len(res.steps) <= delta / (2 * TAU) + 2 * s + 2

    def test_replay_rejects_empty_trace(self):
        with pytest.raises(AssertionError, match="empty trace"):
            replay_degeneration(DegenerationResult(True, ()), TAU)

    @pytest.mark.parametrize("s", range(1, 31))
    def test_specialized_never_decreases(self, s):
        # the loop reads the least and greatest specialized multiplicity off
        # the ends of the tuple
        for delta in (F(3, 2), F(math.isqrt(5 * s // 2)), upper_index(s, F(1, 10)) * F(1, 10)):
            for step in certify_lower_bound(delta, s, TAU).steps:
                qs = step.system.specialized
                assert list(qs) == sorted(qs), (delta, s)

    def test_golden_digest(self):
        h = hashlib.sha256()
        for delta, s in GOLDEN_DIGEST_CASES:
            h.update(helpers.degeneration_signature(delta, s, TAU).encode() + b"\n")
        assert h.hexdigest() == GOLDEN_DIGEST

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            certify_lower_bound(F(0), 5, TAU)
        with pytest.raises(ValueError):
            certify_lower_bound(F(4), 0, TAU)
        with pytest.raises(ValueError):
            certify_lower_bound(F(4), 5, F(0))
        with pytest.raises(ValueError):
            SpaceSystem(F(4), (F(0),), 2)


class TestBestBound:
    def test_small_s_certified_values(self):
        # coarse grid keeps this fast; every value is individually certified
        got = {s: best_bound(s, TAU, F(1, 100)) for s in range(1, 6)}
        assert got[1] == 0
        assert got[2] == F(133, 100)
        assert got[3] == F(199, 100)
        assert got[4] == F(133, 50)
        assert got[5] == F(311, 100)

    def test_never_exceeds_known_exact_values(self):
        known = {1: F(1), 2: F(2), 3: F(2), 4: F(8, 3), 5: F(10, 3)}
        for s, cap in known.items():
            assert best_bound(s, TAU, F(1, 100)) <= cap

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            best_bound(5, TAU, F(0))

    @pytest.mark.parametrize("s", range(2, 15))
    def test_bisection_equals_scan(self, s):
        assert best_bound(s, TAU, TAU) == scan_best_bound(s, TAU, TAU)

    def test_probe_count_is_logarithmic(self, monkeypatch):
        probes = []

        def counted(delta, *args, **kwargs):
            probes.append(delta)
            return certify_lower_bound(delta, *args, **kwargs)

        monkeypatch.setattr(space, "certify_lower_bound", counted)
        assert best_bound(7, TAU, TAU) == PINNED_BEST[7]
        assert len(set(probes)) == len(probes)
        assert len(probes) <= (upper_index(7, TAU) - 1 // TAU + 1).bit_length()

    @pytest.mark.parametrize("grid", [F(1, 7), F(3, 10), F(1, 3), F(2)])
    def test_odd_grids_equal_scan(self, grid):
        # 3/10 and 2 do not divide 1; s = 1 certifies nothing above 1
        got = {s: best_bound(s, TAU, grid) for s in range(1, 9)}
        assert got == {s: scan_best_bound(s, TAU, grid) for s in range(1, 9)}
        assert got[1] == 0
        assert all(type(v) is F for v in got.values())

    @pytest.mark.parametrize("s, samples", [(20, 25), (50, 10)])
    def test_down_set_audit(self, s, samples):
        # too slow to scan here: probe the pinned value +-3 grid points and a
        # seeded sample of (1, e_s]; "yes" must hold exactly up to the value
        value = PINNED_BEST[s]
        rng = random.Random(s)
        start = int(value / TAU)
        points = set(range(start - 3, start + 4))
        points |= set(rng.sample(range(1 // TAU + 1, upper_index(s, TAU) + 1), samples))
        for k in sorted(points):
            delta = k * TAU
            assert certify_lower_bound(delta, s, TAU).answer is (delta <= value), delta


class TestFormat:
    def test_empty_specialized(self):
        assert format_space_system(SpaceSystem(F(4), (), 8)) == "(4; | 1^8)"

    def test_single_general_line(self):
        assert format_space_system(SpaceSystem(F(2), (F(1, 2),), 1)) == "(2; 1/2 | 1)"

    def test_no_general_lines(self):
        assert format_space_system(SpaceSystem(F(2), (F(1),), 0)) == "(2; 1 | )"
