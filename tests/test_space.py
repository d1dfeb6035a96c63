import fractions
import hashlib
import math
import random
import sys
from collections import Counter
from fractions import Fraction as F

import pytest

import helpers
from helpers import format_space_system, l_step_to_json
from waldlines import bounds, plane, space
from waldlines.cubic import largest_root
from waldlines.plane import associate_system, quadric_threshold, reference_reduction
from waldlines.report import build_report
from waldlines.space import (
    DegenerationResult,
    LMove,
    SpaceSystem,
    best_bound,
    certify_lower_bound,
    rendered_steps,
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

# every function that takes a line count s, called with s
LINE_COUNT_TAKERS = {
    "certify_lower_bound": lambda s: certify_lower_bound(F(4), s, TAU),
    "best_bound": lambda s: best_bound(s, TAU, TAU),
    "largest_root": lambda s: largest_root(s, TAU),
    "build_report": lambda s: build_report(s, TAU, None),
    "square_specialization_bound": bounds.square_specialization_bound,
    "sqrt_lower_bound": bounds.sqrt_lower_bound,
    "plane_degeneration_bound": bounds.plane_degeneration_bound,
    "alpha_max": bounds.alpha_max,
    "chudnovsky_bound": bounds.chudnovsky_bound,
    "small_waldschmidt": bounds.small_waldschmidt,
    "chudnovsky_verify": bounds.chudnovsky_verify,
    "strong_sqrt_check": lambda s: bounds.strong_sqrt_check(s, TAU),
}


def upper_index(s: int, grid: F) -> int:
    """Index of the conjectural upper bound e_s rounded up to the grid."""
    root = largest_root(s, min(grid, F(1, 1000)))
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
        inp = SpaceSystem(F(7), (F(1),) * 5, 15)
        sys = associate_system(inp)
        assert sys.degree(0) == 9
        vals = [lf(0) for lf, n in sys.groups for _ in range(min(n, 2))]
        assert vals[:2] == [7, 2]
        assert sys.mult_count == 2 + 30

    def test_empty_specialization(self):
        sys = associate_system(SpaceSystem(F(5), (), 0))
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
GOLDEN_MOVES = tuple((move, None if t0 is None else F(t0)) for _, t0, move in GOLDEN_DEGENERATION)


# sha256 over the JSON traces (helpers.degeneration_signature) of these
# runs, one line each, as computed by the kernel that re-sorted every group
# after each plane move and scaled by the lcm of all denominators.
GOLDEN_DIGEST_CASES = [(F(math.isqrt(5 * s // 2)), s) for s in range(11, 21)] + [
    (value + d, s) for s, value in PINNED_BEST.items() for d in (-TAU, TAU)
]
GOLDEN_DIGEST = "95e3f8059b541a6d0b39952137869825f6f1c42ef0b1d49bc70108cc8d92da53"

# The start systems of the benchmark's certify workload
# (perfbench/workloads.py, Certify), copied.
CERTIFY_CASES = [(F(math.isqrt(5 * s // 2)), s) for s in range(11, 61)] + [
    (F("11.569"), 50),
    (F("11.570"), 50),
    (F("16.636"), 100),
]


SPEC, SUB = LMove.SPECIALIZE, LMove.SUBTRACT
YES, NO = LMove.TERMINATE_YES, LMove.TERMINATE_NO
OVER = F(4, 7) + F(1, 10**12)  # past the threshold 4/7 at step 3 of (4; 1^8)
# name -> (answer, certificate, the AssertionError replay_degeneration must raise)
FORGED = {
    # (29/10; 1 | 1) has threshold 0, and 29/10 exceeds alphahat(2) = 2
    "past-zero-threshold": (True, (F(29, 10), 2, ((SPEC, F(0)), (SUB, F(1)), (YES, None))),
                            "step 1: subtraction of 1 exceeds the threshold 0"),
    "past-threshold": (False, (F(4), 8, ((SPEC, F(0)),) * 3 + ((SUB, OVER), (NO, None))),
                       "step 3: subtraction of .* exceeds the threshold 4/7"),
    "specialize-at-p0": (False, (F(2), 1, ((SPEC, F(0)), (SPEC, F(0)), (NO, F(0)))),
                         "step 1: specialization with no general line left"),
    "bad-start": (True, (F(0), 2, ((YES, None),)), "step 0: "),
    "empty": (True, (F(4), 8, ()), "empty certificate"),
    "terminal-before-end": (True, (F(4), 8, ((NO, F(0)), (YES, None))),
                            "step 0: terminal move before the end"),
    "subtract-None": (True, (F(2), 1, ((SUB, None), (YES, None))),
                      "step 0: subtraction of None from degree 2"),
    "subtract-nonpositive": (True, (F(2), 1, ((SUB, F(0)), (YES, None))),
                             "step 0: subtraction of 0 from degree 2"),
    "yes-without-exit": (True, (F(4), 8, ((SPEC, F(0)), (YES, None))),
                         "step 1: answer True contradicts the exit"),
    "no-at-exit": (False, (F(1, 2), 1, ((NO, F(0)),)), "step 0: answer False contradicts the exit"),
    "truncated": (True, (F(4), 8, ((SPEC, F(0)),)), "step 0: answer True contradicts the exit"),
    # (1/2; | 1) exits "yes" at once, but a "yes" records no threshold
    "yes-with-value": (True, (F(1, 2), 1, ((YES, 0.25),)), "step 0: a yes records 0.25, not None"),
    # the golden (4; 1^8) certificate with its first move a plain string
    "unknown-move": (True, (F(4), 8, (("specialize", F(0)),) + GOLDEN_MOVES[1:]),
                     "step 0: unknown move 'specialize'"),
    # certificates and steps of the wrong shape (EVERY_WALK_REFUSES)
    "no-moves": (True, (F(4), 8), "^start: a certificate is a triple"),
    "moves-None": (True, (F(4), 8, None), "^start: the moves None are not a tuple or list$"),
    "step-one-field": (True, (F(4), 8, GOLDEN_MOVES[:3] + ((SUB,),) + GOLDEN_MOVES[4:]),
                       "^step 3: .* is not a pair"),
    "step-three-fields": (True, (F(4), 8, GOLDEN_MOVES[:3] + ((SUB, F(4, 7), None),) + GOLDEN_MOVES[4:]),
                          "^step 3: .* is not a pair"),
    # (3; 1 | 1) cannot lose 5/2 from its line of multiplicity 1; the state's
    # arithmetic assumes t <= q_min, so every walk refuses it before any
    # threshold is asked for
    "past-least-multiplicity": (True, (F(3), 2, ((SPEC, F(0)), (SUB, F(5, 2)), (YES, None))),
                                "^step 1: subtraction of 5/2 exceeds the least multiplicity 1$"),
}
# the FORGED cases that every walk over a certificate refuses, not only the replay
EVERY_WALK_REFUSES = ("empty", "no-moves", "moves-None", "step-one-field", "step-three-fields",
                      "past-least-multiplicity")
# name -> (answer, certificate) with a float where a rational belongs, which
# replay_degeneration and .steps must refuse with a TypeError
FLOATED = {
    "float-delta": (True, (4.0, 8, GOLDEN_MOVES)),
    "float-last-subtraction": (True, (F(4), 8, GOLDEN_MOVES[:-2] + ((SUB, 0.99), (YES, None)))),
    "float-specialization": (True, (F(4), 8, ((SPEC, 0.0),) + GOLDEN_MOVES[1:])),
    # (2; | 1) certifies nothing: it specializes its line, then ends "no"
    "float-terminal-no": (False, (F(2), 1, ((SPEC, F(0)), (NO, 0.0)))),
}
# the "yes" certificate of (1; 1^2), and name -> (that certificate with a
# bool for 1, where the bool is): read as 1, either replayed; like a float,
# it must be a TypeError naming its place
CERTIFICATE_1_2 = (F(1), 2, ((SPEC, F(0)), (SUB, F(1)), (YES, None)))
BOOLS = {
    "bool-delta": ((True,) + CERTIFICATE_1_2[1:], "start"),
    "bool-t": ((F(1), 2, ((SPEC, F(0)), (SUB, True), (YES, None))), "step 1"),
}
# name -> (answer, certificate, the step) with a None where a specialization
# or a "no" records its threshold: a TypeError naming the step
NONES = {
    "none-specialization": (True, (F(4), 8, ((SPEC, None),) + GOLDEN_MOVES[1:]), 0),
    "none-terminal-no": (False, (F(2), 1, ((SPEC, F(0)), (NO, None))), 1),
}


# name -> (certificate, expected replay result or the TypeError's message):
# the start delta is read like every recorded value, its errors naming the
# start, and the line count is an int
STARTS = {
    "float-s": ((F(4), 8.0, GOLDEN_MOVES), "the line count 8.0 is not an int"),
    "bool-s": ((F(2), True, ((SPEC, F(0)), (NO, F(0)))), "the line count True is not an int"),
    "float-delta": ((4.0, 8, GOLDEN_MOVES), "start: cannot interpret float as a rational"),
    "string-delta": (("4", 8, GOLDEN_MOVES), (F(4), 8)),
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
        res = certify_lower_bound(F(4), 8, TAU)
        assert res.certificate == (F(4), 8, GOLDEN_MOVES)
        assert replay_degeneration(res, TAU) == (F(4), 8)
        assert {res} == {certify_lower_bound(F(4), 8, TAU)}  # equal by value, hash included

    @pytest.mark.parametrize("name", sorted(FORGED))
    def test_replay_rejects_forged_trace(self, name):
        answer, certificate, message = FORGED[name]
        with pytest.raises(AssertionError, match=message):
            replay_degeneration(DegenerationResult(answer, certificate), TAU)

    @pytest.mark.parametrize("name", EVERY_WALK_REFUSES)
    def test_walks_reject_malformed_certificates(self, name):
        answer, certificate, message = FORGED[name]
        result = DegenerationResult(answer, certificate)
        with pytest.raises(AssertionError, match=message):
            result.steps
        with pytest.raises(AssertionError, match=message):
            list(rendered_steps(result))

    @pytest.mark.parametrize("name", sorted(FLOATED))
    def test_replay_rejects_floats(self, name):
        # as the SpaceSystem constructor does; 0.99 would pass the threshold
        # check, since it is below 5042/5045
        result = DegenerationResult(*FLOATED[name])
        with pytest.raises(TypeError, match="cannot interpret float as a rational"):
            replay_degeneration(result, TAU)
        with pytest.raises(TypeError, match="cannot interpret float as a rational"):
            result.steps

    @pytest.mark.parametrize("name", sorted(BOOLS))
    def test_replay_rejects_bools(self, name):
        assert certify_lower_bound(F(1), 2, TAU).certificate == CERTIFICATE_1_2
        certificate, where = BOOLS[name]
        result = DegenerationResult(True, certificate)
        want = f"^{where}: cannot interpret bool as a rational$"
        with pytest.raises(TypeError, match=want):
            replay_degeneration(result, TAU)
        with pytest.raises(TypeError, match=want):
            result.steps

    @pytest.mark.parametrize("name", sorted(NONES))
    def test_replay_rejects_none_thresholds(self, name):
        answer, certificate, step = NONES[name]
        result = DegenerationResult(answer, certificate)
        want = f"^step {step}: cannot interpret NoneType as a rational$"
        with pytest.raises(TypeError, match=want):
            replay_degeneration(result, TAU)
        with pytest.raises(TypeError, match=want):
            result.steps

    @pytest.mark.parametrize("name", sorted(STARTS))
    def test_replay_reads_the_start(self, name):
        certificate, want = STARTS[name]
        result = DegenerationResult(True, certificate)
        if isinstance(want, str):
            with pytest.raises(TypeError, match=f"^{want}$"):
                replay_degeneration(result, TAU)
            with pytest.raises(TypeError, match=f"^{want}$"):
                result.steps
        else:
            assert replay_degeneration(result, TAU) == want
            assert result.steps[0].system == SpaceSystem(want[0], (), want[1])

    def test_replay_rejects_a_non_rational_specialization_value(self):
        # the golden (4; 1^8) certificate with a string where its first
        # threshold belongs
        junk = DegenerationResult(True, (F(4), 8, ((SPEC, "junk"),) + GOLDEN_MOVES[1:]))
        with pytest.raises(ValueError, match="not a rational literal: 'junk'"):
            replay_degeneration(junk, TAU)
        with pytest.raises(ValueError, match="not a rational literal: 'junk'"):
            junk.steps

    def test_steps_reject_subtraction_at_degree_zero(self):
        # the replay's threshold check fires first on such a certificate,
        # so only .steps reaches the degree check
        res = DegenerationResult(True, (F(2), 1, ((SUB, F(1)), (SUB, F(1)), (YES, None))))
        with pytest.raises(AssertionError, match="step 1: subtraction of 1 from degree 0"):
            res.steps

    @pytest.mark.parametrize("cases", ["digest", "certify"])
    def test_walk_matches_explicit_states(self, cases):
        # the loop, the replay and .steps share one state update; check it
        # against the oracle's explicit q_j, aggregates and exit included
        for delta, s in GOLDEN_DIGEST_CASES if cases == "digest" else CERTIFY_CASES:
            helpers.check_walk_against_explicit_states(certify_lower_bound(delta, s, TAU))

    def test_subtraction_keeps_the_surviving_ends(self):
        # a subtraction pops the lines it zeroes and leaves every other end
        # as it was, the same pair object, so a step does O(1) work however
        # many lines are specialized
        res = certify_lower_bound(F("16.636"), 100, TAU)
        before, kept = None, 0
        for _, state, move, _ in space._State.walk(res.certificate):
            if before is not None:
                after = list(state.ends)
                assert len(after) <= len(before)
                assert all(x is y for x, y in zip(after, before[len(before) - len(after):]))
                kept += len(after)
            before = list(state.ends) if move is SUB else None
        # 1,556 subtractions keep 24,547 ends between them
        assert kept == 24547

    def test_thresholds_match_reference_reduction(self):
        # the replay re-derives t0 with the integer kernel; sample the
        # Fraction reference on the deep states of a large-s trace
        res = certify_lower_bound(PINNED_BEST[50], 50, TAU)
        subtract = [st for st in res.steps if st.move is LMove.SUBTRACT]
        for st in random.Random(50).sample(subtract, 10):
            assert reference_reduction(st.system, TAU).t0 == st.t0

    def test_recorded_thresholds_match_the_states(self):
        # the loop hands the kernel its live state, which answers scaled()
        # in O(1) at its own reduced scale; the kernel must give the same
        # outcome on the materialized state, scaled by SpaceSystem.scaled(),
        # and the recorded t0, for every move that records one, down to the
        # 300+-bit denominators of the s = 50 cases
        for delta, s in GOLDEN_DIGEST_CASES:
            res = certify_lower_bound(delta, s, TAU)
            for i, state, move, t0 in space._State.walk(res.certificate):
                if t0 is not None:
                    got = helpers.outcome(quadric_threshold(state, TAU))
                    assert got == helpers.outcome(quadric_threshold(state.system(), TAU)), (delta, s, i)
                    assert got[0] == t0, (delta, s, i, move)

    def test_answers_build_no_states(self, monkeypatch):
        # answer-only callers must not pay for the trace: no SpaceSystem is
        # built until .steps is read
        built = []
        post_init = plane.SpaceSystem.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(plane.SpaceSystem, "__post_init__", counted)
        assert best_bound(7, TAU, TAU) == PINNED_BEST[7]
        res = certify_lower_bound(PINNED_BEST[50], 50, TAU)
        assert res.answer is True
        assert built == []
        # nor does checking it, which asks the kernel once per subtraction,
        # through the module binding the benchmark's tracer rebinds
        kernel_calls = []
        kernel = space.quadric_threshold

        def counted_kernel(inp, tau, **kwargs):
            kernel_calls.append(inp)
            return kernel(inp, tau, **kwargs)

        monkeypatch.setattr(space, "quadric_threshold", counted_kernel)
        assert replay_degeneration(res, TAU) == (PINNED_BEST[50], 50)
        assert built == []
        assert len(kernel_calls) == sum(move is SUB for move, _ in res.certificate[2]) > 1
        assert len(res.steps) == len(built) > 1

    def test_loop_does_no_fraction_arithmetic(self):
        # the state holds integers at one scale: per step the loop makes one
        # Fraction, the kernel's t0, and the kernel takes no lcm
        calls = Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == fractions.__file__:
                calls[frame.f_code.co_name] += 1
            elif event == "c_call" and arg is math.lcm:
                calls["lcm"] += 1

        delta = PINNED_BEST[50]
        sys.setprofile(profile)
        try:
            res = certify_lower_bound(delta, 50, TAU)
        finally:
            sys.setprofile(None)
        kernel_calls = len(res.certificate[2]) - 1  # all but the final "yes"
        assert res.answer is True and kernel_calls > 700
        assert calls.pop("__new__") == kernel_calls
        reads = ("numerator", "denominator", "as_integer_ratio")  # a Fraction's two parts
        arithmetic = {name: n for name, n in calls.items() if name not in reads}
        # once per run: the argument checks delta <= 0 and tau <= 0
        assert sum(arithmetic.values()) <= 4, arithmetic

    def test_loop_call_budget(self):
        # the loop applies its own moves and the kernel builds its forms and
        # its result inline: per step, exit_yes, the kernel (tau's
        # as_integer_ratio, scaled(), _terminal_t0, Fraction.__new__), t0's
        # as_integer_ratio and the move; no Python code runs per specialized line
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        sys.setprofile(profile)
        try:
            res = certify_lower_bound(F("11.569"), 50, TAU)
        finally:
            sys.setprofile(None)
        steps = len(res.certificate[2])
        assert res.answer is True and steps > 700
        # 8 calls a step, and a fixed 37 a run (the argument checks, the
        # first state and the result)
        assert calls <= 8 * steps + 40, (calls, steps)

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

    @pytest.mark.parametrize("s", range(1, 31))
    def test_specialized_never_decreases(self, s):
        # the state keeps its lines in specialization order and reads the
        # least and greatest q_j off the two ends, so the q_j must ascend
        for delta in (F(3, 2), F(math.isqrt(5 * s // 2)), upper_index(s, F(1, 10)) * F(1, 10)):
            for step in certify_lower_bound(delta, s, TAU).steps:
                qs = step.system.specialized
                assert list(qs) == sorted(qs), (delta, s)

    def test_golden_digest(self):
        h = hashlib.sha256()
        for delta, s in GOLDEN_DIGEST_CASES:
            h.update(helpers.degeneration_signature(delta, s, TAU).encode() + b"\n")
        assert h.hexdigest() == GOLDEN_DIGEST

    @pytest.mark.parametrize("s", [8.0, True])
    def test_rejects_a_line_count_that_is_not_an_int(self, s):
        # as the walk does: a float s would otherwise answer with a start
        # the replay rejects, and a bool would be read as one line
        want = f"^the line count {s!r} is not an int$"
        for call in LINE_COUNT_TAKERS.values():
            with pytest.raises(TypeError, match=want):
                call(s)

    @pytest.mark.parametrize("s", [0, -3])
    def test_rejects_a_line_count_below_one(self, s):
        for call in LINE_COUNT_TAKERS.values():
            with pytest.raises(ValueError, match="^s must be positive$"):
                call(s)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            certify_lower_bound(F(0), 5, TAU)
        with pytest.raises(ValueError):
            certify_lower_bound(F(4), 0, TAU)
        with pytest.raises(ValueError):
            certify_lower_bound(F(4), 5, F(0))
        with pytest.raises(ValueError):
            SpaceSystem(F(4), (F(0),), 2)
        # the replay refuses tau up front, before any subtraction reads it:
        # the one-step "yes" of (1/2; 1^3) has none, (4; 1^8) has some
        for res in (certify_lower_bound("1/2", 3, TAU), certify_lower_bound(F(4), 8, TAU)):
            for tau in (F(0), F(-1)):
                with pytest.raises(ValueError, match="^tau must be positive$"):
                    replay_degeneration(res, tau)
        # best_bound(1) probes no grid point, and still reads tau
        for tau in (F(0), F(-5)):
            with pytest.raises(ValueError, match="tau must be positive"):
                best_bound(1, tau, TAU)


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


# (delta, s, tau) for the renderer's oracle: "yes" and "no" answers, s up
# to 50, both taus, and states with no general line left (p = 0) and one (p = 1)
RENDER_CASES = [
    (delta, s, tau)
    for delta, s in ((F(4), 8), (F(10), 2), (F(3), 5), (PINNED_BEST[10], 10),
                     (PINNED_BEST[20], 20), (PINNED_BEST[50], 50), (F("11.570"), 50))
    for tau in (F(1, 1000), F(1, 100))
]


class TestFormat:
    @pytest.mark.parametrize("delta, s, tau", RENDER_CASES)
    def test_rendered_steps_match_the_steps(self, delta, s, tau):
        # rendered from the walk's integers, each step must print as its
        # materialized state does
        res = certify_lower_bound(delta, s, tau)
        got = [(st.text(), st.to_json()) for st in rendered_steps(res)]
        assert got == [(format_space_system(st.system), l_step_to_json(st)) for st in res.steps]

    def test_render_cases_cover(self):
        results = [certify_lower_bound(delta, s, tau) for delta, s, tau in RENDER_CASES]
        assert {res.answer for res in results} == {True, False}
        ps = {st.p for res in results for st in rendered_steps(res)}
        assert {0, 1} <= ps

    def test_empty_specialized(self):
        assert format_space_system(SpaceSystem(F(4), (), 8)) == "(4; | 1^8)"

    def test_single_general_line(self):
        assert format_space_system(SpaceSystem(F(2), (F(1, 2),), 1)) == "(2; 1/2 | 1)"

    def test_no_general_lines(self):
        assert format_space_system(SpaceSystem(F(2), (F(1),), 0)) == "(2; 1 | )"
