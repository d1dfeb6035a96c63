"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every criterion
finishes in seconds; the search-bound criterion (C6), whose four searches
take about 3 s, is the slowest.
"""

import math
import time
from fractions import Fraction as F

import helpers
from helpers import format_space_system
from waldlines.bounds import (
    alpha_max,
    chudnovsky_bound,
    chudnovsky_verify,
    plane_degeneration_bound,
    small_waldschmidt,
    sqrt_lower_bound,
    square_specialization_bound,
    strong_sqrt_check,
)
from waldlines.cubic import _bisect, largest_root
from waldlines.plane import SpaceSystem, format_system, quadric_threshold, reference_reduction
from waldlines.report import build_report
from waldlines.space import LMove, best_bound, certify_lower_bound
from test_plane import GOLDEN_REDUCTION
from test_space import GOLDEN_DEGENERATION, PINNED_BEST

TAU = F(1, 1000)
GRID = F(1, 1000)
EPS = F(1, 10**6)

TABLE_S = (10, 20, 50, 100, 200, 300, 400, 500)


def check(cid: str, ok: bool, detail: str = "") -> None:
    print(f"{cid}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{cid} failed: {detail}"


def test_c1_plane_reduction_golden_trace():
    start = time.monotonic()
    inp = SpaceSystem(F(7), (F(1),) * 5, 15)
    kernel = quadric_threshold(inp, TAU)
    res = reference_reduction(inp, TAU)
    elapsed = time.monotonic() - start
    # the reference records the 19 systems; the kernel takes the same
    # 12 Cremona moves and 6 merges to the same t0
    ok = len(res.steps) == 19 and helpers.outcome(kernel) == helpers.outcome(res) == (F(8, 141), 12, 6)
    for step, (text, k_text, move) in zip(res.steps, GOLDEN_REDUCTION):
        ok = ok and format_system(step.system) == text
        ok = ok and (step.k is None if k_text is None else str(step.k) == k_text)
        ok = ok and step.move is move
    ok = ok and elapsed < 1.0
    check("C1", ok, f"19 systems verbatim, t0 = {res.t0}, {elapsed:.3f}s")


def test_c2_degeneration_golden_trace():
    start = time.monotonic()
    res = certify_lower_bound(F(4), 8, TAU)
    elapsed = time.monotonic() - start
    expected_t0 = [
        "0", "0", "4/7", "3/14", "27/224", "135/2464", "115/4928",
        "49/5184", "751/200394", "11424/6240665", "0", "3/5045", "5042/5045",
    ]
    ok = res.answer is True and len(res.steps) == 15
    ok = ok and [str(st.t0) for st in res.steps[1:14]] == expected_t0
    ok = ok and res.steps[0].t0 == 0
    ok = ok and format_space_system(res.steps[-1].system) == "(6/5045; | 1^4)"
    ok = ok and res.steps[-1].move is LMove.TERMINATE_YES
    for step, (text, t0, move) in zip(res.steps, GOLDEN_DEGENERATION):
        ok = ok and format_space_system(step.system) == text and step.move is move
    ok = ok and elapsed < 1.0
    check("C2", ok, f"14 moves, 13 thresholds, answer yes, {elapsed:.3f}s")


def test_c3_integer_rows_exact():
    sqrt_row = tuple(sqrt_lower_bound(s) for s in TABLE_S)
    square_row = tuple(square_specialization_bound(s) for s in TABLE_S)
    degen_row = tuple(plane_degeneration_bound(s) for s in TABLE_S)
    ok = (
        sqrt_row == (4, 6, 9, 14, 19, 24, 28, 31)
        and square_row == (4, 6, 10, 14, 20, 24, 28, 31)
        and degen_row == (4, 6, 10, 15, 22, 27, 31, 35)
    )
    check("C3", ok, f"rows {sqrt_row} / {square_row} / {degen_row}")


def test_c4_chudnovsky_row_and_discrepancy():
    expected = {
        10: F(7, 2), 50: F(8), 100: F(12), 200: F(17),
        300: F(41, 2), 400: F(24), 500: F(27),
    }
    ok = all(chudnovsky_bound(s) == v for s, v in expected.items())
    ok = ok and chudnovsky_bound(20) == 5 and alpha_max(20) == 9
    flags = build_report(20, TAU, GRID, EPS, with_l=False).flags
    ok = ok and any("chudnovsky-reference-mismatch" in f for f in flags)
    check("C4", ok, "row exact; s=20 reports 5 with a discrepancy flag")


def test_c5_upper_bound_row():
    # KNOWN RED: the reference row is truncated at the third decimal, not
    # rounded, so for s = 200, 300, 400 the true roots (24.154501...,
    # 29.660940..., 34.302744..., confirmed against an independent
    # companion-matrix solver) sit more than 5e-4 above the printed values.
    # The criterion is asserted as stated rather than loosened; see the
    # decisions ledger for the full analysis.
    start = time.monotonic()
    printed = {
        10: F("5.107"), 20: F("7.388"), 50: F("11.899"), 100: F("16.977"),
        200: F("24.154"), 300: F("29.660"), 400: F("34.302"), 500: F("38.392"),
    }
    ok = True
    misses = []
    for s, target in printed.items():
        mid = largest_root(s, EPS).midpoint
        if abs(mid - target) > F(5, 10**4):
            misses.append(f"s={s}: |{float(mid):.6f} - {target}| = {float(abs(mid - target)):.2e}")
            ok = False
        # the printed value is always the truncation of the true root
        assert F(math.floor(mid * 1000), 1000) == target
    e7 = largest_root(7, EPS).midpoint
    ok = ok and abs(e7 - F("4.203503")) <= F(1, 10**5)
    # the correction root: the largest root of t^3 - 3st + 2s + 2k at
    # s = 100, k = 225, in [16, 17]
    crossing = _bisect(100, 2 * 100 + 2 * 225, 16, EPS).midpoint
    ok = ok and abs(crossing - F("16.114")) <= F(1, 10**3)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    detail = (
        f"e7 and correction root in tolerance, {elapsed:.3f}s"
        if ok
        else "reference decimals are truncated, not rounded -- "
        + "; ".join(misses)
        + " (see decisions ledger)"
    )
    check("C5", ok, detail)


def test_c6_search_bound_quality():
    start = time.monotonic()
    targets = {7: F("3.837"), 10: F("4.807"), 20: F("7.072"), 50: F("11.570")}
    got = {}
    ok = True
    for s, target in targets.items():
        value = best_bound(s, TAU, GRID)
        got[s] = value
        ok = ok and value == PINNED_BEST[s]
        e_s = largest_root(s, EPS).hi
        if s == 7:
            ok = ok and abs(value - target) <= F(5, 100)
        else:
            ok = ok and target - F(5, 100) <= value <= e_s
    elapsed = time.monotonic() - start
    check(
        "C6",
        ok,
        "search bounds "
        + ", ".join(f"s={s}: {float(v):.3f}" for s, v in got.items())
        + f", {elapsed:.0f}s",
    )


# The s in 6..60, past the exceptions 7 and 10, where plane_degeneration_bound
# falls short of floor(sqrt(2.5 s)).
LOOP_S = (15, 16, 17, 20, 26, 27, 33, 34, 35, 49, 50, 51, 52, 58, 59)


def test_c7_strong_bound_verification():
    # the loop is the oracle: it certifies every s in 6..60 but the
    # exceptions, including the s the closed form decides
    ok = True
    loop_s = []
    for s in range(6, 61):
        if s in (7, 10):
            continue
        ok = ok and certify_lower_bound(math.isqrt(5 * s // 2), s, TAU).answer
        status = strong_sqrt_check(s, TAU)
        ok = ok and status.holds
        if status.method == "algorithm-L":
            loop_s.append(s)
    ok = ok and tuple(loop_s) == LOOP_S
    ok = ok and all(strong_sqrt_check(s, TAU).method == "closed-form" for s in (490, 491, 1000))
    status4 = strong_sqrt_check(4, TAU)
    ok = ok and not status4.holds and status4.method == "known-exception"
    ok = ok and small_waldschmidt(4) ** 2 < 10  # (8/3)^2 = 64/9 < 2.5 * 4
    check("C7", ok, f"s in 6..60 certified by the loop, {len(LOOP_S)} of them left to it; "
          "closed form at 490/491/1000; s=4 exception")


def test_c8_property_suites():
    ok = True
    details = []
    for name, suite in sorted(helpers.ALL_SUITES.items()):
        suite_ok, detail = suite()
        ok = ok and suite_ok
        details.append(f"{name}[{'ok' if suite_ok else 'FAIL'}]")
    check("C8", ok, " ".join(details))


def test_c9_chudnovsky_sweep():
    violations = chudnovsky_verify(1000)
    ok = violations == []
    # independent exact check of the auxiliary inequality and of the chain
    # floor(sqrt(2s-1)) >= (a+1)/2 it feeds (all in integers)
    for s in range(1, 1001):
        for a in range(10, 80):
            if (a + 2) * (a + 1) <= 6 * s:
                ok = ok and 8 * s - 4 >= (a + 3) ** 2
                ok = ok and 2 * math.isqrt(2 * s - 1) >= a + 1
    check("C9", ok, f"{len(violations)} violations up to s=1000")
