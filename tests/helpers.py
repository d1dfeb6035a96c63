"""Shared generators and property-suite checks.

The acceptance gate runs the same suites as the regular property tests, so
the check bodies live here and return (ok, detail) pairs.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from waldlines.bounds import (
    chudnovsky_bound,
    plane_degeneration_bound,
    small_waldschmidt,
    sqrt_lower_bound,
    square_specialization_bound,
)
from waldlines.cubic import AsymptoticCubic, largest_root
from waldlines.plane import (
    PlaneSystem,
    ThresholdInput,
    apply_cremona,
    normalize,
    quadric_threshold,
    reference_reduction,
    step_to_json,
)
from waldlines.space import certify_lower_bound, replay_degeneration
from waldlines.space import step_to_json as l_step_to_json
from waldlines.linform import LinForm

TAU = Fraction(1, 1000)


def random_fraction(rng: random.Random, num_max: int = 40, den_max: int = 12) -> Fraction:
    return Fraction(rng.randint(1, num_max), rng.randint(1, den_max))


def random_threshold_input(rng: random.Random) -> ThresholdInput:
    delta = random_fraction(rng, 160, 20)
    s = rng.randint(0, 4)
    qs = tuple(random_fraction(rng) for _ in range(s))
    p = rng.randint(0, 6)
    return ThresholdInput(delta, qs, p)


def random_kernel_input(rng: random.Random) -> ThresholdInput:
    """Wider inputs than random_threshold_input: up to 12 unsorted q_j with
    unlike denominators, so that their lcm is rarely that of delta and sum(q_j),
    and up to 40 general lines."""
    delta = random_fraction(rng, 400, 30)
    qs = tuple(random_fraction(rng, 60, 50) for _ in range(rng.randint(0, 12)))
    return ThresholdInput(delta, qs, rng.randint(0, 40))


def random_linform(rng: random.Random, span: int = 30) -> LinForm:
    def coeff() -> Fraction:
        return Fraction(rng.randint(-span, span), rng.randint(1, 10))

    return LinForm(coeff(), coeff())


def random_plane_system(rng: random.Random) -> PlaneSystem:
    mults = [random_linform(rng) for _ in range(rng.randint(3, 9))]
    return normalize(PlaneSystem.of(random_linform(rng), mults), TAU)


def reduction_signature(inp: ThresholdInput, tau: Fraction) -> str:
    res = quadric_threshold(inp, tau)
    return json.dumps(
        {"t0": str(res.t0), "steps": [step_to_json(s) for s in res.steps]},
        sort_keys=True,
    )


def degeneration_signature(delta: Fraction, s: int, tau: Fraction) -> str:
    res = certify_lower_bound(delta, s, tau)
    assert replay_degeneration(res, tau) == (delta, s)
    return json.dumps(
        {"answer": res.answer, "steps": [l_step_to_json(st) for st in res.steps]},
        sort_keys=True,
    )


# ---------------------------------------------------------------- suites


def suite_cremona_involution(cases: int = 1000) -> tuple[bool, str]:
    """Applying k and then -k to the three leading multiplicities restores
    the system exactly."""
    rng = random.Random(20240)
    for i in range(cases):
        sys = random_plane_system(rng)
        if sys.mult_count < 3:
            continue
        k = random_linform(rng)
        back = apply_cremona(apply_cremona(sys, k), -k)
        if back != sys:
            return False, f"case {i}: double application diverged"
    return True, f"{cases} randomized systems"


def suite_threshold_range(cases: int = 1000) -> tuple[bool, str]:
    """0 <= t0 <= min(q_j) whenever at least one specialized line exists."""
    rng = random.Random(20241)
    for i in range(cases):
        inp = random_threshold_input(rng)
        t0 = quadric_threshold(inp, TAU, want_trace=False).t0
        if t0 < 0:
            return False, f"case {i}: t0 = {t0} < 0"
        if inp.qs and t0 > min(inp.qs):
            return False, f"case {i}: t0 = {t0} > min q"
    return True, f"{cases} randomized inputs"


def suite_sqrt_domination(s_max: int = 1000) -> tuple[bool, str]:
    """The square-specialization bound dominates floor(sqrt(2s-1))."""
    for s in range(1, s_max + 1):
        if square_specialization_bound(s) < sqrt_lower_bound(s):
            return False, f"s={s}"
    return True, f"s <= {s_max} exhaustive"


def suite_upper_bound_domination(s_max: int = 500) -> tuple[bool, str]:
    """Every lower bound stays below e_s + 1e-6."""
    eps = Fraction(1, 10**6)
    for s in range(1, s_max + 1):
        root = largest_root(AsymptoticCubic(s), eps)
        assert root is not None
        top = root.hi + eps
        values = (
            Fraction(square_specialization_bound(s)),
            Fraction(sqrt_lower_bound(s)),
            Fraction(plane_degeneration_bound(s)),
            chudnovsky_bound(s),
        )
        for v in values:
            if v > top:
                return False, f"s={s}: bound {v} exceeds e_s"
    return True, f"s <= {s_max} exhaustive, all four bound families"


def suite_determinism(cases: int = 1000) -> tuple[bool, str]:
    """Identical inputs give byte-identical serialized traces."""
    rng = random.Random(20242)
    for i in range(cases):
        inp = random_threshold_input(rng)
        if reduction_signature(inp, TAU) != reduction_signature(inp, TAU):
            return False, f"case {i}: plane reduction not deterministic"
    for delta_n, s in ((4, 8), (3, 5), (24, 7), (10, 2)):
        a = degeneration_signature(Fraction(delta_n, 5), s, TAU)
        b = degeneration_signature(Fraction(delta_n, 5), s, TAU)
        if a != b:
            return False, f"degeneration not deterministic for ({delta_n}/5, {s})"
    return True, f"{cases} plane inputs plus degeneration spot checks"


def suite_trace_replay(cases: int = 1000) -> tuple[bool, str]:
    """The integer kernel's traced result equals the Fraction reference
    reduction, and the certificate checker accepts degeneration traces."""
    rng = random.Random(20243)
    for i in range(cases):
        inp = random_threshold_input(rng)
        if quadric_threshold(inp, TAU) != reference_reduction(inp, TAU):
            return False, f"case {i}: kernel diverges from the reference reduction"
    for delta, s in ((Fraction(4), 8), (Fraction(16, 5), 5), (Fraction(10), 2)):
        res = certify_lower_bound(delta, s, TAU)
        try:
            if replay_degeneration(res, TAU) != (delta, s):
                return False, f"degeneration ({delta},{s}): wrong start system"
        except AssertionError as exc:
            return False, f"degeneration ({delta},{s}): {exc}"
    return True, f"{cases} plane traces plus degeneration spot checks"


def suite_small_s_exact(tau: Fraction = TAU) -> tuple[bool, str]:
    """For s <= 5 every computed bound respects the known exact value."""
    for s in range(1, 6):
        cap = small_waldschmidt(s)
        values = (
            Fraction(square_specialization_bound(s)),
            Fraction(sqrt_lower_bound(s)),
            Fraction(plane_degeneration_bound(s)),
            chudnovsky_bound(s),
        )
        for v in values:
            if v > cap:
                return False, f"s={s}: bound {v} exceeds exact value {cap}"
    return True, "s = 1..5 against exact values, all four bound families"


ALL_SUITES = {
    "cremona-involution": suite_cremona_involution,
    "threshold-range": suite_threshold_range,
    "sqrt-domination": suite_sqrt_domination,
    "upper-bound-domination": suite_upper_bound_domination,
    "determinism": suite_determinism,
    "trace-replay": suite_trace_replay,
    "small-s-exact": suite_small_s_exact,
}
