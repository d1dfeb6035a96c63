"""Shared generators, property-suite checks, the linear-form parser that
reads golden traces and the Fraction renderer of degeneration states.

The acceptance gate runs the same suites as the regular property tests, so
the check bodies live here and return (ok, detail) pairs.
"""

from __future__ import annotations

import json
import math
import random
import re
from collections.abc import Iterator
from fractions import Fraction

from waldlines.bounds import (
    alpha_max,
    chudnovsky_bound,
    plane_degeneration_bound,
    small_waldschmidt,
    sqrt_lower_bound,
    square_specialization_bound,
)
from waldlines.cubic import AsymptoticCubic, RootBracket, largest_root
from waldlines.plane import (
    PlaneSystem,
    SpaceSystem,
    SystemAggregates,
    ThresholdResult,
    apply_cremona,
    normalize,
    quadric_threshold,
    reference_reduction,
    step_to_json,
)
from waldlines.space import (
    DegenerationResult,
    DegenerationStep,
    LMove,
    RenderedStep,
    _State,
    certify_lower_bound,
    replay_degeneration,
)
from waldlines.linform import _UNSIGNED, LinForm, as_rational

TAU = Fraction(1, 1000)


_PURE_T_RE = re.compile(rf"(?P<sign>[+-]?)(?P<b>{_UNSIGNED})?t")
_FULL_RE = re.compile(rf"(?P<a>[+-]?{_UNSIGNED})(?P<sign>[+-])(?P<b>{_UNSIGNED})?t")


def parse_linform(text: str) -> LinForm:
    """Parse "a", "bt" or "a+bt"/"a-bt" with coefficients in the grammar of
    :func:`as_rational`.

    Accepts the same grammar the trace output uses, e.g. "6-2t", "3t", "7",
    "-8+141t", "t", "-t", "3/5045".
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty linear-form literal")
    if "t" not in s:
        return LinForm(as_rational(s))
    m = _PURE_T_RE.fullmatch(s) or _FULL_RE.fullmatch(s)
    if not m:
        raise ValueError(f"not a linear-form literal: {text!r}")
    a = as_rational(m.group("a")) if "a" in m.groupdict() else Fraction(0)
    b = as_rational(m.group("b") or 1)
    return LinForm(a, -b if m.group("sign") == "-" else b)


def random_fraction(rng: random.Random, num_max: int = 40, den_max: int = 12) -> Fraction:
    return Fraction(rng.randint(1, num_max), rng.randint(1, den_max))


def random_threshold_input(rng: random.Random) -> SpaceSystem:
    delta = random_fraction(rng, 160, 20)
    s = rng.randint(0, 4)
    qs = tuple(random_fraction(rng) for _ in range(s))
    p = rng.randint(0, 6)
    return SpaceSystem(delta, qs, p)


def random_kernel_input(rng: random.Random) -> SpaceSystem:
    """Wider inputs than random_threshold_input: up to 12 unsorted q_j with
    unlike denominators, so that their lcm is rarely that of delta and sum(q_j),
    and up to 40 general lines."""
    delta = random_fraction(rng, 400, 30)
    qs = tuple(random_fraction(rng, 60, 50) for _ in range(rng.randint(0, 12)))
    return SpaceSystem(delta, qs, rng.randint(0, 40))


def plane_system(degree: LinForm, mults: list[LinForm]) -> PlaneSystem:
    """The system with multiplicities ``mults``, one run each, unsorted."""
    return PlaneSystem(degree, tuple((m, 1) for m in mults))


def parse_system(text: str) -> PlaneSystem:
    """Inverse of plane.format_system (the "L2(" prefix is optional)."""
    s = text.strip()
    if s.startswith("L2(") and s.endswith(")"):
        s = s[3:-1]
    head, _, tail = s.partition(";")
    groups = []
    for chunk in filter(None, (c.strip() for c in tail.split(","))):
        base, sep, exp = chunk.partition("^")
        groups.append((parse_linform(base), int(exp) if sep else 1))
    return PlaneSystem(parse_linform(head), tuple(groups))


def random_linform(rng: random.Random, span: int = 30) -> LinForm:
    def coeff() -> Fraction:
        return Fraction(rng.randint(-span, span), rng.randint(1, 10))

    return LinForm(coeff(), coeff())


def random_plane_system(rng: random.Random) -> PlaneSystem:
    mults = [random_linform(rng) for _ in range(rng.randint(3, 9))]
    return normalize(plane_system(random_linform(rng), mults), TAU)


def outcome(res: ThresholdResult) -> tuple[Fraction, int, int]:
    """What the integer kernel and the reference reduction must agree on:
    t0 and the numbers of Cremona moves and merges."""
    return res.t0, res.cremona, res.merge


def reduction_signature(inp: SpaceSystem, tau: Fraction) -> str:
    """The kernel's outcome and the reference reduction's steps, as JSON."""
    t0, cremona, merge = outcome(quadric_threshold(inp, tau))
    steps = reference_reduction(inp, tau).steps
    return json.dumps(
        {"t0": str(t0), "moves": [cremona, merge], "steps": [step_to_json(s) for s in steps]},
        sort_keys=True,
    )


def rendered_step(system: SpaceSystem, t0: Fraction | None = None, move: LMove | None = None) -> RenderedStep:
    """The oracle for space.rendered_steps: a materialized state, with its
    step's t0 and move, rendered through str(Fraction)."""
    return RenderedStep(str(system.delta), [str(q) for q in system.specialized], system.p,
                        None if t0 is None else str(t0), move)


def format_space_system(system: SpaceSystem) -> str:
    """One-line rendering, e.g. "(10096/5045; 3/5045,3/5045,3/5045 | 1^5)"."""
    return rendered_step(system).text()


def l_step_to_json(step: DegenerationStep) -> dict:
    return rendered_step(step.system, step.t0, step.move).to_json()


def degeneration_signature(delta: Fraction, s: int, tau: Fraction) -> str:
    res = certify_lower_bound(delta, s, tau)
    assert replay_degeneration(res, tau) == (delta, s)
    return json.dumps(
        {"answer": res.answer, "steps": [l_step_to_json(st) for st in res.steps]},
        sort_keys=True,
    )


def explicit_states(certificate) -> Iterator[SpaceSystem]:
    """The oracle for the degeneration state: the SpaceSystem on arrival at
    each step of ``certificate``, walked on explicit q_j.  A subtraction of t
    takes t off every q_j and drops those that reach 0; a specialization
    appends a q_j of 1."""
    delta, s, moves = certificate
    qs, p = (), s
    for move, t in moves:
        yield SpaceSystem(delta, qs, p)
        if move is LMove.SUBTRACT:
            delta, qs = delta - 2 * t, tuple(q - t for q in qs if q > t)
        elif move is LMove.SPECIALIZE:
            qs, p = qs + (Fraction(1),), p - 1


def explicit_exit(sys: SpaceSystem) -> bool:
    """The "yes" exit on an explicit state: its degree is at most 0, below 1
    with a general line left, or below some q_j."""
    return sys.delta <= 0 or (sys.delta < 1 and sys.p >= 1) or any(sys.delta < q for q in sys.specialized)


def aggregates(system: SystemAggregates) -> tuple:
    """What the plane reductions read of ``system``, read through scaled()
    and made independent of its scale: p, q_count, and delta, the sum and
    the least value of the q_j as Fractions."""
    D, delta, q, q_min = system.scaled()
    return system.p, system.q_count, Fraction(delta, D), Fraction(q, D), q_min and Fraction(*q_min)


def check_walk_against_explicit_states(res: DegenerationResult) -> None:
    """Assert that the shared walk of ``res.certificate`` agrees with
    :func:`explicit_states` at every step: the materialized system, the
    aggregates the plane reduction reads and the exit test, and that the
    state's scale D is reduced: no factor divides D and all its values."""
    walk = zip(_State.walk(res.certificate), explicit_states(res.certificate))
    for n, ((i, state, _, _), want) in enumerate(walk, start=1):
        assert math.gcd(state.D, state.deg, state.qsum, state.total, *state.ends) == 1, i
        assert state.system() == want, i
        assert aggregates(state) == aggregates(want), i
        assert state.exit_yes() is explicit_exit(want), i
    assert n == len(res.certificate[2])
    assert explicit_exit(want) is res.answer


def _reference_bisect(
    cubic: AsymptoticCubic, lo: Fraction, hi: Fraction, precision: Fraction
) -> RootBracket:
    while hi - lo >= precision:
        mid = (lo + hi) / 2
        v = cubic(mid)
        if v == 0:
            return RootBracket(mid, mid)
        if v < 0:
            lo = mid
        else:
            hi = mid
    return RootBracket(lo, hi)


def _reference_bisect_right_of_dip(
    cubic: AsymptoticCubic, lo: Fraction, hi: Fraction, precision: Fraction
) -> RootBracket:
    x = hi
    while cubic(x) >= 0:
        mid = (lo + x) / 2
        if mid * mid <= cubic.s:
            lo = mid
        else:
            x = mid
    return _reference_bisect(cubic, x, hi, precision)


def reference_largest_root(cubic: AsymptoticCubic, precision: Fraction) -> RootBracket | None:
    """The Fraction bisection that cubic.largest_root replaced: the oracle
    for its integer bisection on the dyadic grid.  Every point is evaluated
    with the public AsymptoticCubic.__call__."""
    s, k = cubic.s, cubic.k
    hi_end = math.isqrt(3 * s)
    if hi_end * hi_end < 3 * s:
        hi_end += 1
    hi_end += 1
    min_sign = s**3 - (s + k) ** 2
    if min_sign < 0:
        return None
    if min_sign == 0:
        x = Fraction(math.isqrt(s))
        assert cubic(x) == 0
        return RootBracket(x, x)
    prev = Fraction(hi_end)
    assert cubic(prev) > 0
    for j in range(hi_end - 1, 0, -1):
        x = Fraction(j)
        v = cubic(x)
        if v > 0:
            prev = x
            continue
        if v == 0 and j * j >= s:
            return RootBracket(x, x)
        if v < 0:
            return _reference_bisect(cubic, x, prev, precision)
        return _reference_bisect_right_of_dip(cubic, x, prev, precision)
    return _reference_bisect_right_of_dip(cubic, Fraction(1), Fraction(hi_end), precision)


def reference_chudnovsky_verify(s_max: int) -> list[str]:
    """Oracle for bounds.chudnovsky_verify: all three closed-form bounds at
    every s, and every a = 10..alpha_max(s)."""
    violations: list[str] = []
    for s in range(1, s_max + 1):
        need = chudnovsky_bound(s)
        have = max(
            square_specialization_bound(s),
            sqrt_lower_bound(s),
            plane_degeneration_bound(s),
        )
        if Fraction(have) < need:
            violations.append(f"s={s}: best closed-form bound {have} < {need}")
        for a in range(10, alpha_max(s) + 1):
            if (a + 2) * (a + 1) <= 6 * s and 8 * s - 4 < (a + 3) ** 2:
                violations.append(f"s={s}, a={a}: 8s-4 < (a+3)^2")
    return violations


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
        t0 = quadric_threshold(inp, TAU).t0
        if t0 < 0:
            return False, f"case {i}: t0 = {t0} < 0"
        if inp.specialized and t0 > min(inp.specialized):
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
    """The integer kernel's t0 and move counts equal the Fraction reference
    reduction's, and the certificate checker accepts degeneration traces."""
    rng = random.Random(20243)
    for i in range(cases):
        inp = random_threshold_input(rng)
        if outcome(quadric_threshold(inp, TAU)) != outcome(reference_reduction(inp, TAU)):
            return False, f"case {i}: kernel diverges from the reference reduction"
    for delta, s in ((Fraction(4), 8), (Fraction(16, 5), 5), (Fraction(10), 2)):
        res = certify_lower_bound(delta, s, TAU)
        try:
            if replay_degeneration(res, TAU) != (delta, s):
                return False, f"degeneration ({delta},{s}): wrong start system"
        except AssertionError as exc:
            return False, f"degeneration ({delta},{s}): {exc}"
    return True, f"{cases} plane reductions plus degeneration spot checks"


def suite_small_s_exact() -> tuple[bool, str]:
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
