"""Shared generators, property-suite checks, the linear-form parser that
reads golden traces, the Fraction renderers of linear forms and of
degeneration states, and replaced code kept as the oracle of what replaced it.

The acceptance gate runs the same suites as the regular property tests, so
the check bodies live here and return (ok, detail) pairs.
"""

from __future__ import annotations

import json
import math
import random
import re
from bisect import bisect_left
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
from waldlines.cubic import RootBracket, largest_root
from waldlines.plane import (
    PlaneSystem,
    SpaceSystem,
    SystemAggregates,
    ThresholdResult,
    _terminal_t0,
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


def reference_format_linform(f: LinForm) -> str:
    """The Fraction renderer that linform.format_linform replaced: the
    oracle for its reading of numerators and denominators.  It takes abs()
    of b and compares coefficients as Fractions."""
    if f.b == 0:
        return str(f.a)
    bmag = abs(f.b)
    tpart = "t" if bmag == 1 else f"{bmag}t"
    if f.a == 0:
        return tpart if f.b > 0 else f"-{tpart}"
    sign = "+" if f.b > 0 else "-"
    return f"{f.a}{sign}{tpart}"


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
    :func:`explicit_states` at every step: each q_j, the materialized
    system, the aggregates the plane reduction reads and the exit test.
    Also that the state is reduced: no factor divides D, deg, qsum and
    total, and each end is a pair in lowest terms with a positive
    denominator."""
    walk = zip(_State.walk(res.certificate), explicit_states(res.certificate))
    for n, ((i, state, _, _), want) in enumerate(walk, start=1):
        assert math.gcd(state.D, state.deg, state.qsum, state.total) == 1, i
        assert all(d > 0 and math.gcd(e, d) == 1 for e, d in state.ends), i
        D, total = state.D, state.total
        assert [Fraction(e, d) - Fraction(total, D) for e, d in state.ends] == list(want.specialized), i
        assert state.system() == want, i
        assert aggregates(state) == aggregates(want), i
        assert state.exit_yes() is explicit_exit(want), i
    assert n == len(res.certificate[2])
    assert explicit_exit(want) is res.answer


def stepwise_quadric_threshold(inp: SystemAggregates, tau: Fraction) -> ThresholdResult:
    """The integer kernel that plane.quadric_threshold replaced, one Cremona
    move per loop iteration: the oracle for the kernel's runs, which take
    each repeated move with one defect k in one step.  Cheap enough to run
    on every kernel call of a certification, which the Fraction reference
    is not."""
    tn, td = tau.as_integer_ratio()
    D, delta, q, q_min = inp.scaled()
    # the associated system L2(2delta - q + (s-4)t; delta - 2t,
    # delta - q + (s-2)t, 1^2p) at the scale D, each form as (v, a)
    s, p, Dt = inp.q_count, inp.p, D * tn
    deg_a = 2 * delta - q
    deg_v = deg_a * td + (s - 4) * Dt
    m2 = delta - q
    pending = [(delta * td - 2 * Dt, delta, 1), (m2 * td + (s - 2) * Dt, m2, 1)]
    if p > 0:
        pending.append((D * td, D, 2 * p))
    # [v, a, count] ascending by (v, a), one entry per distinct form:
    # normalize's order reversed, so the leading multiplicities sit at the
    # end; total counts the units kept
    groups: list[list[int]] = []
    total = 0
    # pending: (v, a, count) of the forms a move made (at first, of the
    # associated system), inserted when the next step begins
    cremonas = merges = 0
    while True:
        for v, a, n in pending:
            if v > 0:
                i = bisect_left(groups, [v, a])
                if i < len(groups) and (g := groups[i])[0] == v and g[1] == a:
                    g[2] += n
                else:
                    groups.insert(i, [v, a, n])
                total += n
        # lead: how many groups, from the end, hold the three leading units
        lead = 0
        if total >= 3:
            g1 = groups[-1]
            n1 = g1[2]
            if n1 >= 3:
                lead, kv = 1, deg_v - 3 * g1[0]
            else:
                g2 = groups[-2]
                if n1 + g2[2] >= 3:
                    lead, kv = 2, deg_v - n1 * g1[0] - (3 - n1) * g2[0]
                else:
                    g3 = groups[-3]
                    lead, kv = 3, deg_v - g1[0] - g2[0] - g3[0]
        if lead and kv < 0:
            # the constant ka of k is needed only here; take the three leading
            # units off before inserting any: a moved form may overtake one
            # that is still waiting to move
            if lead == 1:
                ka = deg_a - 3 * g1[1]
                pending = ((g1[0] + kv, g1[1] + ka, 3),)
                if n1 > 3:
                    g1[2] = n1 - 3
                else:
                    groups.pop()
            elif lead == 2:
                n2 = 3 - n1
                ka = deg_a - n1 * g1[1] - n2 * g2[1]
                pending = ((g1[0] + kv, g1[1] + ka, n1), (g2[0] + kv, g2[1] + ka, n2))
                groups.pop()
                if g2[2] > n2:
                    g2[2] -= n2
                else:
                    groups.pop()
            else:
                ka = deg_a - g1[1] - g2[1] - g3[1]
                pending = ((g1[0] + kv, g1[1] + ka, 1), (g2[0] + kv, g2[1] + ka, 1),
                           (g3[0] + kv, g3[1] + ka, 1))
                if g3[2] > 1:
                    g3[2] -= 1
                    del groups[-2:]
                else:
                    del groups[-3:]
            deg_v += kv
            deg_a += ka
            total -= 3
            cremonas += 1
        else:
            # merge four units of the greatest form that has them
            for i in range(len(groups) - 1, -1, -1):
                if groups[i][2] >= 4:
                    break
            else:
                break  # neither move applies: the system is terminal
            g = groups[i]
            if g[2] > 4:
                g[2] -= 4
            else:
                del groups[i]
            total -= 4
            pending = ((2 * g[0], 2 * g[1], 1),)
            merges += 1
    t0 = _terminal_t0(deg_a, (deg_v - deg_a * td) // tn, q_min)
    return ThresholdResult(t0, cremonas, merges)


def cubic_value(s: int, t: Fraction) -> Fraction:
    """t^3 - 3st + 2s at t, in Fractions."""
    return t * t * t - 3 * s * t + 2 * s


def _reference_bisect(s: int, lo: Fraction, hi: Fraction, precision: Fraction) -> RootBracket:
    while hi - lo >= precision:
        mid = (lo + hi) / 2
        v = cubic_value(s, mid)
        if v == 0:
            return RootBracket(mid, mid)
        if v < 0:
            lo = mid
        else:
            hi = mid
    return RootBracket(lo, hi)


def reference_largest_root(s: int, precision: Fraction) -> RootBracket:
    """The Fraction bisection that cubic.largest_root replaced: the oracle
    for its integer bisection on the dyadic grid.  It scans the integers
    down from ceil(sqrt(3s)) + 1 to the first one where the cubic is not
    positive, and bisects the unit interval right of it.  Every point is
    evaluated with cubic_value."""
    hi_end = math.isqrt(3 * s)
    if hi_end * hi_end < 3 * s:
        hi_end += 1
    hi_end += 1
    prev = Fraction(hi_end)
    assert cubic_value(s, prev) > 0
    for j in range(hi_end - 1, 0, -1):
        x = Fraction(j)
        v = cubic_value(s, x)
        if v > 0:
            prev = x
            continue
        if v == 0:
            assert j * j >= s, s  # a zero left of the dip is not the largest root
            return RootBracket(x, x)
        return _reference_bisect(s, x, prev, precision)
    raise AssertionError(f"s={s}: the cubic is positive at t = 1")


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
        root = largest_root(s, eps)
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
