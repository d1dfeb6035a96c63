"""Reduction of symbolic plane linear systems by Cremona moves and merges.

A plane system L2(d(t); m_1(t), ..., m_r(t)) records divisors of degree d(t)
in the plane with prescribed multiplicities m_j(t) at very general points;
degree and multiplicities are linear forms in t.  The reduction loop below
repeatedly

  * sorts the multiplicities non-increasingly at a fixed small tau > 0 and
    drops entries that are <= 0 there,
  * applies a standard Cremona move whenever the defect
    k(t) = degree - (three greatest multiplicities) is negative at tau, and
  * collapses four polynomially equal multiplicities into one doubled entry
    when no Cremona move applies.

Both moves preserve semi-effectivity, so if the terminal degree a + b*t is
forced negative on a t-range the original system is stably empty there.  The
input is a space system (delta; q_1..q_s | 1^p) and the returned threshold t0
encodes that range: its restriction-to-quadric system is stably empty for all
rational 0 <= t < t0.  Both reductions below read a space system only
through p, q_count and scaled() (SystemAggregates), so the q_j
only through their count, sum and least value: delta and the sum as
integers at a common scale D, and the least value as a pair of integers.
A SpaceSystem computes them from its multiplicities with D the lcm of the
denominators of delta and the sum; the degeneration loop in space.py holds
them at its own reduced scale and keeps them up to date with O(1) work per
step, however many lines are specialized.

The reduction has two implementations.  quadric_threshold, the one every
caller of t0 uses, runs on integers and returns t0 with the numbers of
Cremona moves and merges it took; outside its loop a call builds three
integer forms and one tuple, and makes no Fraction but t0.  Each form is
held as its value at tau, a big integer, and its t-coefficient, a small
one; the form's constant is recovered only for the terminal degree.  One
iteration of that loop takes one move, or in closed form a whole run of
Cremona moves that repeat one defect k.  reference_reduction runs the same moves one at
a time on the Fraction systems below and records every state: it is the
kernel's oracle in the tests and the trace that ``trace-t`` prints.

Multiplicity lists are kept run-length encoded: systems routinely carry
hundreds of repeated entries (1^2p blocks), and every move touches at most a
handful of distinct values.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple, Protocol

from .linform import LinForm, RationalLike, as_rational, format_linform


class IterationLimitError(RuntimeError):
    """Raised when a reduction exceeds its step cap.

    The loop provably terminates, so hitting the cap signals an
    implementation bug rather than a hard input.
    """


class Move(str, enum.Enum):
    CREMONA = "cremona"
    MERGE = "merge"
    TERMINATE = "terminate"


Groups = tuple[tuple[LinForm, int], ...]


@dataclass(frozen=True)
class PlaneSystem:
    """Plane linear system with run-length encoded multiplicities.

    ``groups`` is a sequence of (form, count) pairs in presentation order;
    equality is componentwise, so two systems compare equal exactly when
    their normalized presentations coincide.
    """

    degree: LinForm
    groups: Groups

    @property
    def mult_count(self) -> int:
        return sum(n for _, n in self.groups)


def _squeeze(groups: list[tuple[LinForm, int]]) -> Groups:
    """Merge adjacent equal-form runs without reordering."""
    out: list[tuple[LinForm, int]] = []
    for lf, n in groups:
        if out and (out[-1][0] is lf or out[-1][0] == lf):
            out[-1] = (lf, out[-1][1] + n)
        else:
            out.append((lf, n))
    return tuple(out)


@dataclass(frozen=True)
class SpaceSystem:
    """Space system (delta; q_1, ..., q_s | 1^p): a rational degree, s
    positive rational multiplicities along lines specialized to one ruling
    of the quadric, and p very general lines of multiplicity one.  The
    constructor requires every q_j > 0 and p >= 0 but leaves the degree
    unchecked, since the degeneration loop can drive it to zero or below;
    the plane reduction requires it positive."""

    delta: Fraction
    specialized: tuple[Fraction, ...]
    p: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", as_rational(self.delta))
        object.__setattr__(
            self, "specialized", tuple(as_rational(q) for q in self.specialized)
        )
        if any(q.numerator <= 0 for q in self.specialized):  # a Fraction has its numerator's sign
            raise ValueError("specialized multiplicities must be positive")
        if self.p < 0:
            raise ValueError("p must be nonnegative")

    @property
    def q_count(self) -> int:
        return len(self.specialized)

    def scaled(self) -> tuple[int, int, int, tuple[int, int] | None]:
        delta, q = self.delta, sum(self.specialized, Fraction(0))
        D = math.lcm(delta.denominator, q.denominator)
        q_min = min(self.specialized, default=None)
        return (D, delta.numerator * (D // delta.denominator), q.numerator * (D // q.denominator),
                None if q_min is None else q_min.as_integer_ratio())


class SystemAggregates(Protocol):
    """What both plane reductions read of a space system (a SpaceSystem or
    the degeneration loop's state): p, q_count and scaled(), which gives
    (D, D*delta, D*q_sum, q_min) for a positive integer D that makes both
    products integers, with q_min, the least q_j, as a pair (numerator,
    positive denominator), not necessarily in lowest terms, or None when
    no line is specialized.  A SpaceSystem takes D = lcm(den delta,
    den q_sum) and q_min in lowest terms; the loop's state holds its values
    at such a scale and gives q_min from its least line's end, unreduced.
    The tests check that a stub holding only these three gives both
    reductions the same outcome as the system it copies."""

    p: int
    q_count: int

    def scaled(self) -> tuple[int, int, int, tuple[int, int] | None]: ...


@dataclass(frozen=True)
class ReductionStep:
    """One recorded state: the normalized system, the defect k(t) computed
    for it (None with fewer than three multiplicities), and the move taken."""

    system: PlaneSystem
    k: LinForm | None
    move: Move


class ThresholdResult(NamedTuple):
    """The threshold and the numbers of Cremona moves and merges taken;
    ``steps``, every recorded state, is filled by reference_reduction only.
    A tuple, so the kernel builds it with tuple.__new__ and runs no Python
    constructor per call."""

    t0: Fraction
    cremona: int
    merge: int
    steps: tuple[ReductionStep, ...] = ()


def associate_system(inp: SystemAggregates) -> PlaneSystem:
    """The t-parametrized plane system attached to (delta; q_1..q_s | 1^p).

    Restriction to a smooth quadric carrying the s specialized lines in one
    ruling, with the quadric subtracted t times, gives on the plane
    L2(2*delta - q + (s-4)t; delta - 2t, delta - q + (s-2)t, 1^(2p))
    where q is the sum of the q_j.
    """
    D, delta, q, _ = inp.scaled()
    s = inp.q_count
    degree = LinForm(Fraction(2 * delta - q, D), Fraction(s - 4))
    m1 = LinForm(Fraction(delta, D), Fraction(-2))
    m2 = LinForm(Fraction(delta - q, D), Fraction(s - 2))
    groups = [(m1, 1), (m2, 1)]
    if inp.p > 0:
        groups.append((LinForm.const(1), 2 * inp.p))
    return PlaneSystem(degree, _squeeze(groups))


def normalize(sys: PlaneSystem, tau: RationalLike) -> PlaneSystem:
    """Sort multiplicities non-increasingly at tau and drop entries <= 0 there.

    Each form is evaluated at tau once (a form object called again with the
    same tau returns its kept value), and that value serves both the filter
    and the sort.  The kept values are scaled to integers by the lcm of
    their denominators, and the groups sort on the exact key (scaled value,
    a, b), so tau-equal but polynomially distinct forms are ordered by
    (a, b) as a deterministic tiebreak.  Adjacent groups are joined exactly
    where their keys are equal, so equal forms always end up in a single
    run; the (form, count) groups kept are otherwise the input's own.
    """
    tau = as_rational(tau)
    kept = [(v, g) for g in sys.groups if (v := g[0](tau)).numerator > 0]
    scale = math.lcm(*[v.denominator for v, _ in kept])
    keyed = [((v.numerator * (scale // v.denominator), g[0].a, g[0].b), g) for v, g in kept]
    keyed.sort(key=itemgetter(0), reverse=True)
    out: list[tuple[LinForm, int]] = []
    last = None
    for key, g in keyed:
        if key == last:
            out[-1] = (g[0], out[-1][1] + g[1])
        else:
            out.append(g)
            last = key
    return PlaneSystem(sys.degree, tuple(out))


def cremona_k(sys: PlaneSystem) -> LinForm | None:
    """Degree minus the sum of the three greatest multiplicities, or None
    when fewer than three multiplicities remain.  The coefficients are
    summed directly, and a single unit is not multiplied by 1."""
    if sys.mult_count < 3:
        return None
    a, b = sys.degree.a, sys.degree.b
    need = 3
    for lf, n in sys.groups:
        take = min(n, need)
        if take == 1:
            a -= lf.a
            b -= lf.b
        else:
            a -= take * lf.a
            b -= take * lf.b
        need -= take
        if need == 0:
            break
    return LinForm(a, b)


def apply_cremona(sys: PlaneSystem, k: LinForm) -> PlaneSystem:
    """Add k to the degree and to the three leading multiplicities.

    Positions are preserved and no re-sorting happens here, so applying k and
    then -k restores the system exactly; callers re-normalize afterwards.
    """
    if sys.mult_count < 3:
        raise ValueError("need at least three multiplicities for a Cremona move")
    new_groups: list[tuple[LinForm, int]] = []
    need = 3
    for lf, n in sys.groups:
        if need == 0:
            new_groups.append((lf, n))
            continue
        take = min(n, need)
        new_groups.append((lf + k, take))
        if n > take:
            new_groups.append((lf, n - take))
        need -= take
    return PlaneSystem(sys.degree + k, _squeeze(new_groups))


def merge_four(sys: PlaneSystem, tau: RationalLike) -> PlaneSystem | None:
    """Replace four equal multiplicities by one entry of twice the value.

    Expects a normalized system.  When several values occur four or more
    times the greatest at tau is merged; the result is re-normalized.
    Returns None when no value occurs four times.
    """
    for i, (lf, n) in enumerate(sys.groups):
        if n >= 4:
            rest = list(sys.groups)
            if n - 4 > 0:
                rest[i] = (lf, n - 4)
            else:
                del rest[i]
            rest.append((2 * lf, 1))
            return normalize(PlaneSystem(sys.degree, tuple(rest)), tau)
    return None


# Step cap of the degeneration loop and of the plane reduction's loop
# iterations (a run of Cremona moves with one k is one iteration).
MAX_STEPS = 1_000_000


def _terminal_t0(a: int | Fraction, b: int | Fraction, q_min: tuple[int, int] | None) -> Fraction:
    """The threshold formula of :func:`quadric_threshold` for the terminal
    degree a + b*t, which may be given at any positive scale, and q_min as
    scaled() gives it."""
    if a >= 0:
        return Fraction(0)
    if q_min is not None:
        qn, qd = q_min
        if b <= 0 or qn * b <= -a * qd:  # q_min <= -a/b
            return Fraction(qn, qd)
    elif b <= 0:
        return Fraction(0)
    return Fraction(-a, b)


def quadric_threshold(inp: SystemAggregates, tau: RationalLike) -> ThresholdResult:
    """Reduce the plane system associated with ``inp``, whose degree must be
    positive, and return the threshold t0.  Of ``inp`` only p, q_count and
    scaled() are read (SystemAggregates): a SpaceSystem computes them from
    its q_j, the degeneration loop's state holds them, so a call from the
    loop does no work per specialized line and takes no lcm.

    The loop alternates normalization, Cremona moves (while k(tau) < 0) and
    four-fold merges until neither applies.  With terminal degree a + b*t the
    threshold is

        0                      if a >= 0,
        q_min                  if a < 0 and b <= 0,
        min(-a/b, q_min)       otherwise,

    where q_min is the least q_j; with no specialized lines it drops out
    (and the middle case returns 0).  The result carries t0 and the
    numbers of Cremona moves and merges, which equal those of
    :func:`reference_reduction`; it records no steps.

    Internally the loop runs on the integer system scaled by the D of
    ``inp.scaled()``: the system depends on the q_j only through their sum,
    and scaling it uniformly changes no comparison and no root.  q_min is
    compared by cross-multiplying.  The three forms of the associated
    system are built inline from these integers, and the result is made
    with tuple.__new__: outside the per-move loop a call from the loop runs
    no Python code but tau's as_integer_ratio, scaled(), _terminal_t0 and
    t0's Fraction (tau goes through as_rational only when it is not a
    Fraction).  Scaled by D, a form a/D + b*t has an integer constant a,
    and its t-coefficient b is an integer too: the associated system's are
    s - 4, -2, s - 2 and 0, and Cremona moves (which add k) and merges
    (which double) keep them integers.  The form is held as (v, w): its
    value at tau = tn/td scaled by D*td, v = a*td - w*D*tn, and w = -b, a
    small integer; a stays implicit.  Since D*tn > 0, for equal
    v the constant a = (v + w*D*tn)/td grows with w, so ordering by (v, w)
    is ordering by (v, a), normalize's order by (value, a, b), and (v, w)
    are equal exactly when (v, a) are, that is when the forms are.  The
    groups stay in normalized order: a move changes at most three of them,
    and the forms it makes are inserted by bisection when the next step
    begins (joining an equal form, dropping v <= 0) instead of re-sorting
    the whole list.  The three leading units are read by position from the
    last one, two or three groups, and the degree is held as
    (deg_v, deg_w), so k(tau) is deg_v minus the values of those units,
    with no multiplication by tau, and k's second coordinate kw is a sum of
    small integers, formed only when a Cremona move is taken.  The terminal
    degree's constant is recovered once, by the exact division
    a = (deg_v + deg_w*D*tn)/td, and its t-coefficient at the scale D is
    -deg_w*D.

    A run of moves with one k is taken in one iteration.  Let the three
    leading units be one of the top form m and two of the form u just below
    it, which has c units, so k = deg - m - 2u.  A move leaves the degree
    deg + k, one unit of m + k, two of u + k and c - 2 of u.  Since
    k(tau) < 0, u + k lies below u; so while m + k lies strictly above u
    in the (v, w) order and u keeps two units, these are again the leading
    units, and the next defect is (deg + k) - (m + k) - 2u = k.  The move
    repeats, and after j of them the top form is m + j*k, u keeps c - 2j
    units and 2j units of u + k lie below it.  Move j + 1 is taken while
    2j + 2 <= c and m + j*k lies above u.  With q, r = divmod(v_m - v_u,
    -kv), m + j*k lies above u in value for j <= q when r > 0, and for j < q
    when r = 0; at j = q the values then tie, and the second coordinates
    decide: m + q*k lies above u when w_m - w_u + q*kw > 0, which at
    equal values is the sign of the difference of the two constants, as
    shown above.  So the run has J = min(c // 2, J_order) moves, with
    J_order = q + 1 if r > 0, else q + [w_m - w_u + q*kw > 0].  It leaves
    the degree deg + J*k and c - 2J units of u, and pending forms
    (m + J*k, 1) and (u + k, 2J), inserted like any (either is dropped when
    its value is <= 0).  It counts J Cremona moves.  total counts the units
    in the groups: the run takes off m and 2J units of u, so it falls by
    2J + 1, not 3J; one move at a time would have inserted each of the
    J - 1 forms m + j*k in between, and taken it off again.  The run is
    entered only when c >= 4 and v_m + kv > v_u, so that J >= 2; otherwise
    the single move is taken.  MAX_STEPS caps the iterations of the loop,
    so a run counts once, however many moves it takes.

    The tests compare this kernel with the one-move-per-iteration kernel it
    replaced (stepwise_quadric_threshold in tests/helpers.py) on every
    kernel call of the golden-digest certifications, (11.569; 1^50),
    (16.636; 1^100) and (23.8; 1^200), and pin one input for each way a run
    ends.
    """
    if not isinstance(tau, Fraction):  # the loop and the replay pass a Fraction
        tau = as_rational(tau)
    tn, td = tau.as_integer_ratio()
    if tn <= 0:  # a Fraction has its numerator's sign
        raise ValueError("tau must be positive")
    D, delta, q, q_min = inp.scaled()
    if delta <= 0:
        raise ValueError("the plane reduction needs a positive degree")
    # the associated system L2(2delta - q + (s-4)t; delta - 2t,
    # delta - q + (s-2)t, 1^2p) at the scale D, each form as (v, w)
    s, p, Dt = inp.q_count, inp.p, D * tn
    deg_w = 4 - s
    deg_v = (2 * delta - q) * td - deg_w * Dt
    pending = [(delta * td - 2 * Dt, 2, 1), ((delta - q) * td + (s - 2) * Dt, 2 - s, 1)]
    if p > 0:
        pending.append((D * td, 0, 2 * p))
    # [v, w, count] ascending by (v, w), one entry per distinct form:
    # normalize's order reversed, so the leading multiplicities sit at the
    # end; total counts the units kept
    groups: list[list[int]] = []
    total = 0
    # pending: (v, w, count) of the forms a move made (at first, of the
    # associated system), inserted when the next step begins
    cremonas = merges = 0
    for _ in range(MAX_STEPS):
        for v, w, n in pending:
            if v > 0:
                i = bisect_left(groups, [v, w])
                if i < len(groups) and (g := groups[i])[0] == v and g[1] == w:
                    g[2] += n
                else:
                    groups.insert(i, [v, w, n])
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
            # the t-part kw of k is needed only here; take the three leading
            # units off before inserting any: a moved form may overtake one
            # that is still waiting to move
            if lead == 1:
                kw = deg_w - 3 * g1[1]
                pending = ((g1[0] + kv, g1[1] + kw, 3),)
                if n1 > 3:
                    g1[2] = n1 - 3
                else:
                    groups.pop()
            elif lead == 2:
                n2 = 3 - n1
                kw = deg_w - n1 * g1[1] - n2 * g2[1]
                c = g2[2]
                if n1 == 1 and c >= 4 and g1[0] + kv > g2[0]:
                    # a run of J >= 2 moves with this k (see the docstring)
                    q, r = divmod(g1[0] - g2[0], -kv)
                    j = min(c // 2, q + 1 if r else q + (g1[1] - g2[1] + q * kw > 0))
                    pending = ((g1[0] + j * kv, g1[1] + j * kw, 1), (g2[0] + kv, g2[1] + kw, 2 * j))
                    groups.pop()
                    if c > 2 * j:
                        g2[2] = c - 2 * j
                    else:
                        groups.pop()
                    deg_v += j * kv
                    deg_w += j * kw
                    total -= 2 * j + 1
                    cremonas += j
                    continue
                pending = ((g1[0] + kv, g1[1] + kw, n1), (g2[0] + kv, g2[1] + kw, n2))
                groups.pop()
                if g2[2] > n2:
                    g2[2] -= n2
                else:
                    groups.pop()
            else:
                kw = deg_w - g1[1] - g2[1] - g3[1]
                pending = ((g1[0] + kv, g1[1] + kw, 1), (g2[0] + kv, g2[1] + kw, 1),
                           (g3[0] + kv, g3[1] + kw, 1))
                if g3[2] > 1:
                    g3[2] -= 1
                    del groups[-2:]
                else:
                    del groups[-3:]
            deg_v += kv
            deg_w += kw
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
    else:
        raise IterationLimitError(
            f"plane reduction exceeded {MAX_STEPS} steps for delta={Fraction(delta, D)}, p={p}, "
            f"q_count={s}, q_sum={Fraction(q, D)}, q_min={q_min and Fraction(*q_min)} at tau={tau}"
        )
    # the terminal degree a + b*t at the scale D: a from the exact division
    # deg_v + deg_w*Dt = a*td, and b = -deg_w*D
    t0 = _terminal_t0((deg_v + deg_w * Dt) // td, -deg_w * D, q_min)
    return tuple.__new__(ThresholdResult, (t0, cremonas, merges, ()))


def reference_reduction(inp: SystemAggregates, tau: RationalLike) -> ThresholdResult:
    """The reduction of :func:`quadric_threshold` by the public Fraction
    operations alone: normalize, a Cremona move while k(tau) < 0, else a
    four-fold merge, recording every state.  The oracle for the integer
    kernel, whose t0 and move counts must equal these, and the only
    reduction that records its steps (``trace-t`` renders them).  It
    re-sorts the whole system after every move, but evaluates each form
    object at tau once per reduction: a form kept from one step to the next
    returns the value it kept, so a step computes only the forms its move
    made and k.  No memo is passed around; the values live on the forms and
    are exact, and the reduction shares no code or scale with the kernel.

    The tests require the kernel's t0 and its numbers of Cremona moves and
    merges to equal these on random inputs and on states of the
    degeneration loop.  They do not see the kernel's intermediate systems,
    so an ordering slip that leaves t0 and both counts unchanged would pass
    them."""
    tau = as_rational(tau)
    _, delta, _, q_min = inp.scaled()
    if delta <= 0:
        raise ValueError("the plane reduction needs a positive degree")
    sys = normalize(associate_system(inp), tau)
    steps: list[ReductionStep] = []
    while True:
        k = cremona_k(sys)
        if k is not None and k(tau) < 0:
            move, nxt = Move.CREMONA, normalize(apply_cremona(sys, k), tau)
        else:
            nxt = merge_four(sys, tau)
            move = Move.TERMINATE if nxt is None else Move.MERGE
        steps.append(ReductionStep(sys, k, move))
        if nxt is None:
            moves = Counter(step.move for step in steps)
            t0 = _terminal_t0(sys.degree.a, sys.degree.b, q_min)
            return ThresholdResult(t0, moves[Move.CREMONA], moves[Move.MERGE], tuple(steps))
        sys = nxt


def format_system(sys: PlaneSystem) -> str:
    """One-line rendering, e.g. "L2(9+t; 7-2t, 2+3t, 1^30)"."""
    parts = [
        format_linform(lf) if n == 1 else f"{format_linform(lf)}^{n}"
        for lf, n in sys.groups
    ]
    return f"L2({format_linform(sys.degree)}; {', '.join(parts)})"


def step_to_json(step: ReductionStep) -> dict:
    return {
        "degree": format_linform(step.system.degree),
        "mults": [[format_linform(lf), n] for lf, n in step.system.groups],
        "k": None if step.k is None else format_linform(step.k),
        "move": step.move.value,
    }
