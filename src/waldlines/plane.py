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
only through their count, sum and least value, and delta, the sum and the
least value as integers at a common scale D: a SpaceSystem computes them
from its multiplicities with D the lcm of the denominators of delta and the
sum, and the degeneration loop in space.py holds them at its own reduced
scale and keeps them up to date with no Python code per specialized line.

The reduction has two implementations.  quadric_threshold, the one every
caller of t0 uses, runs on integers and returns t0 with the numbers of
Cremona moves and merges it took; outside its per-move loop a call builds
three integer forms and one tuple, and makes no Fraction but t0.
reference_reduction runs the same moves on the Fraction systems below and
records every state: it is the kernel's oracle in the tests and the trace
that ``trace-t`` prints.

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
        if out and out[-1][0] == lf:
            out[-1] = (lf, out[-1][1] + n)
        else:
            out.append((lf, n))
    return tuple(out)


@dataclass(frozen=True)
class SpaceSystem:
    """Space system (delta; q_1, ..., q_s | 1^p): a rational degree, s
    positive rational multiplicities along lines specialized to one ruling
    of the quadric, and p very general lines of multiplicity one.  The
    degree is unchecked, since the degeneration loop can drive it to zero or
    below; the plane reduction requires it positive."""

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
    positive denominator), or None when no line is specialized.  A
    SpaceSystem takes D = lcm(den delta, den q_sum); the loop's state holds
    its values at such a scale."""

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

    Tau-equal but polynomially distinct forms are ordered by (a, b) as a
    deterministic tiebreak; equal forms always end up in a single run.
    """
    tau = as_rational(tau)
    kept = [(lf, n) for lf, n in sys.groups if lf(tau) > 0]
    kept.sort(key=lambda g: (g[0](tau), g[0].a, g[0].b), reverse=True)
    return PlaneSystem(sys.degree, _squeeze(kept))


def cremona_k(sys: PlaneSystem) -> LinForm | None:
    """Degree minus the sum of the three greatest multiplicities, or None
    when fewer than three multiplicities remain."""
    if sys.mult_count < 3:
        return None
    k = sys.degree
    need = 3
    for lf, n in sys.groups:
        take = min(n, need)
        k = k - take * lf
        need -= take
        if need == 0:
            break
    return k


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
            return normalize(PlaneSystem(sys.degree, _squeeze(rest)), tau)
    return None


# Step cap of the plane reduction and of the degeneration loop.
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
    Fraction).  A form a + b*t is held as its value v = a*td + b*tn at
    tau = tn/td and its constant a: these determine
    b = (v - a*td)/tn, and ordering by (v, a) is normalize's order by
    (value, a, b).  The groups stay in normalized order: a move changes at
    most three of them, and the forms it makes are inserted by bisection
    when the next step begins (joining an equal form, dropping v <= 0)
    instead of re-sorting the whole list.  The three leading units are read
    by position from the last one, two or three groups, and the degree is
    held as (deg_v, deg_a), so k(tau) is deg_v minus the values of those
    units, with no multiplication by tau; the constant ka of k is formed
    only when a Cremona move is taken.
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
    for _ in range(MAX_STEPS):
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
    else:
        raise IterationLimitError(
            f"plane reduction exceeded {MAX_STEPS} steps for delta={Fraction(delta, D)}, p={p}, "
            f"q_count={s}, q_sum={Fraction(q, D)}, q_min={q_min and Fraction(*q_min)} at tau={tau}"
        )
    t0 = _terminal_t0(deg_a, (deg_v - deg_a * td) // tn, q_min)
    return tuple.__new__(ThresholdResult, (t0, cremonas, merges, ()))


def reference_reduction(inp: SystemAggregates, tau: RationalLike) -> ThresholdResult:
    """The reduction of :func:`quadric_threshold` by the public Fraction
    operations alone: normalize, a Cremona move while k(tau) < 0, else a
    four-fold merge, recording every state.  The oracle for the integer
    kernel, whose t0 and move counts must equal these, and the only
    reduction that records its steps (``trace-t`` renders them)."""
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
