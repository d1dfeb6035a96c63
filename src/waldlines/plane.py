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
returned threshold t0 encodes that range: the input's restriction-to-quadric
system is stably empty for all rational 0 <= t < t0.

Multiplicity lists are kept run-length encoded: systems routinely carry
hundreds of repeated entries (1^2p blocks), and every move touches at most a
handful of distinct values.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .linform import (
    LinForm,
    RationalLike,
    as_rational,
    format_linform,
    parse_linform,
)


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

    @classmethod
    def of(cls, degree: LinForm, mults: Iterable[LinForm]) -> "PlaneSystem":
        """Build from an explicit multiplicity list, squeezing adjacent runs."""
        return cls(degree, _squeeze(_as_group_list(mults)))

    @property
    def mult_count(self) -> int:
        return sum(n for _, n in self.groups)


def _as_group_list(mults: Iterable[LinForm | tuple[LinForm, int]]) -> list[tuple[LinForm, int]]:
    out: list[tuple[LinForm, int]] = []
    for m in mults:
        if isinstance(m, LinForm):
            out.append((m, 1))
        else:
            lf, n = m
            if n < 0:
                raise ValueError("negative multiplicity count")
            if n > 0:
                out.append((lf, n))
    return out


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
class ThresholdInput:
    """Input tuple (delta; q_1, ..., q_s; p): a rational degree, s positive
    rational multiplicities along specialized lines, and p extra very general
    lines of multiplicity one."""

    delta: Fraction
    qs: tuple[Fraction, ...]
    p: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", as_rational(self.delta))
        object.__setattr__(self, "qs", tuple(as_rational(q) for q in self.qs))
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if any(q.numerator <= 0 for q in self.qs):  # a Fraction has its numerator's sign
            raise ValueError("specialized multiplicities must be positive")
        if self.p < 0:
            raise ValueError("p must be nonnegative")


@dataclass(frozen=True)
class ReductionStep:
    """One recorded state: the normalized system, the defect k(t) computed
    for it (None with fewer than three multiplicities), and the move taken."""

    system: PlaneSystem
    k: LinForm | None
    move: Move


@dataclass(frozen=True)
class ThresholdResult:
    t0: Fraction
    steps: tuple[ReductionStep, ...]


def associate_system(inp: ThresholdInput) -> PlaneSystem:
    """The t-parametrized plane system attached to (delta; q_1..q_s; p).

    Restriction to a smooth quadric carrying the s specialized lines in one
    ruling, with the quadric subtracted t times, gives on the plane
    L2(2*delta - q + (s-4)t; delta - 2t, delta - q + (s-2)t, 1^(2p))
    where q is the sum of the q_j.
    """
    q = sum(inp.qs, Fraction(0))
    s = len(inp.qs)
    degree = LinForm(2 * inp.delta - q, Fraction(s - 4))
    m1 = LinForm(inp.delta, Fraction(-2))
    m2 = LinForm(inp.delta - q, Fraction(s - 2))
    groups = _as_group_list([m1, m2])
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


def _terminal_t0(a: int | Fraction, b: int | Fraction, qs: tuple[Fraction, ...]) -> Fraction:
    """The threshold formula of :func:`quadric_threshold` for the terminal
    degree a + b*t, which may be given at any positive scale."""
    if a >= 0:
        return Fraction(0)
    if b <= 0:
        return min(qs, default=Fraction(0))
    return min([Fraction(-a, b), *qs])


def _scaled_groups(inp: ThresholdInput) -> tuple[int, int, int, list[list[int]]]:
    """Integer form of the associated system, scaled by the lcm D of the
    denominators of delta and of q = sum(q_j): returns (D, deg_a, deg_b,
    groups) with groups entries [a, b, count].  The system depends on the
    q_j only through q, and scaling it uniformly changes no comparison and no
    root, so the reduction may run entirely in integer arithmetic.
    """
    # one lcm and integer terms: cheaper than a chain of Fraction additions
    L = math.lcm(*(qi.denominator for qi in inp.qs))
    q_sum = Fraction(sum(qi.numerator * (L // qi.denominator) for qi in inp.qs), L)
    D = math.lcm(inp.delta.denominator, q_sum.denominator)
    delta = inp.delta.numerator * (D // inp.delta.denominator)
    q = q_sum.numerator * (D // q_sum.denominator)
    s = len(inp.qs)
    deg_a, deg_b = 2 * delta - q, D * (s - 4)
    groups = [[delta, -2 * D, 1], [delta - q, D * (s - 2), 1]]
    if inp.p > 0:
        groups.append([D, 0, 2 * inp.p])
    return D, deg_a, deg_b, groups


def _unscale(D: int, deg_a: int, deg_b: int, groups: list[list[int]]) -> PlaneSystem:
    """The PlaneSystem of the kernel's ascending [v, a, b, count] list."""
    degree = LinForm(Fraction(deg_a, D), Fraction(deg_b, D))
    return PlaneSystem(
        degree,
        tuple((LinForm(Fraction(a, D), Fraction(b, D)), n) for _, a, b, n in reversed(groups)),
    )


def quadric_threshold(
    inp: ThresholdInput,
    tau: RationalLike,
    *,
    want_trace: bool = True,
) -> ThresholdResult:
    """Reduce the associated plane system and return the threshold t0.

    The loop alternates normalization, Cremona moves (while k(tau) < 0) and
    four-fold merges until neither applies.  With terminal degree a + b*t the
    threshold is

        0                      if a >= 0,
        min(q_j)               if a < 0 and b <= 0,
        min(-a/b, q_1..q_s)    otherwise,

    where an empty q-list drops the min(q_j) candidates (and the middle case
    returns 0).  ``want_trace=False`` skips step recording on hot paths.
    The result equals that of :func:`reference_reduction`.

    Internally the loop runs on the integer system scaled by
    lcm(den(delta), den(sum q_j)); evaluation at tau = tn/td becomes the
    integer v = a*td + b*tn, computed once per group.  The groups stay in
    normalized order: a move changes at most three of them, and those are
    re-inserted by bisection (joining an equal neighbour, dropping v <= 0)
    instead of re-sorting the whole list.  Recorded trace steps are scaled
    back to the systems the Fraction operations produce.
    """
    tau = as_rational(tau)
    if tau <= 0:
        raise ValueError("tau must be positive")
    tn, td = tau.numerator, tau.denominator
    D, deg_a, deg_b, initial = _scaled_groups(inp)
    # [v, a, b, count] ascending by (v, a, b), one entry per distinct form:
    # normalize's order reversed, so the greatest multiplicities are popped
    # from the end
    groups: list[list[int]] = []

    def insert(v: int, a: int, b: int, n: int) -> int:
        """Add n copies of a + b*t (value v at tau); returns how many are kept."""
        if v <= 0:
            return 0
        i = bisect_left(groups, [v, a, b])
        if i < len(groups) and groups[i][1] == a and groups[i][2] == b:
            groups[i][3] += n
        else:
            groups.insert(i, [v, a, b, n])
        return n

    total = sum(insert(a * td + b * tn, a, b, n) for a, b, n in initial)
    steps: list[ReductionStep] = []
    for _ in range(MAX_STEPS):
        ka = kb = None
        if total >= 3:
            ka, kb, need = deg_a, deg_b, 3
            for _, a, b, n in reversed(groups):
                if n >= need:
                    ka -= need * a
                    kb -= need * b
                    break
                ka -= n * a
                kb -= n * b
                need -= n
            kv = ka * td + kb * tn
        # Plain locals pick the move: an enum lookup per step would be
        # measurable on the untraced path.
        cremona = ka is not None and kv < 0
        merge_at = -1
        if not cremona:
            for i in range(len(groups) - 1, -1, -1):
                if groups[i][3] >= 4:
                    merge_at = i
                    break
        if want_trace:
            steps.append(
                ReductionStep(
                    _unscale(D, deg_a, deg_b, groups),
                    None if ka is None else LinForm(Fraction(ka, D), Fraction(kb, D)),
                    Move.CREMONA if cremona
                    else Move.MERGE if merge_at >= 0
                    else Move.TERMINATE,
                )
            )
        if cremona:
            deg_a += ka
            deg_b += kb
            # take the three leading units off first: a moved form may
            # overtake one that is still waiting to move
            moved = []
            need = 3
            while need:
                g = groups[-1]
                if g[3] > need:
                    g[3] -= need
                    moved.append((g[0] + kv, g[1] + ka, g[2] + kb, need))
                    break
                groups.pop()
                moved.append((g[0] + kv, g[1] + ka, g[2] + kb, g[3]))
                need -= g[3]
            total -= 3
            for v, a, b, n in moved:
                total += insert(v, a, b, n)
        elif merge_at >= 0:
            g = groups[merge_at]
            if g[3] > 4:
                g[3] -= 4
            else:
                del groups[merge_at]
            total -= 3
            insert(2 * g[0], 2 * g[1], 2 * g[2], 1)
        else:
            break
    else:
        raise IterationLimitError(
            f"plane reduction exceeded {MAX_STEPS} steps for input {inp}"
        )
    return ThresholdResult(_terminal_t0(deg_a, deg_b, inp.qs), tuple(steps))


def reference_reduction(inp: ThresholdInput, tau: RationalLike) -> ThresholdResult:
    """The reduction of :func:`quadric_threshold` by the public Fraction
    operations alone: normalize, a Cremona move while k(tau) < 0, else a
    four-fold merge, recording every state.  The oracle for the integer
    kernel, whose traced result must equal this one step for step."""
    tau = as_rational(tau)
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
            return ThresholdResult(_terminal_t0(sys.degree.a, sys.degree.b, inp.qs), tuple(steps))
        sys = nxt


def format_system(sys: PlaneSystem) -> str:
    """One-line rendering, e.g. "L2(9+t; 7-2t, 2+3t, 1^30)"."""
    parts = [
        format_linform(lf) if n == 1 else f"{format_linform(lf)}^{n}"
        for lf, n in sys.groups
    ]
    return f"L2({format_linform(sys.degree)}; {', '.join(parts)})"


def parse_system(text: str) -> PlaneSystem:
    """Inverse of :func:`format_system` (the "L2(" prefix is optional)."""
    s = text.strip()
    if s.startswith("L2(") and s.endswith(")"):
        s = s[3:-1]
    elif s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    head, _, tail = s.partition(";")
    degree = parse_linform(head)
    groups: list[tuple[LinForm, int]] = []
    tail = tail.strip()
    if tail:
        for chunk in tail.split(","):
            base, sep, exp = chunk.partition("^")
            n = int(exp) if sep else 1
            groups.append((parse_linform(base), n))
    return PlaneSystem(degree, _squeeze(groups))


def step_to_json(step: ReductionStep) -> dict:
    return {
        "degree": format_linform(step.system.degree),
        "mults": [[format_linform(lf), n] for lf, n in step.system.groups],
        "k": None if step.k is None else format_linform(step.k),
        "move": step.move.value,
    }
