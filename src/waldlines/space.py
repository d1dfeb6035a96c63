"""Iterated quadric degeneration in P^3 and the certified bound search.

A space system (delta; q_1, ..., q_s | 1^p) records a rational degree delta,
multiplicities q_j along s lines specialized to one ruling of a fixed smooth
quadric Q, and p very general lines of multiplicity one.  The degeneration
loop either

  * stops with "yes" when the degree is forced below a prescribed
    multiplicity (delta < 1 with p >= 1, or delta < q_j, or delta <= 0) --
    a non-empty system cannot have degree below its vanishing order along a
    line, so the start system was stably empty;
  * subtracts the quadric: with threshold t0 from the plane reduction the new
    system is (delta - 2*t0; q_1 - t0, ..., q_s - t0 | 1^p), dropping
    multiplicities that reach zero; or
  * specializes one more very general line into the ruling.

Every move preserves semi-effectivity, so a "yes" on (delta; 1^s) certifies
delta as a lower bound for the Waldschmidt constant of s very general lines.

A subtraction is taken when t0 >= tau, and also when 0 < t0 < tau but t0
equals the least specialized multiplicity: such a step removes at least one
specialized line, so termination is preserved, and the worked traces this
code reproduces take exactly these sub-tau steps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .cubic import AsymptoticCubic, largest_root
from .linform import RationalLike, as_rational
from .plane import (
    MAX_STEPS,
    IterationLimitError,
    ThresholdInput,
    quadric_threshold,
)


class LMove(str, enum.Enum):
    SUBTRACT = "subtract"
    SPECIALIZE = "specialize"
    TERMINATE_YES = "terminate-yes"
    TERMINATE_NO = "terminate-no"


@dataclass(frozen=True)
class SpaceSystem:
    delta: Fraction
    specialized: tuple[Fraction, ...]
    p: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", as_rational(self.delta))
        object.__setattr__(
            self, "specialized", tuple(as_rational(q) for q in self.specialized)
        )
        if any(q <= 0 for q in self.specialized):
            raise ValueError("specialized multiplicities must stay positive")
        if self.p < 0:
            raise ValueError("p must be nonnegative")


@dataclass(frozen=True)
class DegenerationStep:
    """System state on arrival at the exit check, the plane-reduction
    threshold computed for it (None when the exit fired first), and the move
    taken from it."""

    system: SpaceSystem
    t0: Fraction | None
    move: LMove


@dataclass(frozen=True)
class DegenerationResult:
    answer: bool
    steps: tuple[DegenerationStep, ...]

    @property
    def final(self) -> SpaceSystem:
        return self.steps[-1].system


def _exit_yes(delta: Fraction, p: int, q_max: Fraction | None) -> bool:
    """The "yes" exit on a system of degree delta with p general lines and
    greatest specialized multiplicity q_max (None when none is specialized)."""
    if delta <= 0:
        return True
    if delta < 1 and p >= 1:
        return True
    return q_max is not None and delta < q_max


def _derived(delta: Fraction, specialized: tuple[Fraction, ...], p: int) -> SpaceSystem:
    """A SpaceSystem built from a checked one by a loop move, without
    re-checking its O(s) multiplicities."""
    sys = object.__new__(SpaceSystem)
    sys.__dict__.update(delta=delta, specialized=specialized, p=p)
    return sys


def certify_lower_bound(
    delta: RationalLike,
    s: int,
    tau: RationalLike,
) -> DegenerationResult:
    """Run the degeneration loop on (delta; 1^s).

    A True answer certifies that the Waldschmidt constant of s very general
    lines in P^3 is at least delta.  A False answer certifies nothing.
    """
    delta = as_rational(delta)
    tau = as_rational(tau)
    if delta <= 0:
        raise ValueError("delta must be positive")
    if tau <= 0:
        raise ValueError("tau must be positive")
    if s < 1:
        raise ValueError("s must be positive")
    # Every subtraction takes the same t0 from each specialized line and new
    # lines enter at 1, above them all, so `specialized` stays non-decreasing:
    # its first entry is the least multiplicity and its last the greatest.
    sys = SpaceSystem(delta, (), s)
    steps: list[DegenerationStep] = []
    for _ in range(MAX_STEPS):
        d, qs, p = sys.delta, sys.specialized, sys.p
        if _exit_yes(d, p, qs[-1] if qs else None):
            steps.append(DegenerationStep(sys, None, LMove.TERMINATE_YES))
            return DegenerationResult(True, tuple(steps))
        t0 = quadric_threshold(
            ThresholdInput(d, qs, p),
            tau,
            want_trace=False,
        ).t0
        if t0 >= tau or (t0 > 0 and qs and t0 == qs[0]):
            steps.append(DegenerationStep(sys, t0, LMove.SUBTRACT))
            # the lines that reach zero are a prefix
            drop = 0
            while drop < len(qs) and qs[drop] <= t0:
                drop += 1
            sys = _derived(d - 2 * t0, tuple(q - t0 for q in qs[drop:]), p)
            continue
        if p > 0:
            steps.append(DegenerationStep(sys, t0, LMove.SPECIALIZE))
            sys = _derived(d, qs + (Fraction(1),), p - 1)
            continue
        steps.append(DegenerationStep(sys, t0, LMove.TERMINATE_NO))
        return DegenerationResult(False, tuple(steps))
    raise IterationLimitError(
        f"degeneration exceeded {MAX_STEPS} iterations for delta={delta}, s={s}"
    )


def replay_degeneration(result: DegenerationResult, tau: RationalLike) -> tuple[Fraction, int]:
    """Check the certificate ``result`` and return the (delta, s) of its
    start system (delta; | 1^s).

    Each recorded system is re-derived from its predecessor and declared
    move.  A subtraction of t from a state is sound when 0 < t <= t0, its
    plane-reduction threshold at tau, because the base locus then holds t
    copies of the quadric; so t0 is re-derived for every SUBTRACT step.  The
    loop's rule for taking a subtraction (t0 >= tau, or t0 equal to the least
    specialized multiplicity) only ensures termination and is not checked.
    A "yes" needs the exit condition on the last system, a "no" its
    absence.  Every rejection is an AssertionError naming the step.
    """
    tau = as_rational(tau)
    steps = result.steps
    if not steps:
        raise AssertionError("empty trace")
    start = steps[0].system
    if start.specialized or start.p < 1 or start.delta <= 0:
        raise AssertionError(f"step 0: {format_space_system(start)} is not (delta; | 1^s)")
    for i, step in enumerate(steps[:-1]):
        sys, t, nxt = step.system, step.t0, steps[i + 1].system
        if step.move is LMove.SUBTRACT:
            if t is None or t <= 0 or sys.delta <= 0:
                raise AssertionError(f"step {i}: subtraction of {t} from degree {sys.delta}")
            inp = ThresholdInput(sys.delta, sys.specialized, sys.p)
            t0 = quadric_threshold(inp, tau, want_trace=False).t0
            if t > t0:
                raise AssertionError(f"step {i}: subtraction of {t} exceeds the threshold {t0}")
            expect = (sys.delta - 2 * t, tuple(q - t for q in sys.specialized if q > t), sys.p)
        elif step.move is LMove.SPECIALIZE:
            expect = (sys.delta, sys.specialized + (Fraction(1),), sys.p - 1)
        else:
            raise AssertionError(f"step {i}: terminal move before end of trace")
        if expect != (nxt.delta, nxt.specialized, nxt.p):
            raise AssertionError(f"step {i}: recorded successor diverges from replay")
    last = steps[-1].system
    yes = _exit_yes(last.delta, last.p, max(last.specialized, default=None))
    want = LMove.TERMINATE_YES if result.answer else LMove.TERMINATE_NO
    if steps[-1].move is not want or yes != result.answer:
        raise AssertionError(f"step {len(steps) - 1}: answer {result.answer} contradicts the exit")
    return start.delta, start.p


def best_bound(
    s: int,
    tau: RationalLike,
    grid: RationalLike,
) -> Fraction:
    """Largest grid multiple delta > 1 certified by the degeneration loop.

    Bisects over grid indices between 1 and the conjectural upper bound (the
    largest root of t^3 - 3st + 2s, rounded up to the grid).  The index just
    below the range stands for a "yes" and the one just above for a "no";
    every midpoint is one ``certify_lower_bound`` run.  The result is a
    certified delta whose successor delta + grid is not certified, or 0 when
    no probed grid point above 1 is certified.

    When the certified grid points form a down-set (no "no" below a "yes"),
    this is the largest certified grid point, i.e. what a downward scan
    from the upper bound returns, in O(log) probes instead of one per grid
    point.  Only values that were actually certified are returned, so
    soundness does not depend on that premise; a hole would only make the
    result smaller than the scan's.
    """
    tau = as_rational(tau)
    grid = as_rational(grid)
    if grid <= 0:
        raise ValueError("grid must be positive")
    root = largest_root(AsymptoticCubic(s), min(grid, Fraction(1, 1000)))
    assert root is not None  # k = 0 cubics always have a root >= 1
    lo = 1 // grid  # virtual "yes": lo * grid <= 1
    hi = -(-root.hi // grid) + 1  # virtual "no": one past ceil to the grid
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if certify_lower_bound(mid * grid, s, tau).answer:
            lo = mid
        else:
            hi = mid
    delta = lo * grid
    return delta if delta > 1 else Fraction(0)


def format_space_system(sys: SpaceSystem) -> str:
    """One-line rendering, e.g. "(10096/5045; 3/5045,3/5045,3/5045 | 1^5)"."""
    spec = ",".join(str(q) for q in sys.specialized)
    if spec:
        spec += " "
    if sys.p == 0:
        gen = ""
    elif sys.p == 1:
        gen = "1"
    else:
        gen = f"1^{sys.p}"
    return f"({sys.delta}; {spec}| {gen})"


def step_to_json(step: DegenerationStep) -> dict:
    return {
        "delta": str(step.system.delta),
        "specialized": [str(q) for q in step.system.specialized],
        "p": step.system.p,
        "t0": None if step.t0 is None else str(step.t0),
        "move": step.move.value,
    }
