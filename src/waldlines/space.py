"""Iterated quadric degeneration in P^3 and the certified bound search.

A space system (delta; q_1, ..., q_s | 1^p) records a rational degree delta,
multiplicities q_j along s lines specialized to one ruling of a fixed smooth
quadric Q, and p very general lines of multiplicity one.  Its type,
SpaceSystem, is defined in plane.py.  The degeneration loop either

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

The loop does not build its states.  It runs on the aggregates the plane
reduction reads (count, sum and least value of the q_j) plus the greatest q_j
for the exit, kept up to date in amortized O(1) Fraction operations per step,
and records a compact certificate: the start (delta, s) and one (move, t0)
pair per step.  A DegenerationResult is the answer and that certificate.
Its steps are the SpaceSystem states, rebuilt on first read by one walk that
rejects any move a state cannot take, so callers that only read the answer
never build them; replay_degeneration adds only the soundness checks (the
threshold at every subtraction, and the exit).
"""

from __future__ import annotations

import enum
import functools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

from .cubic import AsymptoticCubic, largest_root
from .linform import RationalLike, as_rational
from .plane import MAX_STEPS, IterationLimitError, SpaceSystem, quadric_threshold


class LMove(str, enum.Enum):
    SUBTRACT = "subtract"
    SPECIALIZE = "specialize"
    TERMINATE_YES = "terminate-yes"
    TERMINATE_NO = "terminate-no"


@dataclass(frozen=True)
class DegenerationStep:
    """System state on arrival at the exit check, the plane-reduction
    threshold computed for it (None when the exit fired first), and the move
    taken from it."""

    system: SpaceSystem
    t0: Fraction | None
    move: LMove


Certificate = tuple[Fraction, int, tuple[tuple[LMove, Fraction | None], ...]]


@dataclass(frozen=True)
class DegenerationResult:
    """A run's answer and its certificate (delta, s, ((move, t0), ...)): the
    start (delta; | 1^s) and one move per step, with the threshold computed
    there.  Results compare and hash by these two fields."""

    answer: bool
    certificate: Certificate

    @functools.cached_property
    def steps(self) -> tuple[DegenerationStep, ...]:
        """The states, rebuilt on first read by one walk over the certificate.
        A move the state cannot take is an AssertionError naming the step."""
        delta, s, moves = self.certificate
        if not moves:
            raise AssertionError("empty certificate")
        if delta <= 0 or s < 1:
            raise AssertionError(f"step 0: ({delta}; | 1^{s}) is not a start (delta; | 1^s)")
        sys, steps = SpaceSystem(delta, (), s), []
        for i, (move, t) in enumerate(moves):
            steps.append(DegenerationStep(sys, t, move))
            if move is LMove.SUBTRACT:
                if t is None or t <= 0 or sys.delta <= 0:
                    raise AssertionError(f"step {i}: subtraction of {t} from degree {sys.delta}")
                qs = tuple(q - t for q in sys.specialized if q > t)
                sys = SpaceSystem(sys.delta - 2 * t, qs, sys.p)
            elif move is LMove.SPECIALIZE:
                if sys.p == 0:
                    raise AssertionError(f"step {i}: specialization with no general line left")
                sys = SpaceSystem(sys.delta, sys.specialized + (Fraction(1),), sys.p - 1)
            elif i < len(moves) - 1:
                raise AssertionError(f"step {i}: terminal move before the end")
        return tuple(steps)


def _exit_yes(delta: Fraction, p: int, q_max: Fraction | None) -> bool:
    """The "yes" exit on a system of degree delta with p general lines and
    greatest specialized multiplicity q_max (None when none is specialized)."""
    if delta <= 0:
        return True
    if delta < 1 and p >= 1:
        return True
    return q_max is not None and delta < q_max


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
    # The state (delta; q_1..q_m | 1^p) without its q_j: a line specialized
    # when the subtractions totalled T_j has q_j = 1 - (total - T_j), and
    # `ends` holds 1 + T_j, the total at which it reaches zero.  New lines
    # join last with the greatest end, so the least and greatest q_j sit at
    # the two ends and a subtraction zeroes a prefix.  Since t0 <= q_min,
    # subtracting t0 lowers the sum of m lines by exactly m*t0.
    state = SimpleNamespace(delta=delta, p=s, q_count=0, q_sum=Fraction(0), q_min=None)
    total, ends = Fraction(0), deque()
    moves: list[tuple[LMove, Fraction | None]] = []
    for _ in range(MAX_STEPS):
        if _exit_yes(state.delta, state.p, ends[-1] - total if ends else None):
            moves.append((LMove.TERMINATE_YES, None))
            return DegenerationResult(True, (delta, s, tuple(moves)))
        t0 = quadric_threshold(state, tau, want_trace=False).t0
        if t0 >= tau or (t0 > 0 and t0 == state.q_min):
            moves.append((LMove.SUBTRACT, t0))
            state.delta -= 2 * t0
            state.q_sum -= state.q_count * t0
            total += t0
            while ends and ends[0] <= total:
                ends.popleft()
        elif state.p > 0:
            moves.append((LMove.SPECIALIZE, t0))
            state.p -= 1
            state.q_sum += 1
            ends.append(total + 1)
        else:
            moves.append((LMove.TERMINATE_NO, t0))
            return DegenerationResult(False, (delta, s, tuple(moves)))
        state.q_count = len(ends)
        state.q_min = ends[0] - total if ends else None
    raise IterationLimitError(
        f"degeneration exceeded {MAX_STEPS} iterations for delta={delta}, s={s}"
    )


def replay_degeneration(result: DegenerationResult, tau: RationalLike) -> tuple[Fraction, int]:
    """Check the certificate of ``result`` and return the (delta, s) of its
    start system (delta; | 1^s).

    Reading ``result.steps`` walks the certificate and rejects any move its
    state cannot take.  A subtraction of t from a state is sound when
    t <= t0, its plane-reduction threshold at tau, because the base locus
    then holds t copies of the quadric; so t0 is re-derived for every
    SUBTRACT step.  The loop's rule for taking a subtraction (t0 >= tau, or
    t0 equal to the least specialized multiplicity) only ensures termination
    and is not checked.  A "yes" needs the exit condition on the last
    system, a "no" its absence.  Every rejection is an AssertionError naming
    the step.
    """
    tau = as_rational(tau)
    steps = result.steps
    for i, step in enumerate(steps):
        if step.move is LMove.SUBTRACT:
            t0 = quadric_threshold(step.system, tau, want_trace=False).t0
            if step.t0 > t0:
                raise AssertionError(f"step {i}: subtraction of {step.t0} exceeds the threshold {t0}")
    last = steps[-1].system
    yes = _exit_yes(last.delta, last.p, max(last.specialized, default=None))
    want = LMove.TERMINATE_YES if result.answer else LMove.TERMINATE_NO
    if steps[-1].move is not want or yes != result.answer:
        raise AssertionError(f"step {len(steps) - 1}: answer {result.answer} contradicts the exit")
    return result.certificate[:2]


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
