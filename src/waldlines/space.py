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

The loop does not build its states.  The loop, replay_degeneration,
rendered_steps and DegenerationResult.steps all advance one private state,
which keeps the degree, the sum of the q_j and the subtracted total as
integers at one common scale D, reduced after every subtraction, and each
specialized line's end as its own reduced pair, fixed once the line is
specialized; so a step does O(1) work however many lines there are.  The
walks over a certificate reject a subtraction past the least q_j, which
the state's arithmetic assumes.  The loop applies the moves it picks
through the state's arithmetic directly, since its own branch already
implies what a move needs (a positive t0 and degree, a general line left);
the walks over a certificate go through the state's move method, which
rejects any move the state cannot take.  Per step the loop compares t0 with
tau and q_min on numerators and denominators, and the only Fraction it
makes is t0 itself, which the kernel returns in lowest terms.  The loop
records a compact certificate, the start (delta, s) and one (move, t0) pair
per step; a DegenerationResult is the answer and that certificate.  The
replay re-derives the threshold at every subtraction and checks the exit
without building a SpaceSystem.  rendered_steps, which trace-l prints,
writes each state's values straight from its integers and its lines'
ends, each reduced by one gcd into the text str(Fraction) gives; only
.steps, on first read, materializes the states as Fractions.  It stays because
perfbench/layers.py::_degeneration_info and the tests read it.  Callers that
read only the answer (best_bound, the CLI's bound, table and verify thm4)
and the replay never build a SpaceSystem.
"""

from __future__ import annotations

import enum
import functools
import math
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .cubic import largest_root
from .linform import RationalLike, as_rational, check_line_count, positive_rational
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


def _read(step: int | None, t: object) -> Fraction:
    """as_rational(t) for step ``step`` of a certificate (None: its start
    delta), its errors naming the step or the start."""
    try:
        return as_rational(t)
    except (TypeError, ValueError) as exc:
        where = "start" if step is None else f"step {step}"
        raise type(exc)(f"{where}: {exc}") from None


class _State:
    """A state (delta; q_1..q_m | 1^p) without its q_j, holding what the plane
    reduction reads (plane.SystemAggregates).  A line specialized when the
    subtractions totalled T_j has q_j = 1 - (T - T_j), and ``ends`` holds
    its end 1 + T_j, the total at which it reaches zero, as its own pair
    (numerator, denominator) in lowest terms, fixed from then on.  New lines
    join last with the greatest end, so the least and greatest q_j sit at
    the two ends and a subtraction zeroes a prefix.  Since t <= q_min (the
    loop's t0 is at most q_min, and the move method checks any other t),
    subtracting t lowers the sum of m lines by exactly m*t.

    ``deg``, ``qsum`` and ``total`` are delta, the sum of the q_j and T times
    one scale D.  A subtraction whose denominator does not divide D
    multiplies the three and D by the missing factor, and every subtraction
    then divides the four by their common gcd, so D stays their least
    common denominator.  The ends are never rescaled: each step pops the
    zeroed prefix and compares against the first and last end only, so it
    does O(1) work however many lines are specialized.  The state holds no
    Fraction copy of these values; error messages render them from its
    integers.

    The tests walk every certificate of the golden digest and of the
    benchmark's certify workload a second time on explicit q_j tuples,
    compare the state, its aggregates (read through scaled()) and the exit
    at every step, and check that the scale is reduced.  They also run the
    kernel on the state and on its materialized SpaceSystem at every step
    that records a t0, and require the same outcome."""

    def __init__(self, delta: Fraction, s: int) -> None:
        self.D, self.deg, self.p = delta.denominator, delta.numerator, s
        self.q_count, self.qsum, self.total, self.ends = 0, 0, 0, deque()

    def scaled(self) -> tuple[int, int, int, tuple[int, int] | None]:
        """q_min = e/d - total/D for the first end e/d, as the pair
        (e*D - total*d, d*D), which need not be in lowest terms."""
        if not self.ends:
            return self.D, self.deg, self.qsum, None
        e, d = self.ends[0]
        return self.D, self.deg, self.qsum, (e * self.D - self.total * d, d * self.D)

    def at_q_min(self, tn: int, td: int) -> bool:
        """Whether tn/td is the least q_j, e/d - total/D for the first end e/d."""
        if not self.ends:
            return False
        e, d = self.ends[0]
        return tn * d * self.D == (e * self.D - self.total * d) * td

    @classmethod
    def walk(cls, certificate: Certificate, tau: Fraction | None = None) -> Iterator[tuple]:
        """Yield (step, state, move, t) on arrival at each step of the
        certificate, then take the move; ``tau`` as in :meth:`move`.  A
        certificate or a step of the wrong shape is an AssertionError naming
        the start or the step: a certificate that is not a triple
        (delta, s, moves), moves that are not a tuple or list, no moves at
        all, or a step that is not a pair (move, t).  So is a start with
        delta <= 0 or s < 1; an s that is not an int is a TypeError, as in
        certify_lower_bound, and the start delta is read like any recorded
        value (see :meth:`move`)."""
        try:
            delta, s, moves = certificate
        except (TypeError, ValueError):
            raise AssertionError("start: a certificate is a triple (delta, s, moves)") from None
        if not isinstance(moves, tuple | list):
            raise AssertionError(f"start: the moves {moves!r} are not a tuple or list")
        if not moves:
            raise AssertionError("start: empty certificate")
        delta = _read(None, delta)
        if type(s) is not int:
            check_line_count(s)
        if delta <= 0 or s < 1:
            raise AssertionError(f"step 0: ({delta}; | 1^{s}) is not a start (delta; | 1^s)")
        state = cls(delta, s)
        for i, entry in enumerate(moves):
            try:
                move, t = entry
            except (TypeError, ValueError):
                raise AssertionError(f"step {i}: {entry!r} is not a pair (move, t)") from None
            yield i, state, move, t
            state.move(i, move, t, final=i == len(moves) - 1, tau=tau)

    def exit_yes(self) -> bool:
        """The "yes" exit: delta <= 0, delta < 1 with p >= 1, or delta < q_max,
        that is (deg + total)/D < e/d for the last end e/d."""
        if self.deg <= 0 or (self.deg < self.D and self.p >= 1):
            return True
        if not self.ends:
            return False
        e, d = self.ends[-1]
        return (self.deg + self.total) * d < e * self.D

    def move(self, step: int, move: LMove, t: Fraction | None, final: bool = False,
             tau: Fraction | None = None) -> None:
        """Take step ``step`` (``final``: the last) or raise an AssertionError
        naming it for a move the state cannot take: a subtraction of None or
        of t <= 0, from a degree <= 0 or past the least q_j, a specialization
        with no general line left, a move that is not an LMove, and a
        terminal move before the end.  Given ``tau``, a subtraction must also
        stay within t0 at tau.  A "yes" must record None.  Every other
        recorded value goes through as_rational, so a float or a bool there
        is a TypeError naming the step, as in the SpaceSystem constructor,
        and so is a None where a specialization or a "no" records its
        threshold."""
        if move is LMove.SUBTRACT:
            t = None if t is None else _read(step, t)
            if t is None or t.numerator <= 0 or self.deg <= 0:  # a Fraction's sign
                raise AssertionError(f"step {step}: subtraction of {t} from degree {_ratio(self.deg, self.D)}")
            if self.ends:
                qn, qd = self.scaled()[3]
                if t.numerator * qd > qn * t.denominator:
                    raise AssertionError(
                        f"step {step}: subtraction of {t} exceeds the least multiplicity {_ratio(qn, qd)}")
            if tau is not None:
                t0 = quadric_threshold(self, tau).t0
                if t.numerator * t0.denominator > t0.numerator * t.denominator:
                    raise AssertionError(f"step {step}: subtraction of {t} exceeds the threshold {t0}")
            self._subtract(t.numerator, t.denominator)
        elif move is LMove.SPECIALIZE:
            _read(step, t)  # the threshold the loop declined, exact like any recorded value
            if self.p == 0:
                raise AssertionError(f"step {step}: specialization with no general line left")
            self._specialize()
        elif not isinstance(move, LMove):
            raise AssertionError(f"step {step}: unknown move {move!r}")
        elif not final:
            raise AssertionError(f"step {step}: terminal move before the end")
        elif move is LMove.TERMINATE_YES:
            if t is not None:
                raise AssertionError(f"step {step}: a yes records {t!r}, not None")
        else:
            _read(step, t)

    def _specialize(self) -> None:
        """Specialize one general line (p > 0): it joins last with q = 1, so
        its end is (total + D)/D."""
        self.p -= 1
        self.q_count += 1
        self.qsum += self.D
        g = math.gcd(self.total, self.D)
        self.ends.append(((self.total + self.D) // g, self.D // g))

    def _subtract(self, tn: int, td: int) -> None:
        """Subtract t = tn/td (in lowest terms, 0 < t <= q_min): scale D, deg,
        qsum and total by the factor f that td adds to D, pop the ends the
        new total reaches, then divide the four by their common gcd.  The
        surviving ends are left as they are."""
        g = math.gcd(self.D, td)
        f, t = td // g, tn * (self.D // g)  # t at the scale D*f
        D, total = self.D * f, self.total * f + t
        deg, qsum = self.deg * f - 2 * t, self.qsum * f - self.q_count * t
        ends = self.ends
        while ends and ends[0][0] * D <= total * ends[0][1]:
            ends.popleft()
        g = math.gcd(D, deg, qsum, total)
        self.D, self.deg, self.qsum, self.total = D // g, deg // g, qsum // g, total // g
        self.q_count = len(ends)

    def system(self) -> SpaceSystem:
        """The state with its q_j = e/d - total/D built from the ends."""
        D, total = self.D, self.total
        qs = tuple(Fraction(e * D - total * d, d * D) for e, d in self.ends)
        return SpaceSystem(Fraction(self.deg, D), qs, self.p)


@dataclass(frozen=True)
class DegenerationResult:
    """A run's answer and its certificate (delta, s, ((move, t0), ...)): the
    start (delta; | 1^s) and one move per step, with the threshold computed
    there.  Results compare and hash by these two fields."""

    answer: bool
    certificate: Certificate

    @functools.cached_property
    def steps(self) -> tuple[DegenerationStep, ...]:
        """The states, built on first read by walking the certificate.  A
        move the state cannot take is an AssertionError naming the step."""
        walk = _State.walk(self.certificate)
        return tuple(DegenerationStep(state.system(), t, move) for _, state, move, t in walk)


def certify_lower_bound(
    delta: RationalLike,
    s: int,
    tau: RationalLike,
) -> DegenerationResult:
    """Run the degeneration loop on (delta; 1^s).

    A True answer certifies that the Waldschmidt constant of s very general
    lines in P^3 is at least delta.  A False answer certifies nothing.  An s
    that is not an int is a TypeError, as in a walk over a certificate, and
    s < 1, delta <= 0 or tau <= 0 is a ValueError.

    A step makes 8 Python-level calls, whatever the number of specialized
    lines: exit_yes, the kernel and the four calls it makes (tau's
    as_integer_ratio, scaled(), _terminal_t0 and t0's Fraction), t0's
    as_integer_ratio, and the move.
    """
    check_line_count(s)
    delta = positive_rational(delta, "delta")
    tau = positive_rational(tau, "tau")
    tn, td = tau.numerator, tau.denominator
    state = _State(delta, s)
    moves: list[tuple[LMove, Fraction | None]] = []
    for _ in range(MAX_STEPS):
        if state.exit_yes():
            moves.append((LMove.TERMINATE_YES, None))
            return DegenerationResult(True, (delta, s, tuple(moves)))
        t0 = quadric_threshold(state, tau).t0
        n, d = t0.as_integer_ratio()
        # the moves need no check: past the exit the degree is positive, a
        # subtraction has t0 >= tau > 0 or t0 = q_min > 0, and the branch
        # order gives a specialization p > 0
        if n * td >= tn * d or (n > 0 and state.at_q_min(n, d)):
            moves.append((LMove.SUBTRACT, t0))
            state._subtract(n, d)
        elif state.p > 0:
            moves.append((LMove.SPECIALIZE, t0))
            state._specialize()
        else:
            moves.append((LMove.TERMINATE_NO, t0))
            return DegenerationResult(False, (delta, s, tuple(moves)))
    raise IterationLimitError(
        f"degeneration exceeded {MAX_STEPS} iterations for delta={delta}, s={s}"
    )


def replay_degeneration(result: DegenerationResult, tau: RationalLike) -> tuple[Fraction, int]:
    """Check the certificate of ``result`` on the loop's own state, building
    no SpaceSystem, and return the (delta, s) of its start (delta; | 1^s).

    A subtraction of t is sound when t <= t0, the state's plane-reduction
    threshold at tau, since the base locus then holds t copies of the
    quadric; t0 is re-derived at every SUBTRACT once the move is found legal.
    The loop's rule for taking a subtraction only ensures termination and is
    not checked.  A "yes" needs the exit condition on the last state, a "no"
    its absence.  Every rejection is an AssertionError naming the step; a
    tau <= 0 is refused up front with the ValueError of certify_lower_bound.
    The returned delta is read by as_rational.  Checking a certificate costs
    about what producing it did.
    """
    for i, state, move, _ in _State.walk(result.certificate, positive_rational(tau, "tau")):
        pass  # the walk checks each move, and each threshold against tau
    want = LMove.TERMINATE_YES if result.answer else LMove.TERMINATE_NO
    if move is not want or state.exit_yes() != result.answer:
        raise AssertionError(f"step {i}: answer {result.answer} contradicts the exit")
    return as_rational(result.certificate[0]), result.certificate[1]


def search_ceiling(s: int, grid: Fraction) -> Fraction:
    """The greatest value best_bound(s, tau, grid) can return: e_s, enclosed
    within min(grid, 1/1000), with its upper end rounded up to the grid.
    best_bound bisects below it, and the result cache serves nothing above
    it."""
    root = largest_root(s, min(grid, Fraction(1, 1000)))
    return -(-root.hi // grid) * grid


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
    result smaller than the scan's.  The tests compare it with that scan for
    s = 2..14 and probe sampled grid points at s = 20 and 50.  It refuses
    s and tau as certify_lower_bound does, and a grid <= 0.
    """
    check_line_count(s)
    tau = positive_rational(tau, "tau")  # checked here too: s = 1 runs no probe
    grid = positive_rational(grid, "grid")
    lo = 1 // grid  # virtual "yes": lo * grid <= 1
    hi = search_ceiling(s, grid) // grid + 1  # virtual "no": one past the ceiling
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if certify_lower_bound(mid * grid, s, tau).answer:
            lo = mid
        else:
            hi = mid
    delta = lo * grid
    return delta if delta > 1 else Fraction(0)


class RenderedStep(NamedTuple):
    """A step as trace-l prints it: delta, the q_j and t0 as the text
    str(Fraction) gives (t0 None where the exit fired first), p and the
    move.  text() is the system's layout and to_json() the step's JSON
    object; the two are the only place either is written."""

    delta: str
    specialized: list[str]
    p: int
    t0: str | None
    move: LMove

    def text(self) -> str:
        """The system's one-line layout, e.g.
        "(10096/5045; 3/5045,3/5045,3/5045 | 1^5)"."""
        spec = ",".join(self.specialized) + " " if self.specialized else ""
        gen = "" if self.p == 0 else "1" if self.p == 1 else f"1^{self.p}"
        return f"({self.delta}; {spec}| {gen})"

    def to_json(self) -> dict:
        return {"delta": self.delta, "specialized": self.specialized, "p": self.p,
                "t0": self.t0, "move": self.move.value}


def _ratio(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, from one gcd and no Fraction."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def rendered_steps(result: DegenerationResult) -> Iterator[RenderedStep]:
    """Each step of ``result.steps`` as trace-l prints it: the state's delta
    and q_j, with the step's t0 and move, written from the walk's integers.
    No SpaceSystem, DegenerationStep or Fraction is built, and .steps is not
    read.  The tests compare it with .steps rendered through RenderedStep
    from str(Fraction) (tests/helpers.py)."""
    for _, state, move, t in _State.walk(result.certificate):
        D, total = state.D, state.total
        yield RenderedStep(_ratio(state.deg, D), [_ratio(e * D - total * d, d * D) for e, d in state.ends],
                           state.p, None if t is None else str(t), move)

