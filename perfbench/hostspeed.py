"""Host speed, measured next to every timed op, so that times can be given at
a fixed reference speed.

On a shared machine the throughput of a core drifts by 20% and more within
minutes, and it moves the fastest samples as much as the median.  So the
benchmark runs a small fixed kernel right before and right after each op and
reports the op's time scaled to REFERENCE_S:

    time at reference speed = measured time * REFERENCE_S / kernel time

where the kernel time is the mean of the two kernel runs around the op.  The
kernel mixes exact rational arithmetic from the standard library, the kind
of work the program does, with plain integer arithmetic, and calls nothing
of the program.  So a change to the program moves the scaled time just as it
moves the measured one, while a change of the host's speed moves both the op
and the kernel and cancels out.  The kernel runs with the garbage collector
off, so the program's heap does not slow it.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

# Kernel time that defines the reference speed.  On a 2-vCPU cloud VM under
# CPython 3.11 the kernel took 2-4 ms, 2.5 ms in calm periods.
REFERENCE_S = 0.0025
REPEATS = 2


def _kernel() -> int:
    # Half small-denominator Fraction arithmetic with a dict and a list, half
    # plain int arithmetic: on its own, the first slows more than the program
    # when the host slows, and the second less.
    acc, step = Fraction(0), Fraction(1, 1000)
    for i in range(1, 200):
        a = Fraction(i % 17 + 1, i % 13 + 2)
        acc = (acc + a * step) % 7
        pair = {"a": a, "acc": acc}
        [pair["a"], acc]
    n = 0
    for i in range(15000):
        n += i * i % 7
    return n


def kernel_time() -> float:
    """Fastest of REPEATS kernel runs, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            start = perf_counter()
            _kernel()
            best = min(best, perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


def scale(measured: float, before: float, after: float) -> float:
    """`measured` seconds at reference speed, given the kernel times taken
    right before and right after the measured interval."""
    return measured * REFERENCE_S * 2 / (before + after)
