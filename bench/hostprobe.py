"""How slow was the host while a call ran?  Reference bursts answer it.

On a shared host a neighbour slows CPU-bound code by up to 2x for
seconds to minutes at a time (README, "Noise"), and the time is spent
on-CPU, so ``time.process_time()`` counts all of it.  The probe runs a
fixed piece of pure-Python work - a *burst*, 2.5 ms on a quiet host -
every 50 ms of wall time from a signal handler, i.e. *inside* the call
being timed, and times each burst in CPU seconds.  The bursts' mean
against the nominal 2.5 ms says how slow the host was during exactly
that call; their total is subtracted from the call's CPU time.

The simulator slows less than the burst does: over three workloads and
two experiments, log(call CPU) against log(mean burst) had a slope of
0.61 - 0.76.  :func:`corrected` therefore divides by the slow-down to
the power :data:`CONTENTION_ELASTICITY`, not by the slow-down itself.

The burst allocates no container objects (the garbage collector never
sees it) and touches nothing of the simulation.
"""

from __future__ import annotations

import signal
import statistics
import time
from types import FrameType
from typing import Any, List, Optional

BURST_ITERATIONS = 10_000
BURST_INTERVAL_S = 0.05
#: CPU time of one burst on a quiet host of the class the benchmark runs
#: on (measured floor: 2.3 - 2.5 ms).  Only sets the scale of the result.
NOMINAL_BURST_S = 0.0025
#: d log(call CPU) / d log(burst CPU) under contention, as measured.
CONTENTION_ELASTICITY = 0.7


class _Cell:
    __slots__ = ("value", "trail")

    def __init__(self) -> None:
        self.value = 0
        self.trail: List[int] = []

    def step(self, i: int) -> int:
        self.value = (self.value * 31 + i) & 0xFFFFFFFF
        if len(self.trail) > 64:
            self.trail.clear()
        self.trail.append(i)
        return self.value


_CELLS = [_Cell() for _ in range(16)]
_TABLE: dict = {}


def reference_burst() -> float:
    """Do the fixed work once; returns the CPU seconds it took."""
    started = time.process_time()
    cells, table = _CELLS, _TABLE
    for i in range(BURST_ITERATIONS):
        table[i & 4095] = cells[i & 15].step(i)
    return time.process_time() - started


class HostProbe:
    """Context manager: bursts every 50 ms while the block runs."""

    def __init__(self) -> None:
        self.bursts: List[float] = []
        for _ in range(3):  # warm the burst's own code and caches
            reference_burst()

    def _tick(self, _signum: int, _frame: Optional[FrameType]) -> None:
        self.bursts.append(reference_burst())

    def __enter__(self) -> "HostProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, BURST_INTERVAL_S, BURST_INTERVAL_S)
        return self

    def __exit__(self, *_exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.bursts:  # a call shorter than one interval
            self.bursts.append(reference_burst())

    @property
    def burst_cpu_s(self) -> float:
        """CPU the bursts themselves used: not the call's."""
        return sum(self.bursts)

    @property
    def slowdown(self) -> float:
        """Mean burst time over nominal: 1.0 on a quiet host."""
        return statistics.mean(self.bursts) / NOMINAL_BURST_S

    def corrected(self, cpu_s: float) -> float:
        """``cpu_s`` (net of bursts) as it would read on a quiet host."""
        return cpu_s / self.slowdown**CONTENTION_ELASTICITY
