"""Perf telemetry for experiment execution.

The executor wraps every grid cell in :func:`track`; anything that drives
a :class:`~repro.sim.simulator.Simulator` to completion (notably
:func:`repro.harness.runner.run_workload`) reports the simulator via
:func:`note_simulation`.  The probe snapshots cumulative counters per
simulator instance, so re-running the same simulator (ablations reuse a
scenario for several phases) never double-counts events.

The numbers land in the result store next to each record::

    {"wall_time": ..., "sim_seconds": ..., "events": ...,
     "events_per_sec": ..., "simulations": ...}

giving the first real throughput figures for the simulation kernel.
"""

from __future__ import annotations

import contextlib
import contextvars
import time
from typing import Any, Dict, Iterator, Optional, Tuple

_active: "contextvars.ContextVar[Optional[PerfProbe]]" = contextvars.ContextVar(
    "repro_perf_probe", default=None
)


class PerfProbe:
    """Wall-clock and simulator-counter accumulator for one tracked span."""

    __slots__ = ("started", "finished", "_sims")

    def __init__(self) -> None:
        self.started = time.perf_counter()
        self.finished: Optional[float] = None
        # id(sim) → (events_executed, sim_now); latest snapshot wins, so
        # counters of a reused simulator are not added twice.
        self._sims: Dict[int, Tuple[int, float]] = {}

    def note(self, sim: Any) -> None:
        self._sims[id(sim)] = (sim.events_executed, sim.now)

    @property
    def wall_time(self) -> float:
        end = self.finished if self.finished is not None else time.perf_counter()
        return end - self.started

    @property
    def events(self) -> int:
        return sum(events for events, _now in self._sims.values())

    @property
    def sim_seconds(self) -> float:
        return sum(now for _events, now in self._sims.values())

    @property
    def simulations(self) -> int:
        return len(self._sims)

    def telemetry(self) -> Dict[str, float]:
        wall = self.wall_time
        events = self.events
        return {
            "wall_time": wall,
            "sim_seconds": self.sim_seconds,
            "events": events,
            "events_per_sec": events / wall if wall > 0 else 0.0,
            "simulations": self.simulations,
        }


@contextlib.contextmanager
def track() -> Iterator[PerfProbe]:
    """Collect perf telemetry for everything simulated in this block."""
    probe = PerfProbe()
    token = _active.set(probe)
    try:
        yield probe
    finally:
        probe.finished = time.perf_counter()
        _active.reset(token)


def note_simulation(sim: Any) -> None:
    """Report a simulator's counters to the active probe (no-op without one)."""
    probe = _active.get()
    if probe is not None:
        probe.note(sim)
