"""Perf telemetry for experiment execution.

The executor wraps every grid cell in :func:`track`; anything that drives
a :class:`~repro.sim.simulator.Simulator` to completion (notably
:func:`repro.harness.runner.run_workload`) reports the simulator via
:func:`note_simulation`.  The probe snapshots cumulative counters per
simulator instance, so re-running the same simulator (ablations reuse a
scenario for several phases) never double-counts events.

The numbers land in the result store next to each record::

    {"wall_time": ..., "sim_seconds": ..., "events": ...,
     "events_per_sec": ..., "simulations": ...,
     "gc_passes": [young, middle, full], "gc_freed": ...}

giving the first real throughput figures for the simulation kernel, and
what the interpreter's cyclic collector did meanwhile (its passes by
generation and the objects they freed — host facts, so telemetry and
never a field of the record).
"""

from __future__ import annotations

import contextlib
import contextvars
import gc
import time
import weakref
from typing import Any, Dict, Iterator, List, Optional, Tuple

_active: "contextvars.ContextVar[Optional[PerfProbe]]" = contextvars.ContextVar(
    "repro_perf_probe", default=None
)


class PerfProbe:
    """Wall-clock and simulator-counter accumulator for one tracked span."""

    __slots__ = ("started", "finished", "gc_started", "gc_finished", "_sims")

    def __init__(self) -> None:
        self.started = time.perf_counter()
        self.finished: Optional[float] = None
        # ``gc.get_stats()`` is cumulative per process: the span's share
        # is finish minus start.
        self.gc_started = gc.get_stats()
        self.gc_finished: Optional[List[Dict[str, int]]] = None
        # weakref(sim) → (events_executed, sim_now); latest snapshot wins,
        # so counters of a reused simulator are not added twice.  Not
        # ``id(sim)``: a freed simulator's address goes to the next one.
        # References to a live simulator are one key and a dead reference
        # equals only itself, so a finished run keeps its entry unpinned.
        self._sims: Dict["weakref.ref[Any]", Tuple[int, float]] = {}

    def note(self, sim: Any) -> None:
        self._sims[weakref.ref(sim)] = (sim.events_executed, sim.now)

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

    def _gc_delta(self, field: str) -> List[int]:
        """Per generation, how far ``field`` of ``gc.get_stats()`` moved."""
        end = self.gc_finished if self.gc_finished is not None else gc.get_stats()
        return [
            after[field] - before[field]
            for before, after in zip(self.gc_started, end)
        ]

    @property
    def gc_passes(self) -> List[int]:
        """Collector passes by generation (young, middle, full) so far."""
        return self._gc_delta("collections")

    def telemetry(self) -> Dict[str, Any]:
        wall = self.wall_time
        events = self.events
        return {
            "wall_time": wall,
            "sim_seconds": self.sim_seconds,
            "events": events,
            "events_per_sec": events / wall if wall > 0 else 0.0,
            "simulations": self.simulations,
            "gc_passes": self.gc_passes,
            "gc_freed": sum(self._gc_delta("collected")),
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
        probe.gc_finished = gc.get_stats()
        _active.reset(token)


def note_simulation(sim: Any) -> None:
    """Report a simulator's counters to the active probe (no-op without one)."""
    probe = _active.get()
    if probe is not None:
        probe.note(sim)
