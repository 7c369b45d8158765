#!/usr/bin/env python
"""What the event queue of one run was asked to hold, callback by callback.

For every kernel event of a run: who it was for, and what became of it.
*scheduled* is a push onto the queue (a post, or a token's arm);
*cancelled*, an entry a token retired before it came due (a cancel, or a
timer re-armed earlier); *fired*, a callback that ran and did its work;
*no-op*, one that ran, looked and left — a ``RestartableTimer`` event that
found its timer stopped or its deadline moved (``tcp/timers.py``).  The
queue should hold what will happen in the model: a tall *cancelled* or
*no-op* column, or a ``Timeout.succeed`` row as tall as the segment count,
is host work that simulates nothing.  That is how the 25 ms holder poll
of ``repro scale`` and the cancel-and-re-push timer were found.

Timer events are split by timer name; timeouts, by the generator that
slept; an ``EventHandle``'s, by its callback.  Counted from outside —
``Scheduler.post``, ``Scheduler.arm`` and ``Scheduler.retire`` are wrapped
for the length of the run, which builds its simulator inside it
(``Simulator`` binds them at construction) — so it reads any tree
with the token queue without a hook in ``src/``.  The census checks
itself: if the wrapped callbacks ran fewer times than the kernel executed
events, some path queued events around the wrappers, and the last line
says so and the exit status is 1.  It also checks the run: a callback that
ran for a crashed host (``tools/crash_silence.py``) is listed after the
table, and the exit status is 1.

On a cluster workload, a table per host follows: frames its NICs
received, datagrams its IP layer dropped as not its own, and the services
it shadowed at some point of the run.  A pool host's drops are the tapped
replies of its services; one tapping services it does not shadow shows a
drop column out of step with its services.

Usage::

    PYTHONPATH=src python tools/event_census.py 100              # one scale rung
    PYTHONPATH=src python tools/event_census.py churn_failover   # a bench workload
    PYTHONPATH=src python tools/event_census.py cluster_failover # ... plus the host table
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import repro.harness.experiments  # noqa: F401 — registers the "scale" spec
from repro.harness.executor import run_experiment
from repro.sim.events import EventHandle, SimEvent, Timeout
from repro.sim.scheduler import Scheduler
from repro.tcp.timers import RestartableTimer

from crash_silence import CrashSilence, wrapped_queue

BENCH = Path(__file__).resolve().parent.parent / "bench"

#: The seed the reference benchmark's workloads run at.
BASE_SEED = 12


class _Row:
    __slots__ = ("scheduled", "cancelled", "noop", "fired")

    def __init__(self) -> None:
        self.scheduled = self.cancelled = self.noop = self.fired = 0


class _Counted:
    """Stands in for one queued callback and books what becomes of it."""

    __slots__ = ("callback", "row", "silence")

    def __init__(self, callback: Callable[..., Any], row: _Row, silence: CrashSilence) -> None:
        self.callback = callback
        self.row = row
        self.silence = silence

    def __call__(self, *args: Any) -> None:
        self.silence.check(self.callback)
        timer = getattr(self.callback, "__self__", None)
        if isinstance(timer, RestartableTimer):
            before = timer.fired_count
            self.callback(*args)
            if timer.fired_count == before:
                self.row.noop += 1
                return
        else:
            self.callback(*args)
        self.row.fired += 1


def _sleeper() -> str:
    """The function outside the kernel that asked for the timeout."""
    frame = sys._getframe(1)
    while frame.f_back and frame.f_globals.get("__name__", "").startswith(("repro.sim", __name__)):
        frame = frame.f_back
    return frame.f_code.co_qualname


def _label(callback: Callable[..., Any]) -> str:
    owner = getattr(callback, "__self__", None)
    if isinstance(owner, EventHandle):
        return _label(owner.callback)
    name = getattr(callback, "__qualname__", repr(callback))
    if isinstance(owner, RestartableTimer):
        return f"{name}[{owner.name}]"
    if isinstance(owner, Timeout):
        return f"Timeout.succeed[{_sleeper()}]"
    if type(owner) is SimEvent:
        return f"{name}[{owner.name}]"
    return name


def take_census(run: Callable[[], Any]) -> Tuple[Dict[str, _Row], CrashSilence, Any]:
    """Call ``run()`` booking every kernel event: (label -> row, the
    crash-silence breaches, run's result)."""
    census: Dict[str, _Row] = {}
    silence = CrashSilence()
    retire = Scheduler.retire
    #: id of a bound callback's object -> the row of its latest entry: for
    #: a token, the row its live entry was booked under.
    rows: Dict[int, _Row] = {}

    def counted(callback: Any) -> _Counted:
        row = census.setdefault(_label(callback), _Row())
        row.scheduled += 1
        rows[id(getattr(callback, "__self__", None))] = row
        return _Counted(callback, row, silence)

    def counting_retire(self: Scheduler, token: Any) -> None:
        if token.seq >= 0:
            rows[id(token)].cancelled += 1  # still queued: a dead entry
        retire(self, token)

    Scheduler.retire = counting_retire  # type: ignore[method-assign]
    try:
        with wrapped_queue(counted):
            return census, silence, run()
    finally:
        Scheduler.retire = retire  # type: ignore[method-assign]


def host_table(cluster: Any, shadowed: Dict[str, List[str]]) -> str:
    """One row per host of a finished cluster run: NIC receives, IP drops
    as not local, and the services it shadowed (``shadowed``: at the start,
    by pool host; elections add the rest)."""
    fabric = cluster.fabric
    for record in cluster.coordinator.report.records:
        if record.new_backup is not None:
            shadowed[record.new_backup].append(record.service)
    value = fabric.sim.metrics.value
    hosts = (
        [fabric.gateway]
        + [service.primary for service in fabric.services]
        + [service.client for service in fabric.services]
        + [node.host for node in fabric.backups]
    )
    lines = [f"  {'NIC rx':>9} {'not local':>9}  host: services shadowed"]
    for host in hosts:
        received = sum(nic.rx_frames for nic in host.nics)
        dropped = value(f"{host.name}.ip.dropped_not_local")
        services = ",".join(sorted(set(shadowed.get(host.name, ())))) or "-"
        lines.append(f"  {received:>9} {dropped:>9}  {host.name}: {services}")
    return "\n".join(lines)


def census_of(what: str, seed: int) -> Tuple[Dict[str, _Row], CrashSilence, str, int, str]:
    """Run a scale rung (``what`` a connection count) or a bench workload:
    (the census, its crash-silence check, its summary line, the events the
    kernel executed, the host table of a cluster workload or "")."""
    hosts = ""
    if what.isdigit():
        census, silence, result = take_census(
            lambda: run_experiment("scale", ladder=(int(what),), store=None, base_seed=seed)
        )
        (record,) = result.rows
        events, segments = record["sim_events"], record["sim_segments"]
        what = f"scale rung of {what} connections"
    else:
        sys.path.insert(0, str(BENCH))
        from workloads import WORKLOADS  # bench/workloads.py, as bench/worker.py imports it

        clusters: List[Tuple[Any, Dict[str, List[str]]]] = []

        def run() -> Any:
            timed, summarise = WORKLOADS[what](seed, 1.0)
            cluster = getattr(timed, "__self__", None)  # a ClusterRun's execute
            if cluster is not None:
                clusters.append((cluster, {
                    node.name: sorted(node.shadows) for node in cluster.fabric.backups
                }))
            return summarise(timed())

        census, silence, outcome = take_census(run)
        events, segments = outcome.events, outcome.segments
        if clusters:
            hosts = host_table(*clusters[0])
    return census, silence, (
        f"{what}, seed {seed}: {events} events executed for {segments} segments"
        f" = {events / segments:.2f} per segment"
    ), events, hosts


def uncounted(census: Dict[str, _Row], executed: int) -> int:
    """Events the kernel ran that no wrapped callback saw (0 when whole)."""
    return executed - sum(row.noop + row.fired for row in census.values())


def format_census(census: Dict[str, _Row], summary: str) -> str:
    rows: List[Tuple[Any, ...]] = sorted(
        ((r.scheduled, r.cancelled, r.noop, r.fired, label) for label, r in census.items()),
        reverse=True,
    )
    scheduled, cancelled, noop, fired = (sum(column) for column in list(zip(*rows))[:4])
    rows += [(scheduled, cancelled, noop, fired, "total")]
    lines = [summary, f"  {'scheduled':>9} {'cancelled':>9} {'no-op':>7} {'fired':>7}  callback"]
    lines += [f"  {s:>9} {c:>9} {n:>7} {f:>7}  {label}" for s, c, n, f, label in rows]
    lines.append(f"  still queued at the end: {scheduled - cancelled - noop - fired}")
    return "\n".join(lines)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "what",
        help="a connection count (one `repro scale` rung) or a bench workload: "
        "bulk_download, bulk_upload, churn_failover, cluster_failover",
    )
    parser.add_argument("--seed", type=int, default=BASE_SEED)
    args = parser.parse_args()
    census, silence, summary, executed, hosts = census_of(args.what, args.seed)
    print(format_census(census, summary))
    if hosts:
        print(hosts)
    missed = uncounted(census, executed)
    if missed:
        print(f"  CENSUS INCOMPLETE: {missed} of {executed} executed events were queued around the wrappers")
    print(silence.report())
    if missed or silence.breaches:
        sys.exit(1)
