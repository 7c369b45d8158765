"""Sim-kernel microbenchmarks: raw scheduler throughput + one bulk run.

These track the engine itself rather than a paper artefact.  CI runs them
with ``--benchmark-json=BENCH_simcore.json`` so the events/sec trajectory
is recorded per commit; each benchmark also attaches its throughput to
``extra_info`` in that JSON.
"""

from __future__ import annotations

from repro.apps.workload import bulk_workload
from repro.harness.runner import run_workload
from repro.metrics import perf
from repro.sim.scheduler import Scheduler
from repro.util.units import MB

#: Events per round for the scheduler microbenchmarks.
EVENTS = 50_000


def _noop() -> None:
    pass


def test_scheduler_dispatch(benchmark):
    """Schedule-then-drain throughput of the bare scheduler (no cancellations)."""

    def setup():
        scheduler = Scheduler()
        for i in range(EVENTS):
            scheduler.schedule_at(i * 1e-6, _noop)
        return (scheduler,), {}

    def drain(scheduler):
        scheduler.run_until()
        return scheduler.executed_count

    executed = benchmark.pedantic(drain, setup=setup, rounds=5, iterations=1)
    assert executed == EVENTS
    benchmark.extra_info["events_per_sec"] = round(EVENTS / benchmark.stats.stats.mean)


def test_scheduler_dispatch_with_cancellations(benchmark):
    """Same drain with 75% of entries cancelled — the lazy-discard path.

    This is the TCP shape: most retransmission timers are cancelled by an
    ACK long before they fire, so the drain spends much of its time
    discarding dead entries as their slots open.
    """

    def setup():
        scheduler = Scheduler()
        live = 0
        for i in range(EVENTS):
            handle = scheduler.schedule_at(i * 1e-6, _noop)
            if i % 4:
                handle.cancel()
            else:
                live += 1
        return (scheduler, live), {}

    def drain(scheduler, live):
        scheduler.run_until()
        return scheduler.executed_count == live

    assert benchmark.pedantic(drain, setup=setup, rounds=5, iterations=1)
    benchmark.extra_info["events_per_sec"] = round(EVENTS / benchmark.stats.stats.mean)


def test_bulk_transfer_1mb(benchmark):
    """End-to-end kernel throughput: a full 1 MB bulk transfer."""

    def run():
        with perf.track() as probe:
            run_workload(bulk_workload(1 * MB), seed=42, deadline=600.0).require_clean()
        return probe.telemetry()

    telemetry = benchmark.pedantic(run, rounds=3, iterations=1)
    print(
        f"\n1 MB bulk: {telemetry['events']} events, "
        f"{telemetry['sim_seconds']:.2f} sim-s, "
        f"{telemetry['events_per_sec']:,.0f} events/s"
    )
    benchmark.extra_info["events"] = telemetry["events"]
    benchmark.extra_info["events_per_sec"] = round(telemetry["events_per_sec"])
