"""Run one workload on one scenario and collect the paper's metrics."""

from __future__ import annotations

import dataclasses
import os
from typing import TYPE_CHECKING, List, Optional

from repro.apps.client import run_client
from repro.apps.workload import AppWorkload, Outcome, RunResult, describe_outcome, failed_sessions
from repro.errors import ReproError
from repro.harness.calibrate import PAPER_TESTBED, NetworkProfile
from repro.harness.scenario import Scenario, TOPOLOGY_HUB
from repro.metrics import perf
from repro.obs.timeline import FailoverTimeline, TimelineCollector
from repro.sttcp.config import STTCPConfig
from repro.sttcp.group import FailoverMetrics

if TYPE_CHECKING:  # pragma: no cover - typing only; imported for a flight dump
    from repro.obs.recorder import FlightRecorder

#: The client starts this long after the service comes up.
CLIENT_START = 0.1

#: Crash the primary at this fraction of the failure-free run by default.
DEFAULT_CRASH_FRACTION = 0.5

#: When set to a directory, every run carries a flight recorder and red
#: runs (client error, corrupted data, simulation crash) dump their last
#: trace records there.  An env var rather than a parameter so process
#: pool workers inherit it without plumbing (CI sets it and uploads the
#: directory as an artifact on failure).
FLIGHT_DUMP_ENV = "REPRO_FLIGHT_DUMP"


@dataclasses.dataclass
class ExperimentRun:
    """One completed client run plus failover accounting."""

    result: RunResult
    failover: Optional[FailoverMetrics]
    scenario: Scenario
    #: Phase decomposition of the failover, when one was observed.
    timeline: Optional[FailoverTimeline] = None
    #: The cold-path trace records the timeline was reconstructed from.
    collector: Optional[TimelineCollector] = None

    @property
    def total_time(self) -> float:
        return self.result.total_time

    @property
    def outcomes(self) -> List[Outcome]:
        """The run's outcome ledger: the one client session's entry."""
        return [self.result.outcome("client")]

    def require_clean(self) -> "ExperimentRun":
        """Raise unless the client completed and verified all content."""
        failed = failed_sessions(self.outcomes)
        if failed:
            raise ReproError(f"client failed: {describe_outcome(failed[0])}")
        return self


def _dump_flight(
    flight: Optional[FlightRecorder], workload: AppWorkload, seed: int, reason: str
) -> None:
    directory = os.environ.get(FLIGHT_DUMP_ENV)
    if flight is None or not directory:
        return
    os.makedirs(directory, exist_ok=True)
    name = f"flight-{workload.name}-seed{seed}-pid{os.getpid()}.txt"
    flight.dump_to(os.path.join(directory, name), reason=reason)


def run_workload(
    workload: AppWorkload,
    profile: NetworkProfile = PAPER_TESTBED,
    topology: str = TOPOLOGY_HUB,
    sttcp: Optional[STTCPConfig] = None,
    crash_at: Optional[float] = None,
    with_logger: bool = False,
    service_time: Optional[float] = None,
    seed: int = 0,
    deadline: float = 3600.0,
    scenario: Optional[Scenario] = None,
) -> ExperimentRun:
    """Build a scenario, run one client session, return the metrics.

    ``crash_at`` is an absolute simulated time (client starts at
    ``CLIENT_START``); None means a failure-free run.
    """
    if scenario is None:
        scenario = Scenario(
            profile=profile,
            topology=topology,
            sttcp=sttcp,
            with_logger=with_logger,
            seed=seed,
        )
    if service_time is None:
        service_time = workload.service_time
    scenario.start_service(service_time)
    if crash_at is not None:
        scenario.crash_primary_at(crash_at)
    process_box = []

    def launch() -> None:
        process_box.append(run_client(scenario.client, scenario.service_addr, workload))

    collector = TimelineCollector().attach(scenario.sim.trace)
    flight: Optional[FlightRecorder] = None
    if os.environ.get(FLIGHT_DUMP_ENV):
        from repro.obs.recorder import FlightRecorder

        flight = FlightRecorder()
        scenario.sim.trace.add_sink(flight)
    launch_at = scenario.sim.now + CLIENT_START
    scenario.sim.post(launch_at, launch)
    scenario.sim.run(until=launch_at)
    if not process_box:  # pragma: no cover - the launch event just ran
        scenario.sim.step()
    try:
        result: RunResult = scenario.sim.run_until_complete(
            process_box[0], deadline=deadline
        )
    except BaseException:
        _dump_flight(flight, workload, seed, "simulation crashed")
        raise
    finally:
        perf.note_simulation(scenario.sim)
        collector.detach()
        if flight is not None:
            scenario.sim.trace.remove_sink(flight)
    failover = scenario.pair.failover_metrics() if scenario.pair is not None else None
    run = ExperimentRun(
        result=result,
        failover=failover,
        scenario=scenario,
        timeline=collector.reconstruct(),
        collector=collector,
    )
    failed = failed_sessions(run.outcomes)
    if failed:
        _dump_flight(flight, workload, seed, describe_outcome(failed[0]))
    return run


def measure_failover_time(
    workload: AppWorkload,
    sttcp: STTCPConfig,
    profile: NetworkProfile = PAPER_TESTBED,
    topology: str = TOPOLOGY_HUB,
    crash_fraction: float = DEFAULT_CRASH_FRACTION,
    with_logger: bool = False,
    seed: int = 0,
    deadline: float = 3600.0,
) -> dict:
    """The paper's failover metric (§6.2): run the application twice —
    without failure and with a mid-run primary crash — and report the
    difference in total time.
    """
    baseline = run_workload(
        workload, profile, topology, sttcp=sttcp, seed=seed, deadline=deadline
    ).require_clean()
    crash_time = CLIENT_START + crash_fraction * baseline.total_time
    failed = run_workload(
        workload,
        profile,
        topology,
        sttcp=sttcp,
        crash_at=crash_time,
        with_logger=with_logger,
        seed=seed,
        deadline=deadline + sttcp.detection_timeout() * 4 + 240.0,
    ).require_clean()
    return {
        "workload": workload.name,
        "no_failure_time": baseline.total_time,
        "failure_time": failed.total_time,
        "failover_time": failed.total_time - baseline.total_time,
        "detection_latency": failed.failover.detection_latency,
        "takeover_latency": failed.failover.takeover_latency,
        "max_gap": failed.result.max_gap,
        "crash_time": crash_time,
        "timeline": failed.timeline.summary() if failed.timeline else None,
    }
