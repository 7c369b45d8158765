"""Run one cluster scenario end to end and report the evidence.

The run loop is deliberately thin: everything interesting lives in the
fabric (:mod:`repro.cluster.topology`), the election coordinator
(:mod:`repro.cluster.election`), and the invariant monitors
(:mod:`repro.cluster.invariants`).  This module assembles them, drives
one client per pair through the scenario's workload across the scripted
mid-run primary crash, and folds the artefacts into a single JSON-able
record for the result store:

* the outcome ledger: how each pair's client session ended (the
  exactly-once-streams invariant reads it),
* crash → detection → takeover latencies on the crashed pair,
* the election report (who replaced whom, which connections were left
  unprotected),
* the dual-primary monitor's verdict,
* per-pair failover timelines (phase decomposition via ``repro.obs``
  for the crashed pair, progress gaps for the healthy ones).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Generator, Iterable, List, Optional

from repro.apps.client import client_session
from repro.apps.workload import Outcome, failed_sessions, session_outcome, write_bench_keys
from repro.cluster.election import ElectionCoordinator
from repro.cluster.invariants import (
    DualPrimaryMonitor,
    InvariantReport,
    takeover_budget,
)
from repro.cluster.pool import BackupPool, plan_assignment
from repro.cluster.scenario import ClusterSpec
from repro.cluster.topology import SERVICE_PORT, ClusterFabric
from repro.faults.injection import FaultPlan
from repro.metrics import perf
from repro.obs.timeline import (
    Phase,
    TimelineCollector,
    reconstruct_cluster_phases,
)

#: Clients start this long after the service fabric comes up.
CLIENT_START = 0.1

#: Per-client spawn stagger, so N identical workloads don't run in
#: artificial lockstep on the shared WAN hub.
CLIENT_STAGGER = 0.003


class ClusterRun:
    """An assembled, not-yet-driven cluster scenario.  ``faults`` is its
    fault plan; None compiles the spec's ``crash`` section to one entry."""

    def __init__(
        self, spec: ClusterSpec, sim: Optional[Any] = None, faults: Optional[Iterable] = None
    ) -> None:
        self.spec = spec
        if faults is None:
            service = spec.service_names()[spec.crash_primary]
            faults = [(spec.crash_at, "cluster_crash", {"service": service})]
        self.faults = FaultPlan(faults)
        self.fabric = ClusterFabric(spec, sim=sim)
        self.sim = self.fabric.sim
        plan = spec.assignment or plan_assignment(
            spec.service_names(), spec.backup_names(), spec.capacity
        )
        self.pool = BackupPool(spec.backup_names(), spec.capacity)
        for backup_name in sorted(plan):
            backup = self.fabric.backup_by_name[backup_name]
            for service_name in plan[backup_name]:
                service = self.fabric.service_by_name[service_name]
                self.pool.assign(service_name, backup_name)
                self.fabric.attach_shadow(backup, service)
                self.fabric.create_primary_engine(service, backup)
        self.coordinator = ElectionCoordinator(self.fabric, self.pool)
        self.monitor = DualPrimaryMonitor(self.fabric)
        self.collector = TimelineCollector().attach(self.sim.trace)
        self.results: Dict[str, Any] = {}
        #: The run record :meth:`execute` returned.
        self.record: Optional[Dict[str, Any]] = None

    # Drive -------------------------------------------------------------------------
    def _pair_process(self, service: Any) -> Generator:
        result = yield from client_session(
            service.client, (service.service_ip, SERVICE_PORT), self.spec.workload()
        )
        self.results[service.name] = result

    def begin(self) -> Any:
        """Deploy the fabric: engines, monitor, the fault plan and the
        clients (at ``CLIENT_START``).  Returns the :class:`ServiceNode`
        the spec's crash section names, the one the record reports on."""
        self.fabric.start_services()
        self.monitor.start()
        self.faults.arm(self)
        for service in self.fabric.services:
            self.sim.post(
                CLIENT_START + service.index * CLIENT_STAGGER,
                service.client.spawn,
                self._pair_process(service),
                f"{service.client.name}.session",
            )
        return self.fabric.services[self.spec.crash_primary]

    def execute(self) -> Dict[str, Any]:
        sim, crashed = self.sim, self.begin()
        while len(self.results) < len(self.fabric.services) and sim.now < self.spec.deadline:
            sim.run(until=sim.now + 0.050)
        self.monitor.stop()
        perf.note_simulation(sim)
        self.record = self._assemble(crashed)
        return self.record

    # Reporting ---------------------------------------------------------------------
    def pair_timeline(self, service_name: str) -> Optional[Any]:
        """Reconstruct the failover phases from this pair's viewpoint:
        its own client's progress checkpoints, everyone's cold markers
        (only the crashed pair has suspicion/takeover events)."""
        return self.collector.reconstruct(self.fabric.service_by_name[service_name].client.name)

    def outcomes(self) -> List[Outcome]:
        """The outcome ledger, one entry per pair in pair order, named by
        service.  Readable mid-run: a session still running is
        ``unfinished`` as of now."""
        return [
            self.results[service.name].outcome(service.name)
            if service.name in self.results
            else session_outcome(service.name, self.sim.now, finished=False)
            for service in self.fabric.services
        ]

    def phases(self) -> List[Phase]:
        """Every pair timeline's phases, then the fabric's fence →
        election windows: the slices of this run's Chrome trace."""
        phases = []
        for service in self.fabric.services:
            timeline = self.pair_timeline(service.name)
            if timeline is not None:
                phases += timeline.phases
        cluster_phases = reconstruct_cluster_phases(self.collector.records)
        if cluster_phases is not None:
            phases += cluster_phases.phases
        return phases

    def _assemble(self, crashed: Any) -> Dict[str, Any]:
        spec = self.spec
        takeover_engine = self.coordinator.takeover_engines.get(crashed.name)
        detection = takeover = float("nan")
        if takeover_engine is not None:
            if takeover_engine.detection_time is not None:
                detection = takeover_engine.detection_time - spec.crash_at
            if takeover_engine.takeover_time is not None:
                takeover = takeover_engine.takeover_time - spec.crash_at

        outcomes = self.outcomes()
        pairs: List[Dict[str, Any]] = []
        timelines: Dict[str, Any] = {}
        for service in self.fabric.services:
            result = self.results.get(service.name)
            if service.name == crashed.name:
                timeline = self.pair_timeline(service.name)
                timelines[service.name] = timeline.summary() if timeline is not None else None
            else:
                timelines[service.name] = {"max_gap": result.max_gap if result is not None else None}
            if result is None:
                pairs.append({"service": service.name, "completed": False})
                continue
            pairs.append(
                {
                    "service": service.name,
                    "completed": True,
                    "exchanges": result.exchanges_done,
                    "total_time": result.total_time,
                    "max_gap": result.max_gap,
                }
            )

        config = crashed.config
        elections = self.coordinator.report
        degraded = len(takeover_engine.degraded_connections) if takeover_engine is not None else 0
        invariants = InvariantReport(
            no_dual_primary=not self.monitor.violations,
            exactly_once_streams=degraded == 0 and not failed_sessions(outcomes),
            bounded_takeover=takeover == takeover and takeover <= takeover_budget(config),
            bounded_election=bool(elections.records) and not elections.failed,
            details={
                "takeover_budget": takeover_budget(config),
                "dual_primary": self.monitor.summary(),
            },
        )
        # Fabric-level phase decomposition (fence → election) from the
        # collector's cold-path records.
        cluster_phases = reconstruct_cluster_phases(self.collector.records)

        arbiter = self.fabric.arbiter
        record = {
            "scenario": spec.name,
            "primaries": spec.primaries,
            "backups": spec.backups,
            "capacity": spec.capacity,
            "crashed_service": crashed.name,
            "crash_at": spec.crash_at,
            "detection_latency": detection,
            "takeover_latency": takeover,
            "degraded": degraded,
            "outcomes": outcomes,
            "elections": [dataclasses.asdict(r) for r in elections.records],
            "retired_services": elections.retired_services,
            "pool": self.pool.summary(),
            "arbiter": {
                "fence_requests": arbiter.fence_requests,
                "cuts_performed": arbiter.cuts_performed,
                "requests_coalesced": arbiter.requests_coalesced,
                "max_queue_depth": arbiter.max_queue_depth,
                "sabotaged": arbiter.sabotaged,
            },
            "invariants": invariants.to_record(),
            "timelines": timelines,
            "cluster_phases": (
                cluster_phases.summary() if cluster_phases is not None else None
            ),
            "pairs": pairs,
            "sim_seconds": self.sim.now,
            "sim_events": self.sim.events_executed,
            "ok": invariants.all_hold,
        }
        write_bench_keys(record)
        return record


def run_cluster(spec: ClusterSpec) -> Dict[str, Any]:
    """Build and drive one scenario; returns the run record."""
    return ClusterRun(spec).execute()
