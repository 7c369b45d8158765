"""Replacement-backup election: refill the pool after a takeover.

A takeover *consumes* a pool host: the instant one of its shadow engines
goes active, that host is a primary and can no longer shadow anyone
(its TCP layer now answers unmatched segments, its service VNIC answers
ARP).  The coordinator runs synchronously inside the takeover event —
hooked through :attr:`MultiPrimaryShadowManager.on_takeover` — so no
simulation event can ever observe a consumed host still acting as a
backup:

1. the consumed host's **sibling engines retire** (their shadows abort
   locally, their VNICs/SME memberships/listeners detach), orphaning the
   primaries they shadowed;
2. the **taken-over service** gets a fresh primary-side engine on the
   consumed host (adopting the ex-shadow connections, reusing the
   engine's channel socket) plus a newly elected pool backup, which
   joins mid-stream through the snapshot handoff
   (:meth:`STTCPBackup.request_sync`);
3. every **orphaned primary** gets a newly elected backup too:
   :meth:`STTCPPrimary.replace_backup` swaps the monitors before the
   orphaned primary can even suspect its old backup, and the new engine
   requests a snapshot sync.

Elections are deterministic (least-loaded, name tie-break — see
:class:`~repro.cluster.pool.BackupPool`).  When the pool is exhausted
the affected primary simply runs non-fault-tolerant; the failure is
recorded, never raised mid-simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.cluster.pool import BackupPool
from repro.cluster.topology import ClusterFabric, PoolNode, ServiceNode
from repro.sttcp.multi import ShadowedService


@dataclass
class ElectionRecord:
    """One service's backup replacement, for the run report."""

    service: str
    consumed_backup: str
    new_backup: Optional[str]  # None: pool exhausted, election failed
    at: float
    #: "takeover": the service whose backup went active; "orphan": a
    #: sibling service that lost its (consumed) backup.
    kind: str = "orphan"
    sync_done_at: Optional[float] = None

    @property
    def sync_latency(self) -> Optional[float]:
        if self.sync_done_at is None:
            return None
        return self.sync_done_at - self.at


@dataclass
class ElectionReport:
    records: List[ElectionRecord] = field(default_factory=list)
    retired_services: int = 0

    def for_service(self, name: str) -> Optional[ElectionRecord]:
        for record in self.records:
            if record.service == name:
                return record
        return None

    @property
    def failed(self) -> List[ElectionRecord]:
        return [r for r in self.records if r.new_backup is None]

    @property
    def all_synced(self) -> bool:
        return all(
            r.sync_done_at is not None for r in self.records if r.new_backup is not None
        )


class ElectionCoordinator:
    """Watches every pool host; rebuilds shadowing after a takeover."""

    def __init__(self, fabric: ClusterFabric, pool: BackupPool) -> None:
        self.fabric = fabric
        self.pool = pool
        self.sim = fabric.sim
        self.report = ElectionReport()
        #: service name → the (ex-backup) engine that took it over.
        self.takeover_engines: dict = {}
        for node in fabric.backups:
            node.manager.on_takeover = (
                lambda service, record, n=node: self._backup_consumed(n, service, record)
            )

    # The takeover path ---------------------------------------------------------------
    def _backup_consumed(
        self, consumed: PoolNode, service_name: str, record: ShadowedService
    ) -> None:
        # Release the taken-over service *before* consuming the host, so
        # the orphan list holds only the siblings that lost their shadow.
        self.pool.release(service_name)
        orphaned = self.pool.consume(consumed.name)
        consumed.manager.release_service(service_name)
        if "cluster" in self.sim.trace.categories:
            fields = {
                "consumed": consumed.name,
                "service": service_name,
                "orphaned": len(orphaned),
            }
            # The hook runs synchronously inside the takeover event, so
            # the backup's dynamic flow context is still set: the
            # election joins the failover's causal chain.
            if self.sim.trace.current_flow is not None:
                fields["flow"] = self.sim.trace.current_flow
            self.sim.trace.emit(
                self.sim.now, "cluster", "election_begin", **fields
            )
        # 1. Retire the siblings first: the consumed host must stop
        #    tapping/acking the orphaned primaries in this same instant.
        for name in consumed.manager.shadowed_names():
            consumed.manager.retire_service(name)
            self.report.retired_services += 1

        # 2. The taken-over service: the consumed host is its primary now.
        service = self.fabric.service_by_name[service_name]
        service.primary_host = consumed.host
        self.takeover_engines[service_name] = record.engine
        self._replace_backup_for(service, consumed, record, kind="takeover")

        # 3. Each orphaned primary gets a replacement backup.
        for name in orphaned:
            self._replace_backup_for(
                self.fabric.service_by_name[name], consumed, None, kind="orphan"
            )

    def _replace_backup_for(
        self,
        service: ServiceNode,
        consumed: PoolNode,
        takeover_record: Optional[ShadowedService],
        kind: str,
    ) -> None:
        winner_name = self.pool.elect(service.name, exclude=[consumed.name])
        record = ElectionRecord(
            service=service.name,
            consumed_backup=consumed.name,
            new_backup=winner_name,
            at=self.sim.now,
            kind=kind,
        )
        self.report.records.append(record)
        if winner_name is None:
            # Pool exhausted: the primary runs on without a backup.  For
            # an orphan that means its monitor will suspect the consumed
            # host and drop to non-fault-tolerant mode on its own.
            if "cluster" in self.sim.trace.categories:
                self.sim.trace.emit(
                    self.sim.now, "cluster", "election_exhausted", service=service.name
                )
            return
        winner = self.fabric.backup_by_name[winner_name]

        if kind == "takeover":
            # New primary-side engine on the consumed host, adopting the
            # ex-shadow connections and reusing the engine's channel
            # socket (same per-service port).
            old_engine = takeover_record.engine
            engine = self.fabric.create_primary_engine(
                service, winner, channel=old_engine.channel
            )
            for tcb in old_engine.shadow_connections:
                engine.adopt_connection(tcb)
            engine.start()
            old_engine.promoted_primary = engine
        else:
            # The orphaned primary is alive: swap its monitors before it
            # can suspect the consumed backup.
            service.engine.replace_backup(
                consumed.channel_ip, winner.channel_ip, new_host=winner.host
            )

        shadow = self.fabric.attach_shadow(winner, service)
        # The snapshot handoff spans from the sync request to the
        # converged callback; its span carries the failover's flow id so
        # the resync hop shows up in the causal chain.
        resync_sid: Optional[int] = None
        if "cluster" in self.sim.trace.categories:
            fields = {"service": service.name, "backup": winner_name, "kind": kind}
            if self.sim.trace.current_flow is not None:
                fields["flow"] = self.sim.trace.current_flow
            resync_sid = self.sim.trace.begin_span(
                self.sim.now, "cluster", "resync", **fields
            )
        shadow.engine.on_sync_done = (
            lambda _engine, r=record, sid=resync_sid: self._sync_finished(r, sid)
        )
        shadow.engine.request_sync()
        if "cluster" in self.sim.trace.categories:
            self.sim.trace.emit(
                self.sim.now,
                "cluster",
                "elected",
                service=service.name,
                backup=winner_name,
                kind=kind,
            )

    def _sync_finished(
        self, record: ElectionRecord, resync_sid: Optional[int] = None
    ) -> None:
        record.sync_done_at = self.sim.now
        latency = record.sync_latency
        if resync_sid is not None:
            self.sim.trace.end_span(
                self.sim.now, "cluster", "resync", resync_sid, latency=latency
            )
        if "cluster" in self.sim.trace.categories:
            self.sim.trace.emit(
                self.sim.now,
                "cluster",
                "shadow_converged",
                service=record.service,
                backup=record.new_backup,
                latency=record.sync_latency,
            )
