"""Replacement-backup election: refill the pool after a takeover.

A takeover *consumes* a pool host: the instant one of its shadow engines
goes active, that host is a primary and can no longer shadow anyone
(its TCP layer now answers unmatched segments, its service VNIC answers
ARP).  The coordinator runs synchronously inside the takeover event —
hooked through each pool engine's :attr:`STTCPBackup.on_takeover` — so
no simulation event can ever observe a consumed host still acting as a
backup:

1. the consumed host's **sibling engines retire** (their shadows abort
   locally, their VNICs/SME memberships/listeners detach), orphaning the
   primaries they shadowed;
2. the **taken-over service** gets a fresh primary-side engine on the
   consumed host (reusing the engine's channel socket) plus a newly
   elected pool backup;
3. every **orphaned primary** gets a newly elected backup too:
   :meth:`STTCPPrimary.replace_backup` swaps the monitors before the
   orphaned primary can even suspect its old backup.

A replacement backup protects only connections opened after it joins:
a replica must see its connection from the SYN (§3).  Every connection
already open on the affected primary — the promoted host's former
shadows, or the orphaned primary's connections — is **unprotected**: it
keeps running, without a second buffer, and its record names it.

Elections are deterministic (least-loaded, name tie-break — see
:class:`~repro.cluster.pool.BackupPool`).  When the pool is exhausted
the affected primary simply runs non-fault-tolerant; the failure is
recorded, never raised mid-simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.cluster.pool import BackupPool
from repro.cluster.topology import ClusterFabric, PoolNode, ServiceNode
from repro.sttcp.backup import STTCPBackup
from repro.tcp.constants import SYNCHRONIZED_STATES
from repro.tcp.tcb import TCPConnection


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
    #: ``addr:port`` of each client connection open at the election, which
    #: the new backup never saw and so cannot protect (empty when the pool
    #: is exhausted: then nothing is protected).
    unprotected: List[str] = field(default_factory=list)


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


def _names(tcbs: Iterable[TCPConnection]) -> List[str]:
    return [f"{tcb.remote_ip}:{tcb.remote_port}" for tcb in tcbs]


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
            for service_name, (engine, _detach) in node.shadows.items():
                self._watch(node, service_name, engine)

    def _watch(self, node: PoolNode, service_name: str, engine: STTCPBackup) -> None:
        engine.on_takeover = lambda _engine: self._backup_consumed(node, service_name)

    # The takeover path ---------------------------------------------------------------
    def _backup_consumed(self, consumed: PoolNode, service_name: str) -> None:
        engine, _detach = consumed.shadows.pop(service_name)
        if "cluster" in self.sim.trace.categories:
            self.sim.trace.emit(
                self.sim.now,
                "cluster",
                "backup_consumed",
                host=consumed.host.name,
                service=service_name,
                orphaned=len(consumed.shadows),
            )
        # Release the taken-over service *before* consuming the host, so
        # the orphan list holds only the siblings that lost their shadow.
        self.pool.release(service_name)
        orphaned = self.pool.consume(consumed.name)
        if "cluster" in self.sim.trace.categories:
            self.sim.trace.emit(
                self.sim.now,
                "cluster",
                "election_begin",
                consumed=consumed.name,
                service=service_name,
                orphaned=len(orphaned),
            )
        # 1. Retire the siblings first: the consumed host must stop
        #    tapping/acking the orphaned primaries in this same instant.
        for name in sorted(consumed.shadows):
            consumed.retire(name)
            self.report.retired_services += 1

        # 2. The taken-over service: the consumed host is its primary now.
        service = self.fabric.service_by_name[service_name]
        service.primary_host = consumed.host
        self.takeover_engines[service_name] = engine
        self._replace_backup_for(service, consumed, engine, kind="takeover")

        # 3. Each orphaned primary gets a replacement backup.
        for name in orphaned:
            self._replace_backup_for(
                self.fabric.service_by_name[name], consumed, None, kind="orphan"
            )

    def _replace_backup_for(
        self,
        service: ServiceNode,
        consumed: PoolNode,
        old_engine: Optional[STTCPBackup],
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
            # New primary-side engine on the consumed host, reusing the
            # engine's channel socket (same per-service port).  The
            # ex-shadow connections stay open but unprotected.
            engine = self.fabric.create_primary_engine(
                service, winner, channel=old_engine.channel
            )
            engine.start()
            old_engine.promoted_primary = engine
            record.unprotected = _names(
                tcb
                for tcb in old_engine.shadow_connections
                if tcb.state in SYNCHRONIZED_STATES
            )
        else:
            # The orphaned primary is alive: swap its monitors before it
            # can suspect the consumed backup.
            record.unprotected = _names(
                service.engine.replace_backup(
                    consumed.channel_ip, winner.channel_ip, new_host=winner.host
                )
            )

        self._watch(winner, service.name, self.fabric.attach_shadow(winner, service))
        if "cluster" in self.sim.trace.categories:
            self.sim.trace.emit(
                self.sim.now,
                "cluster",
                "elected",
                service=service.name,
                backup=winner_name,
                kind=kind,
            )
