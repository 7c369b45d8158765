"""ST-TCP deployments: one primary and "one or more backup servers" (§3).

A :class:`STTCPServerGroup` wires the primary and backup engines,
launches the (identical, deterministic) server application on every
replica, and exposes failover metrics.  The paper's pair is a group of
one backup.  With N ranked backups:

* every backup shadows every connection, and the primary only discards a
  retained byte once **all live backups** acknowledged it;
* on a primary crash the lowest-ranked live backup takes over (rank i
  defers by i × ``takeover_grace`` and stands down when it hears the new
  primary's heartbeat);
* the winner *promotes* itself to a full primary — retention attached to
  the adopted connections, heartbeats to the remaining backups — so the
  service stays fault-tolerant and can survive **cascading** failures.

Topology-level plumbing — how a backup gets to *see* the primary's
traffic (hub promiscuity, or switched multicast MACs with static ARP) —
is the scenario builder's job (:mod:`repro.harness.scenario`).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, List, Optional

from repro.errors import ConfigurationError
from repro.net.addresses import IPAddress
from repro.sttcp.backup import ROLE_ACTIVE, STTCPBackup
from repro.sttcp.config import STTCPConfig
from repro.sttcp.power_switch import PowerSwitch
from repro.sttcp.primary import STTCPPrimary


@dataclasses.dataclass
class FailoverMetrics:
    """What happened, when, during a failover (sim timestamps)."""

    primary_crashed_at: Optional[float]
    suspected_at: Optional[float]
    takeover_at: Optional[float]
    degraded_connections: int

    @property
    def detection_latency(self) -> Optional[float]:
        if self.primary_crashed_at is None or self.suspected_at is None:
            return None
        return self.suspected_at - self.primary_crashed_at

    @property
    def takeover_latency(self) -> Optional[float]:
        if self.primary_crashed_at is None or self.takeover_at is None:
            return None
        return self.takeover_at - self.primary_crashed_at


class STTCPServerGroup:
    """A deployed primary + N-backup ST-TCP service.

    ``backup_engine_factory`` builds each backup engine (default
    :class:`STTCPBackup`; the FT-TCP baseline passes its own).
    """

    def __init__(
        self,
        primary_host: Any,
        backup_hosts: List[Any],
        service_ip: IPAddress,
        service_port: int,
        config: Optional[STTCPConfig] = None,
        power_switch: Optional[PowerSwitch] = None,
        logger_clients: Optional[List[Any]] = None,
        backup_engine_factory: Callable[..., STTCPBackup] = STTCPBackup,
    ) -> None:
        if not backup_hosts:
            raise ConfigurationError("a server group needs at least one backup")
        hosts = [primary_host] + backup_hosts
        for host in hosts:
            if host.sim is not primary_host.sim:
                raise ConfigurationError("all group members must share a simulator")
            if service_ip not in host.local_ips:
                raise ConfigurationError(
                    f"service IP {service_ip} not configured on {host.name}"
                )
        self.sim = primary_host.sim
        self.primary_host = primary_host
        self.backup_hosts = list(backup_hosts)
        self.service_ip = service_ip
        self.service_port = service_port
        self.config = config or STTCPConfig()
        loggers = logger_clients or [None] * len(backup_hosts)
        backup_channel_ips = [host.interfaces[0].ip for host in backup_hosts]
        host_by_channel_ip = {
            address.value: host
            for address, host in zip(backup_channel_ips, backup_hosts)
        }
        primary_channel_ip = primary_host.interfaces[0].ip
        self.primary_engine = STTCPPrimary(
            primary_host, service_ip, service_port, backup_channel_ips, self.config
        )
        self.backup_engines: List[STTCPBackup] = []
        for rank, host in enumerate(backup_hosts):
            host.arp.suppress_ip(service_ip)
            peers = [
                address
                for index, address in enumerate(backup_channel_ips)
                if index != rank
            ]
            engine = backup_engine_factory(
                host,
                service_ip,
                service_port,
                primary_channel_ip,
                dataclasses.replace(self.config),
                primary_host=primary_host,
                power_switch=power_switch,
                logger_client=loggers[rank],
                rank=rank,
                peer_backup_ips=peers,
                peer_hosts=host_by_channel_ip,
            )
            self.backup_engines.append(engine)
        self._server_processes: list = []

    @property
    def backup_engine(self) -> STTCPBackup:
        """The rank-0 backup: the paper's one backup."""
        return self.backup_engines[0]

    def start_service(self, service_time: float = 0.0) -> None:
        """Launch the (identical) server application on every replica and
        start all protocol engines."""
        from repro.apps.server import start_server

        for host in [self.primary_host] + self.backup_hosts:
            self._server_processes.append(
                start_server(host, self.service_port, service_time=service_time)
            )
        self.primary_engine.start()
        for engine in self.backup_engines:
            engine.start()

    @property
    def failed_over(self) -> bool:
        return any(engine.role is ROLE_ACTIVE for engine in self.backup_engines)

    @property
    def active_engine(self) -> Optional[STTCPBackup]:
        """The backup engine currently serving as primary, if any.

        An engine that took over and then crashed itself no longer
        counts — the service moved on to a lower-ranked survivor.
        """
        for engine in reversed(self.backup_engines):
            if engine.role is ROLE_ACTIVE and engine.host.is_up:
                return engine
        return None

    @property
    def active_host(self) -> Any:
        """Whichever host currently serves the virtual IP."""
        engine = self.active_engine
        return engine.host if engine is not None else self.primary_host

    def failover_metrics(self) -> FailoverMetrics:
        engine = self.active_engine or self.backup_engines[0]
        return FailoverMetrics(
            primary_crashed_at=self.primary_host.crashed_at,
            suspected_at=engine.detection_time,
            takeover_at=engine.takeover_time,
            degraded_connections=len(engine.degraded_connections),
        )
