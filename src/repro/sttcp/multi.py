"""N:K shadowing: one pool backup host shadowing several primaries.

The paper's testbed is one primary, one backup, one service.  A cluster
pool backup instead runs one :class:`~repro.sttcp.backup.STTCPBackup`
engine *per shadowed primary* — each with its own service identity
(service IP + port), its own UDP channel port, and its own failure
detector.  The engines coexist on one host because every per-engine hook
(connection observer, IP tap, channel socket) filters on its own service
address; this manager owns the set and the lifecycle transitions the
cluster layer needs:

* **takeover** — when one engine goes active its host is *consumed*: it
  is now a primary and can no longer shadow anyone.  The manager
  surfaces the event (synchronously, inside the takeover) through
  :attr:`on_takeover` so the election layer can retire the sibling
  engines and elect a replacement backup in the same simulation instant,
  leaving no event window in which a consumed backup still taps other
  primaries.
* **retirement** — :meth:`retire_service` stands an engine down and runs
  the topology-supplied detach hook (close the service listener, drop
  the service VNIC, leave the tap multicast groups) so the retired host
  stops receiving — and can never RST — traffic for services it no
  longer shadows.

The manager deliberately knows nothing about switches, VNICs, or
elections: those belong to ``repro.cluster`` (which layers on this
module, never the reverse).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.net.addresses import IPAddress
from repro.sttcp.backup import STTCPBackup
from repro.sttcp.config import STTCPConfig
from repro.sttcp.power_switch import PowerSwitch


class ShadowedService:
    """One shadowed primary, as seen from the pool backup host."""

    __slots__ = (
        "name",
        "service_ip",
        "service_port",
        "primary_ip",
        "primary_host",
        "config",
        "engine",
        "on_retire",
    )

    def __init__(
        self,
        name: str,
        service_ip: IPAddress,
        service_port: int,
        primary_ip: IPAddress,
        primary_host: Optional[Any],
        config: STTCPConfig,
        engine: STTCPBackup,
        on_retire: Optional[Callable[["ShadowedService"], None]],
    ) -> None:
        self.name = name
        self.service_ip = service_ip
        self.service_port = service_port
        self.primary_ip = primary_ip
        self.primary_host = primary_host
        self.config = config
        self.engine = engine
        self.on_retire = on_retire

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ShadowedService {self.name} {self.service_ip}:{self.service_port}>"


class MultiPrimaryShadowManager:
    """The set of backup engines one pool host runs (N:K shadowing)."""

    def __init__(self, host: Any) -> None:
        self.host = host
        self.sim = host.sim
        self.services: Dict[str, ShadowedService] = {}
        #: Election hook: fired (synchronously, inside the takeover event)
        #: when one of the managed engines completes a takeover.
        self.on_takeover: Optional[Callable[[str, ShadowedService], None]] = None
        self._started = False

    # Assembly ---------------------------------------------------------------------
    def add_service(
        self,
        name: str,
        service_ip: IPAddress,
        service_port: int,
        primary_ip: IPAddress,
        config: STTCPConfig,
        primary_host: Optional[Any] = None,
        power_switch: Optional[PowerSwitch] = None,
        on_retire: Optional[Callable[[ShadowedService], None]] = None,
    ) -> ShadowedService:
        """Start shadowing one more primary from this host.

        ``config.channel_port`` must be unique per service on this host —
        each engine owns its own UDP channel socket.
        """
        if name in self.services:
            raise ConfigurationError(f"service {name!r} already shadowed on {self.host.name}")
        for existing in self.services.values():
            if existing.config.channel_port == config.channel_port:
                raise ConfigurationError(
                    f"channel port {config.channel_port} already used by "
                    f"service {existing.name!r} on {self.host.name}"
                )
        engine = STTCPBackup(
            self.host,
            service_ip,
            service_port,
            primary_ip,
            config,
            primary_host=primary_host,
            power_switch=power_switch,
        )
        record = ShadowedService(
            name, service_ip, service_port, primary_ip, primary_host, config, engine, on_retire
        )
        engine.on_takeover = lambda _engine, service=name: self._engine_took_over(service)
        self.services[name] = record
        if self._started:
            engine.start()
        return record

    def start(self) -> None:
        self._started = True
        for record in self.services.values():
            record.engine.start()

    # Queries ----------------------------------------------------------------------
    def shadowed_names(self) -> List[str]:
        return sorted(self.services)

    def siblings_of(self, name: str) -> List[str]:
        """The services orphaned when the engine for ``name`` consumes
        this host by taking over."""
        return sorted(n for n in self.services if n != name)

    # Lifecycle transitions -----------------------------------------------------------
    def _engine_took_over(self, name: str) -> None:
        record = self.services.get(name)
        if record is None:
            return
        if "cluster" in self.sim.trace.categories:
            self.sim.trace.emit(
                self.sim.now,
                "cluster",
                "backup_consumed",
                host=self.host.name,
                service=name,
                orphaned=len(self.siblings_of(name)),
            )
        if self.on_takeover is not None:
            self.on_takeover(name, record)

    def retire_service(self, name: str) -> Optional[ShadowedService]:
        """Stand the engine for ``name`` down and run its detach hook.

        Returns the retired record, or None if the service was unknown.
        The record is removed from the managed set either way.
        """
        record = self.services.pop(name, None)
        if record is None:
            return None
        record.engine.retire()
        if record.on_retire is not None:
            record.on_retire(record)
        return record

    def release_service(self, name: str) -> Optional[ShadowedService]:
        """Drop a record without retiring its engine (the engine went
        active and lives on as a primary)."""
        return self.services.pop(name, None)
