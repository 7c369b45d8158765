"""The cluster fabric: N primaries, a backup pool, clients, one switch.

Scales the switched topology of Figure 2 (see
:meth:`repro.harness.scenario.Scenario._build_switched`) from one
service to N:

* every primary *i* owns a **service identity** — service IP + a
  multicast SME so the switch fans client→server traffic out to whoever
  joined it (RFC 1812 routers may not learn a multicast MAC from an ARP
  reply, so the gateway gets a static entry per service);
* every service *i* also owns a **GVI/GME** pair on the gateway, §3.1's
  gateway identity once per service: primary *i* reaches the clients
  through GVI *i*, whose multicast GME *i* the switch copies to the
  gateway and to the pool host shadowing service *i* — and to no other
  pool host;
* each **pool host** runs one :class:`~repro.sttcp.backup.STTCPBackup`
  engine per shadowed service, each with its own service identity and
  channel port, held in :attr:`PoolNode.shadows` with its detach hook;
  attaching a shadow wires the service VNIC, the switch-side SME and GME
  memberships, a WAN route via GVI *i* for datagrams from the service IP
  (so a pool host promoted for service *i* answers through GVI *i* from
  its first segment) and a bound listener; retiring one stands the
  engine down and runs the hook, so the host stops receiving — and can
  never RST — traffic for a service it no longer shadows;
* each service gets its **own client host** behind the gateway, so
  per-pair progress timelines stay separable in the trace stream.

Address plan — LAN ``10.1.0.0/24``: primaries ``.1+i``, pool hosts
``.64+j``, services ``.100+i``, GVIs ``.200+i``, gateway ``.254``.
WAN ``192.168.9.0/24``: clients ``.10+i``, gateway ``.1``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.apps.server import request_response_server
from repro.cluster.arbiter import ClusterArbiter
from repro.cluster.scenario import ClusterSpec
from repro.errors import ConfigurationError
from repro.host.host import Host, make_gateway
from repro.net.addresses import IPAddress, fresh_multicast_mac, ip
from repro.net.medium import Cable, Hub
from repro.net.switch import Switch
from repro.sim.simulator import Simulator
from repro.sttcp.backup import STTCPBackup
from repro.sttcp.primary import STTCPPrimary

SERVICE_PORT = 8000

GATEWAY_LAN_IP = ip("10.1.0.254")
GATEWAY_WAN_IP = ip("192.168.9.1")
WAN_NET = ip("192.168.9.0")

#: Fabric size caps — the /24 address plan above, not a simulator limit.
MAX_PRIMARIES = 32
MAX_BACKUPS = 32


class ServiceNode:
    """One service: its primary host, identity, client, and engine."""

    def __init__(
        self,
        index: int,
        name: str,
        primary: Host,
        client: Host,
        service_ip: IPAddress,
        sme: Any,
        gvi: IPAddress,
        gme: Any,
        config: Any,
    ) -> None:
        self.index = index
        self.name = name
        self.primary = primary
        self.client = client
        self.service_ip = service_ip
        self.sme = sme
        #: The gateway identity this service's replies leave by (§3.1).
        self.gvi = gvi
        self.gme = gme
        self.config = config
        #: The live primary-side engine (rebound on promotion).
        self.engine: Optional[STTCPPrimary] = None
        #: The host currently acting as this service's primary.
        self.primary_host: Host = primary

    @property
    def channel_ip(self) -> IPAddress:
        return self.primary_host.interfaces[0].ip


class PoolNode:
    """One backup-pool host and the services it shadows."""

    def __init__(self, index: int, name: str, host: Host, nic: Any, port: Any) -> None:
        self.index = index
        self.name = name
        self.host = host
        self.nic = nic
        self.port = port
        #: service name → (its backup engine, the hook that detaches it).
        self.shadows: Dict[str, Tuple[STTCPBackup, Callable[[], None]]] = {}

    @property
    def channel_ip(self) -> IPAddress:
        return self.host.interfaces[0].ip

    def retire(self, name: str) -> None:
        """Stand the engine for ``name`` down and detach its service."""
        engine, detach = self.shadows.pop(name)
        engine.retire()
        detach()


class ClusterFabric:
    """The built fabric: hosts wired, engines not yet assigned."""

    def __init__(self, spec: ClusterSpec, sim: Optional[Simulator] = None) -> None:
        if spec.primaries > MAX_PRIMARIES or spec.backups > MAX_BACKUPS:
            raise ConfigurationError(
                f"the /24 address plan holds {MAX_PRIMARIES} primaries / "
                f"{MAX_BACKUPS} backups; asked for {spec.primaries}/{spec.backups}"
            )
        self.spec = spec
        self.sim = sim or Simulator(seed=spec.seed)
        profile = spec.network_profile()
        self.profile = profile
        tcp_config = profile.tcp_config()
        self.started = False
        self.arbiter = ClusterArbiter(self.sim, spec.arbiter_delay)
        self.arbiter.sabotaged = spec.arbiter_sabotaged
        self.switch = Switch(self.sim, forwarding_delay=profile.switch_delay)
        self.gateway = make_gateway(self.sim, "gateway")

        #: host/gateway name → its LAN cable (fault injection hooks here).
        self.lan_cables: Dict[str, Cable] = {}

        def lan_cable(nic: Any, label: str) -> Any:
            port = self.switch.new_port()
            self.lan_cables[label] = Cable(
                self.sim, nic, port, profile.link_rate_bps, delay=profile.hub_delay / 2
            )
            return port

        # Gateway: one LAN port on the switch, one WAN hub for all clients.
        gw_wan = self.gateway.add_nic("wan0")
        gw_lan = self.gateway.add_nic("lan0")
        self.wan = Hub(self.sim, profile.link_rate_bps, delay=profile.hub_delay)
        self.wan.attach(gw_wan)
        gw_port = lan_cable(gw_lan, "gateway")
        self.gateway.configure_ip(gw_wan, GATEWAY_WAN_IP, 24)
        self.gateway.configure_ip(gw_lan, GATEWAY_LAN_IP, 24)

        self.services: List[ServiceNode] = []
        for i, name in enumerate(spec.service_names()):
            primary = Host(self.sim, f"p{i}", tcp_config=tcp_config)
            nic = primary.add_nic()
            port = lan_cable(nic, f"p{i}")
            primary.configure_ip(nic, ip(f"10.1.0.{1 + i}"), 24)
            service_ip = ip(f"10.1.0.{100 + i}")
            sme = fresh_multicast_mac()
            primary.add_vnic("svi", service_ip, sme, nic)
            self.switch.join_multicast(sme, port)
            self.gateway.arp.add_static(service_ip, sme)
            # GVI/GME: this service's server→client identity.
            gvi = ip(f"10.1.0.{200 + i}")
            gme = fresh_multicast_mac()
            self.gateway.add_vnic(f"gvi{i}", gvi, gme, gw_lan)
            self.switch.join_multicast(gme, gw_port)
            primary.arp.add_static(gvi, gme)
            primary.ip_layer.add_route(WAN_NET, 24, nic, next_hop=gvi)

            client = Host(self.sim, f"c{i}", tcp_config=tcp_config)
            client_nic = client.add_nic()
            self.wan.attach(client_nic)
            client.configure_ip(client_nic, ip(f"192.168.9.{10 + i}"), 24)
            client.ip_layer.add_default_route(client_nic, GATEWAY_WAN_IP)

            self.services.append(
                ServiceNode(
                    i, name, primary, client, service_ip, sme, gvi, gme, spec.sttcp_config(i)
                )
            )

        self.backups: List[PoolNode] = []
        for j, name in enumerate(spec.backup_names()):
            host = Host(self.sim, name, tcp_config=tcp_config)
            nic = host.add_nic()
            port = lan_cable(nic, name)
            host.configure_ip(nic, ip(f"10.1.0.{64 + j}"), 24)
            self.backups.append(PoolNode(j, name, host, nic, port))

        self.service_by_name: Dict[str, ServiceNode] = {
            node.name: node for node in self.services
        }
        self.backup_by_name: Dict[str, PoolNode] = {
            node.name: node for node in self.backups
        }

    # Shadow wiring -----------------------------------------------------------------
    def attach_shadow(self, backup: PoolNode, service: ServiceNode) -> STTCPBackup:
        """Wire ``backup`` to shadow ``service`` and return its engine.

        Wires the service VNIC (ARP-suppressed), the SME and GME
        memberships on the NIC and the switch port, the WAN route via the
        service's GVI for datagrams from the service IP, and a listener
        bound to the service IP; records the engine in ``backup.shadows``
        with the matching detach hook, and starts it if the fabric runs.
        """
        host = backup.host
        vnic = host.add_vnic(
            f"svi-{service.name}", service.service_ip, service.sme, backup.nic,
            suppress_arp=True,
        )
        self.switch.join_multicast(service.sme, backup.port)
        backup.nic.join_mac(service.gme)
        self.switch.join_multicast(service.gme, backup.port)
        host.arp.add_static(service.gvi, service.gme)
        host.ip_layer.add_route(
            WAN_NET, 24, backup.nic, next_hop=service.gvi, src_ip=service.service_ip
        )
        listener_box: list = []
        host.spawn(
            request_response_server(
                host,
                SERVICE_PORT,
                service.service_ip,
                service_time=self.spec.service_time,
                listener_box=listener_box,
            ),
            f"{backup.name}.server:{service.name}",
        )

        def detach() -> None:
            for listener in listener_box:
                listener.close()
            host.remove_vnic(vnic)
            self.switch.leave_multicast(service.sme, backup.port)
            host.arp.unsuppress_ip(service.service_ip)
            backup.nic.leave_mac(service.gme)
            self.switch.leave_multicast(service.gme, backup.port)
            host.arp.remove_static(service.gvi)
            host.ip_layer.routes.remove_network(WAN_NET, 24, src=service.service_ip)

        engine = STTCPBackup(
            host,
            service.service_ip,
            SERVICE_PORT,
            service.channel_ip,
            service.config,
            primary_host=service.primary_host,
            power_switch=self.arbiter,
        )
        backup.shadows[service.name] = (engine, detach)
        if self.started:
            engine.start()
        return engine

    def create_primary_engine(
        self, service: ServiceNode, backup: PoolNode, channel: Any = None
    ) -> STTCPPrimary:
        """(Re)create the primary-side engine of ``service`` on its
        current primary host, heartbeating to ``backup``."""
        engine = STTCPPrimary(
            service.primary_host,
            service.service_ip,
            SERVICE_PORT,
            [backup.channel_ip],
            config=service.config,
            channel=channel,
            backup_hosts={backup.channel_ip.value: backup.host},
        )
        service.engine = engine
        return engine

    # Deployment --------------------------------------------------------------------
    def start_services(self) -> None:
        """Launch every primary's listener process and engine, and every
        pool host's backup engines."""
        for service in self.services:
            request = request_response_server(
                service.primary,
                SERVICE_PORT,
                service.service_ip,
                service_time=self.spec.service_time,
            )
            service.primary.spawn(request, f"{service.primary.name}.server")
            if service.engine is not None:
                service.engine.start()
        self.started = True
        for backup in self.backups:
            for engine, _detach in backup.shadows.values():
                engine.start()

    @property
    def server_hosts(self) -> List[Host]:
        """Every host that may legitimately own a service identity."""
        return [node.primary for node in self.services] + [
            node.host for node in self.backups
        ]
