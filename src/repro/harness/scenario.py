"""Scenario builder: the paper's topologies, ready to run.

Two topologies:

* ``hub`` — the experimental setup of §6: client, primary and backup on
  one shared 10/100 hub; the backup taps promiscuously.
* ``switched`` — the architecture of Figure 2: the client sits behind a
  gateway; primary and backup hang off an Ethernet switch; tapping works
  through virtual NICs with *multicast* Ethernet addresses (SME for
  client→server, GME for server→client) plus static ARP entries on the
  gateway and the primary.

Modes:

* ``standard`` — plain TCP server on the primary only (the baseline rows
  of Table 1);
* ``sttcp`` — a primary and one to three backups with UDP channel,
  heartbeats, optional packet logger and power switch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.errors import ConfigurationError
from repro.harness.calibrate import PAPER_TESTBED, NetworkProfile
from repro.host.host import Host, make_gateway
from repro.net.addresses import IPAddress, fresh_multicast_mac, ip
from repro.net.medium import Cable, Hub
from repro.net.switch import Switch
from repro.sim.simulator import Simulator
from repro.sttcp.backup import STTCPBackup
from repro.sttcp.config import STTCPConfig
from repro.sttcp.group import STTCPServerGroup
from repro.sttcp.power_switch import PowerSwitch

if TYPE_CHECKING:  # pragma: no cover - typing only; imported when a logger is built
    from repro.logger.packet_logger import PacketLogger

TOPOLOGY_HUB = "hub"
TOPOLOGY_SWITCHED = "switched"

SERVICE_PORT = 8000

# Address plan (LAN 10.0.0.0/24, client subnet 192.168.1.0/24).
PRIMARY_IP = ip("10.0.0.1")
BACKUP_IP = ip("10.0.0.2")
EXTRA_BACKUP_IPS = (ip("10.0.0.3"), ip("10.0.0.4"))
LOGGER_IP = ip("10.0.0.5")
GATEWAY_LAN_IP = ip("10.0.0.254")
GATEWAY_VIRTUAL_IP = ip("10.0.0.253")  # GVI
SERVICE_IP = ip("10.0.0.100")  # SVI
CLIENT_LAN_IP = ip("10.0.0.10")  # hub topology
CLIENT_WAN_IP = ip("192.168.1.2")  # switched topology
GATEWAY_WAN_IP = ip("192.168.1.1")
LAN_NET = ip("10.0.0.0")
WAN_NET = ip("192.168.1.0")


class Scenario:
    """A built topology plus the service deployment.  Every host runs
    ``profile.tcp_config()``; the backup queries the packet logger for
    tap gaps (§3.2) exactly when the scenario has one."""

    def __init__(
        self,
        profile: NetworkProfile = PAPER_TESTBED,
        topology: str = TOPOLOGY_HUB,
        sttcp: Optional[STTCPConfig] = None,
        with_logger: bool = False,
        backups: int = 1,
        seed: int = 0,
    ) -> None:
        if topology not in (TOPOLOGY_HUB, TOPOLOGY_SWITCHED):
            raise ConfigurationError(f"unknown topology {topology!r}")
        if backups < 1 or backups > 1 + len(EXTRA_BACKUP_IPS):
            raise ConfigurationError(f"backups must be 1..3, got {backups}")
        self.profile = profile
        self.topology = topology
        self.sttcp_config = sttcp
        self.with_logger = with_logger
        self.sim = Simulator(seed=seed)
        tcp_config = profile.tcp_config()
        self.backups_requested = backups
        self.client = Host(self.sim, "client", tcp_config=tcp_config)
        self.primary = Host(self.sim, "primary", tcp_config=tcp_config)
        self.backup: Optional[Host] = None
        self.gateway: Optional[Host] = None
        self.logger: Optional[PacketLogger] = None
        self.logger_host: Optional[Host] = None
        self.power_switch: Optional[PowerSwitch] = None
        self.pair: Optional[STTCPServerGroup] = None
        self.hub: Optional[Hub] = None
        self.switch: Optional[Switch] = None
        self.extra_backups: list = []
        if sttcp is not None:
            self.backup = Host(self.sim, "backup", tcp_config=tcp_config)
            for index in range(backups - 1):
                self.extra_backups.append(
                    Host(self.sim, f"backup{index + 2}", tcp_config=tcp_config)
                )
            self.power_switch = PowerSwitch(self.sim, sttcp.stonith_delay)
        if with_logger:
            self.logger_host = Host(self.sim, "logger", tcp_config=tcp_config)
        if topology == TOPOLOGY_HUB:
            self._build_hub()
        else:
            self._build_switched()
        if with_logger:
            from repro.logger.packet_logger import PacketLogger

            self.logger = PacketLogger(self.logger_host, SERVICE_IP, SERVICE_PORT)
        if sttcp is not None:
            logger_client = None
            if self.logger is not None:
                from repro.logger.client import LoggerClient

                logger_client = LoggerClient(self.backup, self.logger.address)
            from repro.ftcp.baseline import FTCPBackup, FTCPConfig

            ftcp = isinstance(sttcp, FTCPConfig)
            if ftcp and self.extra_backups:
                raise ConfigurationError("the FT-TCP baseline models a single backup")
            self.pair = STTCPServerGroup(
                self.primary,
                [self.backup] + self.extra_backups,
                SERVICE_IP,
                SERVICE_PORT,
                config=sttcp,
                power_switch=self.power_switch,
                logger_clients=[logger_client] + [None] * len(self.extra_backups),
                backup_engine_factory=FTCPBackup if ftcp else STTCPBackup,
            )

    # Topology builders ---------------------------------------------------------
    def _build_hub(self) -> None:
        profile = self.profile
        self.hub = Hub(self.sim, profile.link_rate_bps, delay=profile.hub_delay)
        client_nic = self.client.add_nic()
        self.hub.attach(client_nic)
        self.client.configure_ip(client_nic, CLIENT_LAN_IP, 24)
        primary_nic = self.primary.add_nic()
        self.hub.attach(primary_nic)
        self.primary.configure_ip(primary_nic, PRIMARY_IP, 24)
        # The service IP rides the primary's hardware MAC on a hub.
        self.primary.add_vnic("svi", SERVICE_IP, primary_nic.mac, primary_nic)
        if self.backup is not None:
            backup_nic = self.backup.add_nic()
            backup_nic.promiscuous = True  # the hub tap (§6)
            self.hub.attach(backup_nic)
            self.backup.configure_ip(backup_nic, BACKUP_IP, 24)
            self.backup.add_vnic("svi", SERVICE_IP, backup_nic.mac, backup_nic)
            for index, extra in enumerate(self.extra_backups):
                nic = extra.add_nic()
                nic.promiscuous = True
                self.hub.attach(nic)
                extra.configure_ip(nic, EXTRA_BACKUP_IPS[index], 24)
                extra.add_vnic("svi", SERVICE_IP, nic.mac, nic)
        if self.logger_host is not None:
            logger_nic = self.logger_host.add_nic()
            logger_nic.promiscuous = True
            self.hub.attach(logger_nic)
            self.logger_host.configure_ip(logger_nic, LOGGER_IP, 24)

    def _build_switched(self) -> None:
        profile = self.profile
        self.switch = Switch(self.sim, forwarding_delay=profile.switch_delay)
        self.gateway = make_gateway(self.sim, "gateway")

        def lan_cable(nic_owner_nic) -> None:
            port = self.switch.new_port()
            Cable(
                self.sim,
                nic_owner_nic,
                port,
                profile.link_rate_bps,
                delay=profile.hub_delay / 2,
            )
            return port

        # Gateway: WAN link to the client, LAN port on the switch.
        gw_wan = self.gateway.add_nic("wan0")
        gw_lan = self.gateway.add_nic("lan0")
        client_nic = self.client.add_nic()
        Cable(
            self.sim, client_nic, gw_wan, profile.link_rate_bps, delay=profile.hub_delay
        )
        gw_port = lan_cable(gw_lan)
        self.gateway.configure_ip(gw_wan, GATEWAY_WAN_IP, 24)
        self.gateway.configure_ip(gw_lan, GATEWAY_LAN_IP, 24)
        self.client.configure_ip(client_nic, CLIENT_WAN_IP, 24)
        self.client.ip_layer.add_default_route(client_nic, GATEWAY_WAN_IP)

        primary_nic = self.primary.add_nic()
        primary_port = lan_cable(primary_nic)
        self.primary.configure_ip(primary_nic, PRIMARY_IP, 24)

        # SVI/SME: the service identity, multicast so the switch fans it out.
        sme = fresh_multicast_mac()
        self.primary.add_vnic("svi", SERVICE_IP, sme, primary_nic)
        self.switch.join_multicast(sme, primary_port)
        # Static ARP on the gateway: the router may not learn a multicast
        # MAC from a reply (RFC 1812), so it is pinned (§3.1).
        self.gateway.arp.add_static(SERVICE_IP, sme)

        # GVI/GME: the gateway's virtual identity for server→client traffic.
        gme = fresh_multicast_mac()
        self.gateway.add_vnic("gvi", GATEWAY_VIRTUAL_IP, gme, gw_lan)
        self.switch.join_multicast(gme, gw_port)
        self.primary.arp.add_static(GATEWAY_VIRTUAL_IP, gme)
        self.primary.ip_layer.add_route(
            WAN_NET, 24, primary_nic, next_hop=GATEWAY_VIRTUAL_IP
        )

        if self.backup is not None:
            for index, host in enumerate([self.backup] + self.extra_backups):
                backup_nic = host.add_nic()
                backup_port = lan_cable(backup_nic)
                address = BACKUP_IP if index == 0 else EXTRA_BACKUP_IPS[index - 1]
                host.configure_ip(backup_nic, address, 24)
                host.add_vnic("svi", SERVICE_IP, sme, backup_nic)
                self.switch.join_multicast(sme, backup_port)
                # Tap the server→client direction through GME membership.
                backup_nic.join_mac(gme)
                self.switch.join_multicast(gme, backup_port)
                host.arp.add_static(GATEWAY_VIRTUAL_IP, gme)
                host.ip_layer.add_route(
                    WAN_NET, 24, backup_nic, next_hop=GATEWAY_VIRTUAL_IP
                )
        if self.logger_host is not None:
            logger_nic = self.logger_host.add_nic()
            logger_port = lan_cable(logger_nic)
            self.logger_host.configure_ip(logger_nic, LOGGER_IP, 24)
            logger_nic.join_mac(sme)
            self.switch.join_multicast(sme, logger_port)
            logger_nic.join_mac(gme)
            self.switch.join_multicast(gme, logger_port)

    # Service deployment -----------------------------------------------------------
    def start_service(self, service_time: float = 0.0) -> None:
        """Launch the server side (standard or ST-TCP pair); idempotent so
        several client runs can share one scenario."""
        if getattr(self, "_service_started", False):
            return
        self._service_started = True
        if self.pair is not None:
            self.pair.start_service(service_time)
        else:
            from repro.apps.server import start_server

            start_server(self.primary, SERVICE_PORT, service_time=service_time)

    @property
    def service_addr(self) -> Tuple[IPAddress, int]:
        return (SERVICE_IP, SERVICE_PORT)
