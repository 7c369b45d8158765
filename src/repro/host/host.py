"""The host: NICs, ARP, IP, UDP, TCP, processes, crash semantics.

A :class:`Host` wires the layers together and owns the address state —
interface IPs plus VNICs (virtual interfaces, possibly with multicast
MACs, per §3.1).  Crash/performance failure semantics (§4.4) are modelled
by :meth:`Host.crash`: the host instantly stops sending, receiving and
executing — exactly the assumption the paper's failure detector relies on.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Set

from repro.errors import ConfigurationError
from repro.net.addresses import IPAddress, MACAddress
from repro.net.arp import ArpService
from repro.net.frame import ETHERTYPE_ARP, ETHERTYPE_IPV4
from repro.net.loss import LossModel
from repro.net.nic import NIC, VirtualInterface
from repro.ip.layer import IPLayer
from repro.sim.process import Process
from repro.tcp.config import TCPConfig
from repro.tcp.layer import TCPLayer
from repro.udp.layer import UDPLayer


#: ``Host.processes`` is not pruned below this length.
_PRUNE_FLOOR = 16


class Interface:
    """A configured (NIC, IP, prefix) binding."""

    __slots__ = ("nic", "ip", "prefix_len")

    def __init__(self, nic: NIC, ip: IPAddress, prefix_len: int) -> None:
        self.nic = nic
        self.ip = ip
        self.prefix_len = prefix_len

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Interface {self.nic.name} {self.ip}/{self.prefix_len}>"


class Host:
    """One simulated machine."""

    def __init__(
        self,
        sim: Any,
        name: str,
        tcp_config: Optional[TCPConfig] = None,
        nic_processing_delay: float = 0.0,
        nic_rx_queue_capacity: int = 0,
    ) -> None:
        self.sim = sim
        self.name = name
        self.is_up = True
        self.nic_processing_delay = nic_processing_delay
        self.nic_rx_queue_capacity = nic_rx_queue_capacity
        self.nics: List[NIC] = []
        self.interfaces: List[Interface] = []
        self.vnics: List[VirtualInterface] = []
        self.processes: List[Process] = []
        self._prune_processes_at = _PRUNE_FLOOR
        self.arp = ArpService(sim, self)
        self.ip_layer = IPLayer(sim, self)
        self.arp.on_change = self.ip_layer.invalidate_flows
        self.udp = UDPLayer(sim, self)
        self.tcp = TCPLayer(sim, self, tcp_config)
        #: Run by :meth:`crash` after the layers halt; each cancels what an engine armed.
        self.crash_observers: List[Callable[[], None]] = []
        #: The ``value`` of every IP this host answers to: interface IPs
        #: and VNIC IPs (DESIGN §13 rule 8).
        self.local_ip_values: Set[int] = set()
        self.crashed_at: Optional[float] = None

    # NICs and addressing --------------------------------------------------------
    def add_nic(
        self,
        name: Optional[str] = None,
        mac: Optional[MACAddress] = None,
        processing_delay: Optional[float] = None,
        rx_queue_capacity: Optional[int] = None,
        rx_loss_model: Optional[LossModel] = None,
    ) -> NIC:
        """Create a NIC wired into this host's stack."""
        nic = NIC(
            self.sim,
            name or f"eth{len(self.nics)}",
            mac=mac,
            processing_delay=(
                self.nic_processing_delay if processing_delay is None else processing_delay
            ),
            rx_queue_capacity=(
                self.nic_rx_queue_capacity
                if rx_queue_capacity is None
                else rx_queue_capacity
            ),
            rx_loss_model=rx_loss_model,
        )
        nic.register_ethertype(ETHERTYPE_IPV4, self.ip_layer.receive)
        nic.register_ethertype(ETHERTYPE_ARP, self.arp.handle_message)
        self.nics.append(nic)
        return nic

    def configure_ip(self, nic: NIC, ip: IPAddress, prefix_len: int = 24) -> None:
        """Assign a primary IP to a NIC and install the connected route."""
        if nic not in self.nics:
            raise ConfigurationError(f"NIC {nic.name} does not belong to {self.name}")
        self.interfaces.append(Interface(nic, ip, prefix_len))
        self.local_ip_values.add(ip.value)
        self.ip_layer.add_route(ip, prefix_len, nic)  # invalidates the flow cache

    def add_vnic(
        self,
        name: str,
        ip: IPAddress,
        mac: MACAddress,
        nic: NIC,
        suppress_arp: bool = False,
    ) -> VirtualInterface:
        """Create a virtual interface (extra IP + MAC identity) on ``nic``.

        ``suppress_arp=True`` keeps the host from answering ARP for the
        IP — the passive-backup stance until failover.
        """
        vnic = VirtualInterface(name, ip, mac, nic)
        self.vnics.append(vnic)
        if suppress_arp:
            self.arp.suppress_ip(ip)
        self.local_ip_values.add(ip.value)
        self.ip_layer.invalidate_flows()
        return vnic

    def remove_vnic(self, vnic: VirtualInterface) -> None:
        vnic.remove()
        self.vnics.remove(vnic)
        # The IP may still be held by an interface or another VNIC.
        self.local_ip_values = {iface.ip.value for iface in self.interfaces}
        self.local_ip_values.update(other.ip.value for other in self.vnics)
        self.ip_layer.invalidate_flows()

    # Address queries (used by ARP and IP layers) -----------------------------------
    def primary_ip_on(self, nic: NIC) -> IPAddress:
        for iface in self.interfaces:
            if iface.nic is nic:
                return iface.ip
        for vnic in self.vnics:
            if vnic.hw_nic is nic:
                return vnic.ip
        raise ConfigurationError(f"no IP configured on {self.name}/{nic.name}")

    def owned_ip_macs(self, nic: NIC) -> Dict[int, MACAddress]:
        """IP ``value`` → answering MAC for the ARP responder, scoped to ``nic``."""
        owned: Dict[int, MACAddress] = {}
        for iface in self.interfaces:
            if iface.nic is nic:
                owned[iface.ip.value] = nic.mac
        for vnic in self.vnics:
            if vnic.hw_nic is nic:
                owned[vnic.ip.value] = vnic.mac
        return owned

    def source_mac_for(self, nic: NIC, src_ip: IPAddress) -> MACAddress:
        """The source MAC for frames carrying ``src_ip`` out of ``nic``."""
        for vnic in self.vnics:
            if vnic.hw_nic is nic and vnic.ip.value == src_ip.value:
                return vnic.mac
        return nic.mac

    # Processes ------------------------------------------------------------------------
    def spawn(self, generator: Generator, label: str = "") -> Process:
        """Run an application process tied to this host's lifetime."""
        process = self.sim.spawn(generator, label or f"{self.name}.proc")
        processes = self.processes
        if len(processes) >= self._prune_processes_at:
            # Only crash() reads the list, and only for the live ones: drop
            # the finished (one handler per accepted connection) each time
            # it has doubled, so it stays proportional to the live set.
            processes[:] = [p for p in processes if p.alive]
            self._prune_processes_at = max(_PRUNE_FLOOR, 2 * len(processes))
        processes.append(process)
        return process

    # Failure semantics -------------------------------------------------------------------
    def crash(self) -> None:
        """Crash the machine: no more frames, timers, or process steps.

        Power-off, kill, halt, observers: the NICs go dark, the processes
        die, TCP and ARP cancel what they queued, and the crash observers
        cancel what the engines armed.  Kill before halt: a killed handler's
        ``finally: conn.close()`` arms a FIN retransmit the halt must cancel.
        """
        if not self.is_up:
            return
        self.is_up = False
        self.crashed_at = self.sim.now
        for nic in self.nics:
            nic.power_off()
        for process in self.processes:
            process.kill()
        self.tcp.halt()
        self.arp.halt()
        for observer in self.crash_observers:
            observer()
        if "host" in self.sim.trace.categories:
            self.sim.trace.emit(self.sim.now, "host", "crash", host=self.name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        status = "up" if self.is_up else "down"
        return f"<Host {self.name} {status}>"


def make_gateway(sim: Any, name: str = "gateway", **host_kwargs: Any) -> Host:
    """A host with IP forwarding enabled (the paper's gateway node)."""
    gateway = Host(sim, name, **host_kwargs)
    gateway.ip_layer.forwarding = True
    return gateway
