"""A managed Ethernet switch.

Models the two tapping mechanisms of §3.1:

* **Port mirroring** — "some managed Ethernet switches provide an option to
  forward traffic flowing from/to a port to some other port": configure
  :meth:`Switch.mirror_port` to copy a port's ingress/egress to a monitor
  port where the backup listens.
* **Multicast group forwarding** — frames addressed to a multicast MAC are
  delivered to every port statically joined to that group (the SME/GME
  addresses), so both primary and backup receive the service traffic.

The switch is store-and-forward with a configurable forwarding latency and
learns unicast source addresses like a real learning switch.  An output
decision is remembered until a table it read is written.  A frame costs
one kernel event per hop: the ingress decides and books each output
port's cable from the egress instant on (``now + forwarding_delay``),
which is why a port takes only a full-duplex cable.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import NetworkError
from repro.net.addresses import MACAddress
from repro.net.frame import EthernetFrame
from repro.net.medium import Attachment, CableAttachment, FrameReceiver


class SwitchPort(FrameReceiver):
    """One switch port; connected to a station through a :class:`Cable`."""

    def __init__(self, switch: "Switch", index: int) -> None:
        self.switch = switch
        self.index = index
        self.attachment: Optional[Attachment] = None
        self.rx_frames = 0
        self.tx_frames = 0

    def attached_to(self, attachment: Attachment) -> None:
        # Egress books the cable ahead of the current instant; a shared
        # half-duplex clock would be reserved out of order.
        if not (isinstance(attachment, CableAttachment) and attachment.cable.full_duplex):
            raise NetworkError(f"switch port {self.index} takes only a full-duplex cable")
        self.attachment = attachment

    def receive_frame(self, frame: EthernetFrame) -> None:
        self.rx_frames += 1
        self.switch._ingress(self, frame)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SwitchPort {self.switch.name}[{self.index}]>"


class Switch:
    """A learning Ethernet switch with mirroring and static multicast."""

    def __init__(
        self,
        sim: Any,
        name: str = "switch",
        forwarding_delay: float = 0.0,
    ) -> None:
        self.sim = sim
        self.name = name
        self.forwarding_delay = forwarding_delay
        self.ports: List[SwitchPort] = []
        #: MAC ``value`` → port; the groups below are keyed the same way
        #: (DESIGN §13 rule 8).
        self._mac_table: Dict[int, SwitchPort] = {}
        # A frame leaves by its ports in index order, so same-instant
        # deliveries are queued in an order that does not depend on where
        # the ports sit in memory (ports hash by id): groups are lists kept
        # sorted, and no set of ports decides an output order.
        self._multicast_groups: Dict[int, List[SwitchPort]] = {}
        self._mirrors: Dict[SwitchPort, Set[SwitchPort]] = {}
        #: ``in_port.index << 48 | dst.value`` → (output ports with their
        #: mirrors, flooded?); cleared by every writer of the tables above.
        self._decisions: Dict[int, Tuple[List[SwitchPort], bool]] = {}
        self.frames_forwarded = 0
        self.frames_flooded = 0

    # Configuration -----------------------------------------------------------
    def new_port(self) -> SwitchPort:
        """Allocate a port; connect it to a station with a Cable."""
        port = SwitchPort(self, len(self.ports))
        self.ports.append(port)
        self._decisions.clear()
        return port

    def join_multicast(self, mac: MACAddress, port: SwitchPort) -> None:
        """Statically add ``port`` to the forwarding set of multicast ``mac``."""
        if not mac.is_multicast:
            raise NetworkError(f"{mac} is not a multicast address")
        self._check_port(port)
        members = self._multicast_groups.setdefault(mac.value, [])
        if port not in members:
            members.append(port)
            members.sort(key=lambda member: member.index)
        self._decisions.clear()

    def leave_multicast(self, mac: MACAddress, port: SwitchPort) -> None:
        members = self._multicast_groups.get(mac.value)
        if members is not None and port in members:
            members.remove(port)
            if not members:
                del self._multicast_groups[mac.value]
        self._decisions.clear()

    def mirror_port(self, monitored: SwitchPort, monitor: SwitchPort) -> None:
        """Copy all traffic entering or leaving ``monitored`` to ``monitor``."""
        self._check_port(monitored)
        self._check_port(monitor)
        if monitored is monitor:
            raise NetworkError("cannot mirror a port to itself")
        self._mirrors.setdefault(monitored, set()).add(monitor)
        self._decisions.clear()

    def unmirror_port(self, monitored: SwitchPort, monitor: SwitchPort) -> None:
        mirrors = self._mirrors.get(monitored)
        if mirrors is not None:
            mirrors.discard(monitor)
            if not mirrors:
                del self._mirrors[monitored]
        self._decisions.clear()

    def _check_port(self, port: SwitchPort) -> None:
        if port.switch is not self:
            raise NetworkError(f"port {port!r} belongs to another switch")

    # Forwarding ---------------------------------------------------------------
    def _ingress(self, in_port: SwitchPort, frame: EthernetFrame) -> None:
        src = frame.src.value
        table = self._mac_table
        if not (src >> 40) & 1 and (src not in table or table[src] is not in_port):
            table[src] = in_port  # a unicast source, new or moved
            self._decisions.clear()
        key = in_port.index << 48 | frame.dst.value
        decisions = self._decisions
        if key in decisions:
            targets, flooded = decisions[key]
        else:
            targets, flooded = self._select_output_ports(in_port, frame)
            if self._mirrors:
                targets = self._with_mirrors(in_port, targets)
            decisions[key] = (targets, flooded)
        if flooded:
            self.frames_flooded += 1
        if not targets:
            return
        self.frames_forwarded += 1
        # Egress: each output port's cable clocks the frame out from the
        # instant store-and-forward would hand it over, with no event of
        # its own (a port's cable is full-duplex: ``attached_to``).
        at = self.sim.now + self.forwarding_delay
        for port in targets:
            attachment = port.attachment
            if attachment is not None:
                port.tx_frames += 1
                if attachment.attached:
                    attachment.cable._transmit(attachment.direction, frame, at)

    def _select_output_ports(
        self, in_port: SwitchPort, frame: EthernetFrame
    ) -> Tuple[List[SwitchPort], bool]:
        """The ports a frame leaves by, in port-index order, and whether
        that is a flood (unregistered multicast, unknown unicast)."""
        flood = [port for port in self.ports if port is not in_port]
        if frame.dst.is_broadcast:
            return flood, False
        if frame.dst.is_multicast:
            members = self._multicast_groups.get(frame.dst.value)
            if members is not None:
                return [port for port in members if port is not in_port], False
            # Unregistered multicast floods, like a real switch.
            return flood, True
        learned = self._mac_table.get(frame.dst.value)
        if learned is not None:
            return ([] if learned is in_port else [learned]), False
        return flood, True

    def _with_mirrors(
        self, in_port: SwitchPort, out_ports: List[SwitchPort]
    ) -> List[SwitchPort]:
        """``out_ports`` plus the ingress mirrors of the arrival port and
        the egress mirrors of each output port, in port-index order."""
        chosen = set(out_ports)
        chosen.update(self._mirrors.get(in_port, ()))
        for port in out_ports:
            chosen.update(self._mirrors.get(port, ()))
        chosen.discard(in_port)
        return [port for port in self.ports if port in chosen]
