"""Network interface cards and virtual interfaces (VNICs).

A :class:`NIC` filters incoming frames by destination MAC (unless
promiscuous), models receive-side processing cost and a finite RX queue —
the queue is what can overflow on a heavily loaded backup, producing the
tapped-segment loss that ST-TCP's UDP recovery channel exists to repair
(§4.2) — and hands surviving frames to the host stack.

A :class:`VirtualInterface` is the paper's VNIC (§3.1): an extra
(IP, MAC) identity layered on a hardware NIC.  Assigning a *multicast* MAC
to the VNIC of both primary and backup is what lets a switch deliver the
service traffic to both machines.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set

from repro.errors import NetworkError
from repro.net.addresses import MAC_BROADCAST, IPAddress, MACAddress, fresh_unicast_mac
from repro.net.frame import EthernetFrame
from repro.net.loss import LossModel
from repro.net.medium import Attachment, FrameReceiver

PayloadHandler = Callable[[Any, "NIC"], None]  # an accepted frame's payload
FrameObserver = Callable[[EthernetFrame, "NIC"], None]


class NIC(FrameReceiver):
    """A simulated Ethernet interface."""

    mac_filtered = True  # a hub judges it inline (FrameReceiver)

    def __init__(
        self,
        sim: Any,
        name: str = "eth0",
        mac: Optional[MACAddress] = None,
        processing_delay: float = 0.0,
        rx_queue_capacity: int = 0,
        rx_loss_model: Optional[LossModel] = None,
    ) -> None:
        """Create a NIC.

        ``processing_delay`` models per-frame receive-side CPU cost;
        ``rx_queue_capacity`` bounds the number of frames awaiting that
        processing (0 = unbounded).  Both default off so that plain
        topologies are cheap.
        """
        self.sim = sim
        self.name = name
        self.mac = mac or fresh_unicast_mac()
        self.processing_delay = processing_delay
        self.rx_queue_capacity = rx_queue_capacity
        self.rx_loss_model = rx_loss_model
        self.promiscuous = False
        self.powered = True
        #: Ethertype → handler of the payload (DESIGN §13 rule 8).
        self._handlers: Dict[int, PayloadHandler] = {}
        self._observers: List[FrameObserver] = []
        self.attachment: Optional[Attachment] = None
        #: ``value`` of every MAC the filter accepts (DESIGN §13 rule 8).
        self.accepted: Set[int] = {self.mac.value, MAC_BROADCAST.value}
        self._rx_busy_until = 0.0
        self._rx_pending = 0
        # Counters (public, read by metrics collectors and tests).
        self.tx_frames = 0
        self.tx_bytes = 0
        self.rx_frames = 0
        self.rx_bytes = 0
        self.rx_dropped_filter = 0
        self.rx_dropped_queue = 0
        self.rx_dropped_loss = 0
        self.rx_dropped_down = 0

    # Wiring ----------------------------------------------------------------
    def attached_to(self, attachment: Attachment) -> None:
        """Callback from media when this NIC is plugged in."""
        self.attachment = attachment

    def register_ethertype(self, ethertype: int, handler: PayloadHandler) -> None:
        """Hand the payload of each accepted ``ethertype`` frame to ``handler``;
        a frame of an ethertype nobody registered goes no further."""
        self._handlers[ethertype] = handler

    def add_observer(self, observer: FrameObserver) -> None:
        """See every accepted frame, after filtering and queueing (tcpdump)."""
        self._observers.append(observer)

    def remove_observer(self, observer: FrameObserver) -> None:
        self._observers.remove(observer)

    # Address filtering ------------------------------------------------------
    def join_mac(self, mac: MACAddress) -> None:
        """Accept frames addressed to an additional MAC (VNIC/multicast)."""
        self.accepted.add(mac.value)

    def leave_mac(self, mac: MACAddress) -> None:
        if mac.value == self.mac.value or mac.value == MAC_BROADCAST.value:
            raise NetworkError(f"cannot remove built-in address {mac}")
        self.accepted.discard(mac.value)

    # Transmit ----------------------------------------------------------------
    def transmit(self, frame: EthernetFrame) -> None:
        """Send a frame onto the attached medium (no-op when unpowered)."""
        if not self.powered:
            return
        if self.attachment is None:
            raise NetworkError(f"NIC {self.name} is not attached to any medium")
        self.tx_frames += 1
        self.tx_bytes += frame.wire_size
        self.attachment.send(frame)

    # Receive -----------------------------------------------------------------
    def receive_frame(self, frame: EthernetFrame) -> None:
        """Accept, queue or drop one arriving frame.

        The power and filter checks run here although a hub has already
        judged them: cables do not, and a frame can be on the wire when its
        receiver crashes or leaves the MAC it was sent to.
        """
        if not self.powered:
            self.rx_dropped_down += 1
            return
        if not (self.promiscuous or frame.dst.value in self.accepted):
            self.rx_dropped_filter += 1
            return
        now = self.sim.now
        if self.rx_loss_model is not None and self.rx_loss_model(frame, now):
            self.rx_dropped_loss += 1
            if "nic" in self.sim.trace.categories:
                # The frame itself, not only its id: a reader names what
                # the loss model took (``repro explain``).
                self.sim.trace.emit(now, "nic", "rx_loss", nic=self, frame=frame)
            return
        if self.processing_delay <= 0.0:
            self.rx_frames += 1  # delivery, as in _dequeue_and_deliver
            self.rx_bytes += frame.wire_size
            for observer in self._observers:
                observer(frame, self)
            if frame.ethertype in self._handlers:
                self._handlers[frame.ethertype](frame.payload, self)
            return
        if self.rx_queue_capacity and self._rx_pending >= self.rx_queue_capacity:
            self.rx_dropped_queue += 1
            if "nic" in self.sim.trace.categories:
                self.sim.trace.emit(now, "nic", "rx_overflow", nic=self, frame=frame)
            return
        start = max(now, self._rx_busy_until)
        done = start + self.processing_delay
        self._rx_busy_until = done
        self._rx_pending += 1
        self.sim.post(done, self._dequeue_and_deliver, frame)

    def _dequeue_and_deliver(self, frame: EthernetFrame) -> None:
        self._rx_pending -= 1
        if self.powered:
            self.rx_frames += 1
            self.rx_bytes += frame.wire_size
            for observer in self._observers:
                observer(frame, self)
            if frame.ethertype in self._handlers:
                self._handlers[frame.ethertype](frame.payload, self)

    def power_off(self) -> None:
        """Crash semantics: stop sending and receiving immediately."""
        self.powered = False

    def power_on(self) -> None:
        self.powered = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<NIC {self.name} {self.mac}>"


class VirtualInterface:
    """A VNIC: an (IP, MAC) identity mapped onto a hardware NIC.

    The MAC may be multicast — the core of the paper's switched-Ethernet
    tapping architecture.  Creating the interface joins the MAC on the
    hardware NIC so matching frames are accepted.
    """

    def __init__(
        self,
        name: str,
        ip: IPAddress,
        mac: MACAddress,
        hw_nic: NIC,
    ) -> None:
        self.name = name
        self.ip = ip
        self.mac = mac
        self.hw_nic = hw_nic
        hw_nic.join_mac(mac)

    def remove(self) -> None:
        """Tear the VNIC down (used when a backup relinquishes a role)."""
        self.hw_nic.leave_mac(self.mac)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<VNIC {self.name} ip={self.ip} mac={self.mac} on {self.hw_nic.name}>"
