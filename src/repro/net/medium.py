"""Transmission media: point-to-point cables and the shared-medium hub.

Devices (NICs, switch ports) implement the :class:`FrameReceiver` protocol
— a single ``receive_frame(frame)`` method — and hold an
:class:`Attachment` through which they transmit.  Media are responsible for
serialisation (a link clocks one frame at a time per direction), propagation
delay, and loss: a medium built without a loss model (``loss_model`` is
None, as on a NIC) asks none.

The hub reproduces the paper's testbed: a 10/100 Mb/s Ethernet hub is a
*shared half-duplex* medium, so every attached station hears every frame —
which is exactly why the backup can tap the primary's traffic without any
switch support (§6, Experimental Setup).
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.errors import NetworkError
from repro.net.frame import EthernetFrame
from repro.net.loss import LossModel
from repro.util.units import transmission_time


class FrameReceiver:
    """Protocol: anything that can be handed a frame by a medium."""

    #: Set by a receiver the hub judges inline (a NIC: ``powered``,
    #: ``promiscuous``, ``accepted`` and their ``rx_dropped_*`` counters).
    mac_filtered = False

    def receive_frame(self, frame: EthernetFrame) -> None:
        raise NotImplementedError


class Attachment:
    """A device's handle onto a medium; devices call :meth:`send`."""

    def send(self, frame: EthernetFrame) -> None:
        raise NotImplementedError

    def detach(self) -> None:
        """Remove the device from the medium (frames stop flowing)."""


class _CableDirection:
    """One direction of a cable: serialisation state plus the far receiver."""

    __slots__ = ("receiver", "next_free")

    def __init__(self, receiver: FrameReceiver) -> None:
        self.receiver = receiver
        self.next_free = 0.0


class CableAttachment(Attachment):
    __slots__ = ("cable", "direction", "attached")

    def __init__(self, cable: "Cable", direction: _CableDirection) -> None:
        self.cable = cable
        self.direction = direction
        self.attached = True

    def send(self, frame: EthernetFrame) -> None:
        if self.attached:
            cable = self.cable
            cable._transmit(self.direction, frame, cable.sim.now)

    def detach(self) -> None:
        self.attached = False


class Cable:
    """A point-to-point Ethernet link.

    Full-duplex by default (each direction serialises independently);
    half-duplex shares a single transmission resource, which halves usable
    bandwidth under bidirectional load — the behaviour responsible for the
    paper's sub-wire-rate bulk throughput through the hub.  A switch port
    refuses a half-duplex cable (:class:`repro.net.switch.SwitchPort`).
    """

    def __init__(
        self,
        sim: Any,
        end_a: FrameReceiver,
        end_b: FrameReceiver,
        rate_bps: float,
        delay: float = 0.0,
        full_duplex: bool = True,
        loss_model: Optional[LossModel] = None,
        name: str = "cable",
    ) -> None:
        if rate_bps <= 0:
            raise NetworkError(f"link rate must be positive, got {rate_bps}")
        if delay < 0:
            raise NetworkError(f"negative link delay {delay}")
        self.sim = sim
        self.rate_bps = rate_bps
        # Per-size serialisation-time cache.  A precomputed reciprocal
        # (size * (8/rate)) would be one multiply but rounds differently
        # from size*8.0/rate in the last ulp, perturbing every arrival
        # time and invalidating stored result hashes; frames come in a
        # handful of wire sizes, so an exact memo is just as cheap.
        self._tx_time_cache: dict = {}
        self.delay = delay
        self.full_duplex = full_duplex
        self.loss_model = loss_model
        self.name = name
        self._to_b = _CableDirection(end_b)
        self._to_a = _CableDirection(end_a)
        if not full_duplex:
            # Share serialisation state: both directions alias one object's
            # next_free via the cable-level attribute below.
            self._shared_next_free = 0.0
        self.attachment_a = CableAttachment(self, self._to_b)  # A sends toward B
        self.attachment_b = CableAttachment(self, self._to_a)  # B sends toward A
        self.frames_carried = 0
        self.bytes_carried = 0
        # Let endpoints know their attachment if they accept it.
        for endpoint, attachment in (
            (end_a, self.attachment_a),
            (end_b, self.attachment_b),
        ):
            attach_cb = getattr(endpoint, "attached_to", None)
            if attach_cb is not None:
                attach_cb(attachment)

    def _transmit(self, direction: _CableDirection, frame: EthernetFrame, now: float) -> None:
        """Clock ``frame`` out toward ``direction``'s receiver from ``now``
        on: the current instant, or a later one a switch port hands in
        (:meth:`repro.net.switch.Switch._ingress`), which the loss model
        is asked at too."""
        size = frame.wire_size
        tx_time = self._tx_time_cache.get(size)
        if tx_time is None:
            tx_time = self._tx_time_cache[size] = transmission_time(size, self.rate_bps)
        if self.full_duplex:
            start = direction.next_free
            if now > start:
                start = now
            direction.next_free = start + tx_time
        else:
            start = self._shared_next_free
            if now > start:
                start = now
            self._shared_next_free = start + tx_time
        arrival = start + tx_time + self.delay
        loss_model = self.loss_model
        if loss_model is not None and loss_model(frame, now):
            if "link" in self.sim.trace.categories:
                self.sim.trace.emit(now, "link", "drop", link=self.name, frame=frame.frame_id)
            return
        self.frames_carried += 1
        self.bytes_carried += frame.wire_size
        self.sim.post(arrival, direction.receiver.receive_frame, frame)


class HubAttachment(Attachment):
    __slots__ = ("hub", "receiver", "attached")

    def __init__(self, hub: "Hub", receiver: FrameReceiver) -> None:
        self.hub = hub
        self.receiver = receiver
        self.attached = True

    def send(self, frame: EthernetFrame) -> None:
        if self.attached:
            self.hub._transmit(self, frame)

    def detach(self) -> None:
        self.attached = False
        self.hub._detach(self)


class Hub:
    """A shared-medium Ethernet hub (repeater).

    Every frame sent by one station is delivered to *all* other stations
    after one serialisation on the shared medium plus propagation delay.
    Transmissions from all stations serialise on the single medium
    (half-duplex), approximating CSMA/CD without modelling collisions —
    under the paper's request/response workloads the medium is never
    contended enough for collision dynamics to matter.

    A ``mac_filtered`` station (a NIC) is judged inline at transmit time —
    powered, then its MAC filter, a refusal counted as on arrival — and a
    frame it would discard is never queued for it; every station that
    accepts still gets its own delivery event, in attachment order, and any
    other receiver always does.  So acceptance is judged when the frame
    *enters* the hub: a station that stops accepting
    while the frame is on the wire (power-off, ``leave_mac``) still drops
    it on arrival, but one that *starts* accepting meanwhile (``join_mac``,
    promiscuous, power-on) does not receive that frame.
    """

    def __init__(
        self,
        sim: Any,
        rate_bps: float,
        delay: float = 0.0,
        loss_model: Optional[LossModel] = None,
        name: str = "hub",
    ) -> None:
        if rate_bps <= 0:
            raise NetworkError(f"hub rate must be positive, got {rate_bps}")
        self.sim = sim
        self.rate_bps = rate_bps
        self.delay = delay
        self.loss_model = loss_model
        self.name = name
        self._attachments: List[HubAttachment] = []
        #: Cached fanout snapshot: ``(attachment, receive_frame, nic or
        #: None)`` of every attached station, resolved once, so the
        #: per-frame loop skips the ``attached`` re-check and the lookups.
        #: Invalidated (None) on attach/detach; deliveries cannot race it
        #: because receive callbacks run from the scheduler, never inside
        #: the fanout loop itself.
        self._fanout: Optional[List[Tuple[HubAttachment, Any, Any]]] = None
        self._tx_time_cache: dict = {}  # see Cable: bit-exact memo
        self._next_free = 0.0
        self.frames_carried = 0
        self.bytes_carried = 0

    def attach(self, receiver: FrameReceiver) -> HubAttachment:
        """Plug a station into the hub; returns its attachment."""
        attachment = HubAttachment(self, receiver)
        self._attachments.append(attachment)
        self._fanout = None
        attach_cb = getattr(receiver, "attached_to", None)
        if attach_cb is not None:
            attach_cb(attachment)
        return attachment

    def _detach(self, attachment: HubAttachment) -> None:
        try:
            self._attachments.remove(attachment)
        except ValueError:
            pass
        self._fanout = None

    def _transmit(self, sender: HubAttachment, frame: EthernetFrame) -> None:
        now = self.sim.now
        size = frame.wire_size
        tx_time = self._tx_time_cache.get(size)
        if tx_time is None:
            tx_time = self._tx_time_cache[size] = transmission_time(size, self.rate_bps)
        start = self._next_free
        if now > start:
            start = now
        self._next_free = start + tx_time
        loss_model = self.loss_model
        if loss_model is not None and loss_model(frame, now):
            if "link" in self.sim.trace.categories:
                self.sim.trace.emit(now, "link", "drop", link=self.name, frame=frame.frame_id)
            return
        self.frames_carried += 1
        self.bytes_carried += size
        arrival = start + tx_time + self.delay
        fanout = self._fanout
        if fanout is None:
            fanout = self._fanout = [
                (a, a.receiver.receive_frame, a.receiver if a.receiver.mac_filtered else None)
                for a in self._attachments
                if a.attached
            ]
        post = self.sim.post
        dst = frame.dst.value
        for attachment, receive, nic in fanout:
            if attachment is sender:
                continue
            if nic is not None:
                # NIC.receive_frame's first two checks, with its counters.
                if not nic.powered:
                    nic.rx_dropped_down += 1
                    continue
                if not (nic.promiscuous or dst in nic.accepted):
                    nic.rx_dropped_filter += 1
                    continue
            post(arrival, receive, frame)
