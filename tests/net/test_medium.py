"""Tests for cables and hubs: delivery, serialisation timing, loss, and the
hub's screening of its fan-out at the NIC filter."""

import hashlib

import pytest

from repro.net.addresses import MAC_BROADCAST, fresh_multicast_mac, fresh_unicast_mac
from repro.net.frame import ETHERNET_MIN_FRAME, ETHERTYPE_IPV4, EthernetFrame
from repro.net.loss import ScriptedLoss
from repro.net.medium import Cable, FrameReceiver, Hub
from repro.net.nic import NIC
from repro.sim.simulator import Simulator
from repro.util.units import mbps, transmission_time


class Sink(FrameReceiver):
    def __init__(self, sim):
        self.sim = sim
        self.received = []

    def receive_frame(self, frame):
        self.received.append((self.sim.now, frame))


def make_frame(size=1000):
    return EthernetFrame(
        fresh_unicast_mac(), fresh_unicast_mac(), ETHERTYPE_IPV4, None, size
    )


def test_frame_wire_size_has_overhead_and_minimum():
    assert make_frame(1000).wire_size == 1018
    assert make_frame(10).wire_size == ETHERNET_MIN_FRAME


def test_cable_delivers_with_tx_time_plus_delay():
    sim = Simulator()
    a, b = Sink(sim), Sink(sim)
    cable = Cable(sim, a, b, rate_bps=mbps(100), delay=0.001)
    frame = make_frame(1000)
    cable.attachment_a.send(frame)
    sim.run()
    arrival, received = b.received[0]
    assert received is frame
    expected = transmission_time(frame.wire_size, mbps(100)) + 0.001
    assert arrival == pytest.approx(expected)


def test_cable_serialises_back_to_back_frames():
    sim = Simulator()
    a, b = Sink(sim), Sink(sim)
    cable = Cable(sim, a, b, rate_bps=mbps(100), delay=0.0)
    frames = [make_frame(1000) for _ in range(3)]
    for frame in frames:
        cable.attachment_a.send(frame)
    sim.run()
    tx = transmission_time(frames[0].wire_size, mbps(100))
    arrivals = [when for when, _ in b.received]
    assert arrivals == pytest.approx([tx, 2 * tx, 3 * tx])


def test_full_duplex_directions_independent():
    sim = Simulator()
    a, b = Sink(sim), Sink(sim)
    cable = Cable(sim, a, b, rate_bps=mbps(100), delay=0.0)
    frame_ab = make_frame(1000)
    frame_ba = make_frame(1000)
    cable.attachment_a.send(frame_ab)
    cable.attachment_b.send(frame_ba)
    sim.run()
    tx = transmission_time(frame_ab.wire_size, mbps(100))
    assert b.received[0][0] == pytest.approx(tx)
    assert a.received[0][0] == pytest.approx(tx)  # no shared serialisation


def test_half_duplex_shares_the_medium():
    sim = Simulator()
    a, b = Sink(sim), Sink(sim)
    cable = Cable(sim, a, b, rate_bps=mbps(100), delay=0.0, full_duplex=False)
    cable.attachment_a.send(make_frame(1000))
    cable.attachment_b.send(make_frame(1000))
    sim.run()
    tx = transmission_time(make_frame(1000).wire_size, mbps(100))
    assert b.received[0][0] == pytest.approx(tx)
    assert a.received[0][0] == pytest.approx(2 * tx)  # waited for the first


def test_cable_loss_model_drops():
    sim = Simulator()
    a, b = Sink(sim), Sink(sim)
    cable = Cable(
        sim, a, b, rate_bps=mbps(100), loss_model=ScriptedLoss(drop_indices=[2])
    )
    for _ in range(3):
        cable.attachment_a.send(make_frame())
    sim.run()
    assert len(b.received) == 2
    assert cable.loss_model.dropped == 1


def test_cable_counters():
    sim = Simulator()
    a, b = Sink(sim), Sink(sim)
    cable = Cable(sim, a, b, rate_bps=mbps(100))
    frame = make_frame(500)
    cable.attachment_a.send(frame)
    sim.run()
    assert cable.frames_carried == 1
    assert cable.bytes_carried == frame.wire_size


def test_cable_rejects_bad_parameters():
    sim = Simulator()
    a, b = Sink(sim), Sink(sim)
    from repro.errors import NetworkError

    with pytest.raises(NetworkError):
        Cable(sim, a, b, rate_bps=0)
    with pytest.raises(NetworkError):
        Cable(sim, a, b, rate_bps=1000, delay=-1)


def test_hub_broadcasts_to_all_but_sender():
    sim = Simulator()
    hub = Hub(sim, rate_bps=mbps(100))
    sinks = [Sink(sim) for _ in range(4)]
    attachments = [hub.attach(sink) for sink in sinks]
    attachments[0].send(make_frame())
    sim.run()
    assert len(sinks[0].received) == 0  # no echo to sender
    assert all(len(sink.received) == 1 for sink in sinks[1:])


def test_hub_serialises_all_senders():
    sim = Simulator()
    hub = Hub(sim, rate_bps=mbps(100))
    a, b, c = Sink(sim), Sink(sim), Sink(sim)
    att_a = hub.attach(a)
    att_b = hub.attach(b)
    hub.attach(c)
    att_a.send(make_frame(1000))
    att_b.send(make_frame(1000))
    sim.run()
    tx = transmission_time(make_frame(1000).wire_size, mbps(100))
    assert [when for when, _ in c.received] == pytest.approx([tx, 2 * tx])


def test_hub_detach_stops_delivery():
    sim = Simulator()
    hub = Hub(sim, rate_bps=mbps(100))
    a, b = Sink(sim), Sink(sim)
    att_a = hub.attach(a)
    att_b = hub.attach(b)
    att_b.detach()
    att_a.send(make_frame())
    sim.run()
    assert b.received == []


class DetachingSink(Sink):
    """Detaches itself from inside its first receive callback."""

    def attached_to(self, attachment):
        self.attachment = attachment

    def receive_frame(self, frame):
        super().receive_frame(frame)
        if self.attachment.attached:
            self.attachment.detach()


def test_hub_detach_during_fanout_keeps_inflight_frames():
    sim = Simulator()
    hub = Hub(sim, rate_bps=mbps(100))
    a, b, c = Sink(sim), DetachingSink(sim), Sink(sim)
    att_a = hub.attach(a)
    hub.attach(b)
    hub.attach(c)
    # Both frames are on the wire before b's detach runs: the detach must
    # not claw back deliveries the fanout already scheduled.
    att_a.send(make_frame())
    att_a.send(make_frame())
    sim.run()
    assert len(b.received) == 2
    assert len(c.received) == 2
    # After the detach, the cached fanout is rebuilt without b.
    att_a.send(make_frame())
    sim.run()
    assert len(b.received) == 2
    assert len(c.received) == 3
    assert a.received == []  # never an echo to the sender


def test_hub_attach_after_traffic_joins_fanout():
    sim = Simulator()
    hub = Hub(sim, rate_bps=mbps(100))
    a, b = Sink(sim), Sink(sim)
    att_a = hub.attach(a)
    hub.attach(b)
    att_a.send(make_frame())
    sim.run()  # fanout snapshot built without the late joiner
    late = Sink(sim)
    hub.attach(late)
    att_a.send(make_frame())
    sim.run()
    assert len(late.received) == 1
    assert len(b.received) == 2


# The hub screens its fan-out: a NIC is judged when the frame enters the
# hub, and gets no event for a frame it would drop at its first two checks.


def nic_on(sim, hub, **attributes):
    nic = NIC(sim)
    for name, value in attributes.items():
        setattr(nic, name, value)
    hub.attach(nic)
    return nic


def frame_to(dst):
    return EthernetFrame(dst, fresh_unicast_mac(), ETHERTYPE_IPV4, None, 100)


def test_hub_queues_no_event_for_a_nic_that_would_drop_the_frame():
    sim = Simulator()
    hub = Hub(sim, rate_bps=mbps(100))
    sender = hub.attach(Sink(sim))
    addressee = nic_on(sim, hub)
    filtered = nic_on(sim, hub)
    down = nic_on(sim, hub, powered=False)
    sender.send(frame_to(addressee.mac))
    # Screened at transmit time, counted as the arrival would have been.
    assert sim._scheduler.pending_count == 1
    assert (filtered.rx_dropped_filter, down.rx_dropped_down) == (1, 1)
    sim.run()
    assert sim.events_executed == 1
    assert addressee.rx_frames == 1
    assert filtered.rx_frames == down.rx_frames == 0
    assert (filtered.rx_dropped_filter, down.rx_dropped_down) == (1, 1)


def test_hub_always_queues_for_a_promiscuous_nic_and_a_receiver_without_screen():
    sim = Simulator()
    hub = Hub(sim, rate_bps=mbps(100))
    sender = hub.attach(Sink(sim))
    promiscuous = nic_on(sim, hub, promiscuous=True)
    plain = Sink(sim)
    hub.attach(plain)
    for _ in range(3):
        sender.send(frame_to(fresh_unicast_mac()))
    assert sim._scheduler.pending_count == 6
    sim.run()
    assert promiscuous.rx_frames == 3 and promiscuous.rx_dropped_filter == 0
    assert len(plain.received) == 3


def test_hub_judges_acceptance_when_the_frame_enters_the_wire():
    # The documented in-flight semantics: a station that starts accepting
    # while a frame is on the wire does not receive that frame; one that
    # stops accepting meanwhile still drops it on arrival.
    sim = Simulator()
    hub = Hub(sim, rate_bps=mbps(100), delay=0.001)
    sender = hub.attach(Sink(sim))
    joiner = nic_on(sim, hub)
    crasher = nic_on(sim, hub)
    group = fresh_multicast_mac()
    crasher.join_mac(group)
    sender.send(frame_to(group))
    joiner.join_mac(group)
    crasher.power_off()
    sim.run()
    assert joiner.rx_frames == 0 and joiner.rx_dropped_filter == 1
    assert crasher.rx_frames == 0 and crasher.rx_dropped_down == 1
    # The next frame is judged against the new state.
    crasher.power_on()
    sender.send(frame_to(group))
    sim.run()
    assert joiner.rx_frames == crasher.rx_frames == 1


def test_hub_detach_during_screened_fanout_keeps_inflight_frames():
    sim = Simulator()
    hub = Hub(sim, rate_bps=mbps(100))
    sender = hub.attach(Sink(sim))
    leaver, stayer = nic_on(sim, hub), nic_on(sim, hub)

    def detach_on_first_frame(frame, nic):
        if nic.attachment.attached:
            nic.attachment.detach()

    leaver.add_observer(detach_on_first_frame)
    sender.send(frame_to(MAC_BROADCAST))
    sender.send(frame_to(MAC_BROADCAST))
    sim.run()
    assert leaver.rx_frames == stayer.rx_frames == 2
    sender.send(frame_to(MAC_BROADCAST))
    sim.run()
    assert (leaver.rx_frames, stayer.rx_frames) == (2, 3)
    assert leaver.rx_dropped_filter == stayer.rx_dropped_filter == 0


@pytest.mark.parametrize("kind", ["cable", "hub"])
def test_a_medium_without_loss_asks_no_model(kind):
    """A medium is built with ``loss_model`` None and asks nothing; a model
    set mid-run drops from the next frame on, and ``clear_loss`` restores
    None."""
    from repro.faults.injection import clear_loss

    sim = Simulator()
    a, b = Sink(sim), Sink(sim)
    if kind == "cable":
        medium = Cable(sim, a, b, rate_bps=mbps(100))
        send = medium.attachment_a.send
    else:
        medium = Hub(sim, rate_bps=mbps(100))
        send = medium.attach(a).send
        medium.attach(b)
    assert medium.loss_model is None
    send(make_frame())
    sim.run()
    medium.loss_model = ScriptedLoss(drop_indices=[1])
    send(make_frame())
    send(make_frame())
    sim.run()
    assert len(b.received) == 2 and medium.loss_model.dropped == 1
    clear_loss(medium)
    assert medium.loss_model is None
    send(make_frame())
    sim.run()
    assert len(b.received) == 3
    assert medium.frames_carried == 3


# The hub judges each station inline, with NIC.receive_frame's counters: per
# NIC, what was received and what was refused for a filter or a dead card
# must read exactly as when the hub asked each NIC by a call.  The digests
# are of the tree where it did.


def _receive_counters(hosts):
    rows = [
        f"{host.name}/{nic.name} {nic.rx_frames} {nic.rx_dropped_filter} {nic.rx_dropped_down}"
        for host in hosts
        for nic in host.nics
    ]
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def test_hub_counts_per_nic_as_before_over_the_cluster_failover_workload():
    from repro.cluster.run import ClusterRun
    from repro.cluster.scenario import spec_from_dict

    run = ClusterRun(spec_from_dict({
        "name": "bench", "primaries": 6, "backups": 4, "capacity": 3, "profile": "fast_lan",
        "sttcp": {"hb_interval": 0.04, "hb_jitter": 0.25},
        "workload": {"exchanges": 550, "service_time": 0.001},
        "crash": {"primary": 0, "at": 0.4}, "arbiter": {"actuation_delay": 0.015},
        "deadline": 60, "seed": 12,
    }))
    run.execute()
    fabric = run.fabric
    hosts = (
        [fabric.gateway]
        + [service.primary for service in fabric.services]
        + [service.client for service in fabric.services]
        + [backup.host for backup in fabric.backups]
    )
    # Only the pool hosts differ from the tree before per-service GVIs:
    # each lost exactly its ``ip.dropped_not_local`` replies of services it
    # does not shadow (pool0-3: 3 951 / 4 528 / 4 263 / 4 153 received
    # then, 1 525 / 2 316 / 1 822 / 1 602 after).  Since server ends close
    # through LAST_ACK, no shadow waits in TIME_WAIT after its client's
    # last exchange and acks nothing there: p1, p2, p3 and p5 receive 607
    # frames (611 before), pool1-3 2 308 / 1 818 / 1 598 (hash ccc856d3…).
    assert _receive_counters(hosts) == "5d3843ceba2d804fa5f0fcbf233bdcceb2630f84873e42767095d3591e377c63"


def test_hub_counts_per_nic_as_before_when_a_station_powers_off_mid_transfer():
    from repro.apps.workload import bulk_workload
    from repro.harness.runner import run_workload
    from repro.sttcp.config import STTCPConfig
    from repro.util.units import KB

    run = run_workload(
        bulk_workload(256 * KB), sttcp=STTCPConfig(hb_interval=0.05), faults=[(0.2, "primary_crash")],
        with_logger=True, seed=12,
    )
    scenario = run.scenario
    hosts = [scenario.client, scenario.primary, scenario.backup, scenario.logger_host]
    assert scenario.primary.nics[0].rx_dropped_down > 0
    assert _receive_counters(hosts) == "d32148ab0e8eb6550e1e6adb8c8f3bcb914e5801d2e42eeb03efa8c7380d33ae"
