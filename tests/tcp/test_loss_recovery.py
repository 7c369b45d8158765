"""Loss recovery tests: fast retransmit, RTO, go-back-N, Karn, dup ACKs."""


from repro.ip.datagram import PROTO_TCP
from repro.net.loss import RandomLoss, ScriptedLoss
from repro.sim.simulator import Simulator
from repro.util.bytespan import PatternBytes
from repro.util.units import KB, MB

from tests.conftest import LanPair


def push_stream(lan, size, loss_model=None, deadline=600.0, pattern_id=4):
    """Server→client stream with optional loss on the hub."""
    if loss_model is not None:
        lan.hub.loss_model = loss_model
    sim = lan.sim
    outcome = {"verified": True, "received": 0}

    def server():
        listener = lan.b.tcp.listen(8000)
        conn = yield listener.accept()
        yield conn.send(PatternBytes(size, 0, pattern_id))
        conn.close()

    def client():
        sock = lan.a.tcp.connect((lan.ip_b, 8000))
        yield sock.wait_connected()
        got = 0
        while got < size:
            piece = yield sock.recv(65536)
            if len(piece) == 0:
                break
            if piece != PatternBytes(len(piece), got, pattern_id):
                outcome["verified"] = False
            got += len(piece)
        outcome["received"] = got
        outcome["server_tcb"] = lan.b.tcp.connections[0] if lan.b.tcp.connections else None
        sock.close()

    lan.b.spawn(server())
    process = lan.a.spawn(client())
    sim.run_until_complete(process, deadline=deadline)
    return outcome


def drop_nth_data_segment(n, min_payload=1000):
    """Loss model dropping the nth large TCP data frame."""
    counter = {"seen": 0}

    def predicate(frame):
        datagram = frame.payload
        if getattr(datagram, "protocol", None) != PROTO_TCP:
            return False
        if datagram.payload.payload_length < min_payload:
            return False
        counter["seen"] += 1
        return counter["seen"] == n

    return ScriptedLoss(predicate=predicate)


def test_single_loss_recovered_by_fast_retransmit():
    lan = LanPair(Simulator(seed=61))
    outcome = push_stream(lan, 500 * KB, drop_nth_data_segment(50))
    assert outcome["verified"] and outcome["received"] == 500 * KB
    # Enough dup ACKs follow a mid-stream hole: fast retransmit, no RTO.
    server_tcb = outcome["server_tcb"]
    assert server_tcb is None or server_tcb.cc.timeouts == 0
    assert lan.sim.now < 2.0  # never stalled a full RTO


def drop_frame_containing_offset(target):
    """Drop (once) the first data frame carrying stream byte ``target``."""
    state = {"bytes": 0, "dropped": False}

    def predicate(frame):
        datagram = frame.payload
        if getattr(datagram, "protocol", None) != PROTO_TCP:
            return False
        length = datagram.payload.payload_length
        if length == 0 or state["dropped"]:
            return False
        start = state["bytes"]
        state["bytes"] += length
        if start <= target < start + length:
            state["dropped"] = True
            return True
        return False

    return ScriptedLoss(predicate=predicate)


def test_loss_near_end_recovered_by_rto():
    """Losing the very last segment leaves nothing to generate dup ACKs —
    the retransmission timer must fire."""
    lan = LanPair(Simulator(seed=62))
    size = 100 * KB
    outcome = push_stream(lan, size, drop_frame_containing_offset(size - 1))
    assert outcome["verified"] and outcome["received"] == size
    assert lan.sim.now >= 0.2  # paid at least the minimum RTO


def test_burst_loss_recovered():
    lan = LanPair(Simulator(seed=63))
    model = ScriptedLoss(drop_indices=set(range(40, 48)))  # 8 consecutive frames
    outcome = push_stream(lan, 500 * KB, model)
    assert outcome["verified"] and outcome["received"] == 500 * KB


def test_random_loss_one_percent():
    lan = LanPair(Simulator(seed=64))
    rng = lan.sim.random.stream("loss")
    outcome = push_stream(lan, 1 * MB, RandomLoss(rng, 0.01), deadline=1200.0)
    assert outcome["verified"] and outcome["received"] == 1 * MB


def test_random_loss_five_percent():
    lan = LanPair(Simulator(seed=65))
    rng = lan.sim.random.stream("loss")
    outcome = push_stream(lan, 256 * KB, RandomLoss(rng, 0.05), deadline=2400.0)
    assert outcome["verified"] and outcome["received"] == 256 * KB


def test_lost_ack_is_harmless():
    """Cumulative ACKs cover for individual ACK losses."""
    lan = LanPair(Simulator(seed=66))
    counter = {"seen": 0}

    def ack_predicate(frame):
        datagram = frame.payload
        if getattr(datagram, "protocol", None) != PROTO_TCP:
            return False
        segment = datagram.payload
        if segment.payload_length > 0:
            return False
        counter["seen"] += 1
        return counter["seen"] % 3 == 0  # drop every third pure ACK

    outcome = push_stream(lan, 300 * KB, ScriptedLoss(predicate=ack_predicate))
    assert outcome["verified"] and outcome["received"] == 300 * KB


def test_receiver_dupacks_on_out_of_order():
    """Out-of-order arrival must trigger immediate duplicate ACKs."""
    lan = LanPair(Simulator(seed=67))
    push_stream(lan, 200 * KB, drop_nth_data_segment(20))
    # The server observed duplicate ACKs for the hole.
    # (Connection is gone; assert via counters on the client instead.)
    # Re-run with a live tap:
    lan2 = LanPair(Simulator(seed=68))
    dupacks = []

    def server():
        listener = lan2.b.tcp.listen(8000)
        conn = yield listener.accept()
        yield conn.send(PatternBytes(200 * KB, 0, 4))
        dupacks.append(conn.tcb.dupacks_received)
        conn.close()

    def client():
        sock = lan2.a.tcp.connect((lan2.ip_b, 8000))
        yield sock.wait_connected()
        got = 0
        while got < 200 * KB:
            piece = yield sock.recv(65536)
            got += len(piece)
        sock.close()

    lan2.hub.loss_model = drop_nth_data_segment(20)
    lan2.b.spawn(server())
    process = lan2.a.spawn(client())
    lan2.sim.run_until_complete(process, deadline=120.0)
    assert dupacks[0] >= 3


def test_karn_no_rtt_sample_from_retransmission():
    """After a retransmission the RTT estimator must not ingest a sample
    for the retransmitted range (Karn's algorithm)."""
    lan = LanPair(Simulator(seed=69))
    samples = []

    def server():
        listener = lan.b.tcp.listen(8000)
        conn = yield listener.accept()
        yield conn.send(PatternBytes(30 * KB, 0, 4))
        samples.append(conn.tcb.retransmit.rtt.samples_taken)
        conn.close()

    def client():
        sock = lan.a.tcp.connect((lan.ip_b, 8000))
        yield sock.wait_connected()
        got = 0
        while got < 30 * KB:
            piece = yield sock.recv(65536)
            got += len(piece)
        sock.close()

    # Drop the very first data segment: it is the timed one.
    lan.hub.loss_model = drop_nth_data_segment(1)
    lan.b.spawn(server())
    process = lan.a.spawn(client())
    lan.sim.run_until_complete(process, deadline=120.0)
    # Samples may exist from later exchanges but the estimator stayed sane.
    assert samples[0] >= 0  # no crash; and:
    server_side = samples[0]
    assert server_side < 30 * KB // 1460  # far fewer samples than segments


def test_retransmission_counters():
    lan = LanPair(Simulator(seed=70))
    retx = []

    def server():
        listener = lan.b.tcp.listen(8000)
        conn = yield listener.accept()
        yield conn.send(PatternBytes(100 * KB, 0, 4))
        retx.append(conn.tcb.retransmissions)
        conn.close()

    def client():
        sock = lan.a.tcp.connect((lan.ip_b, 8000))
        yield sock.wait_connected()
        got = 0
        while got < 100 * KB:
            piece = yield sock.recv(65536)
            got += len(piece)
        sock.close()

    lan.hub.loss_model = drop_nth_data_segment(10)
    lan.b.spawn(server())
    process = lan.a.spawn(client())
    lan.sim.run_until_complete(process, deadline=120.0)
    assert retx[0] >= 1
