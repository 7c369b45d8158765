"""Data transfer tests: integrity, flow control, delayed ACKs, Nagle."""

import pytest

from repro.sim.simulator import Simulator
from repro.tcp.config import TCPConfig
from repro.util.bytespan import PatternBytes
from repro.util.units import KB, MB, mbps, us

from tests.conftest import LanPair


def transfer(lan, size, port=8000, chunk=65536, pattern_id=4, deadline=300.0):
    """Server pushes `size` pattern bytes; client receives and verifies.

    Returns (verified, duration)."""
    sim = lan.sim
    outcome = {"verified": True}

    def server():
        listener = lan.b.tcp.listen(port)
        conn = yield listener.accept()
        yield conn.send(PatternBytes(size, 0, pattern_id))
        conn.close()

    def client():
        sock = lan.a.tcp.connect((lan.ip_b, port))
        yield sock.wait_connected()
        start = sim.now
        got = 0
        while got < size:
            piece = yield sock.recv(chunk)
            if len(piece) == 0:
                break
            if piece != PatternBytes(len(piece), got, pattern_id):
                outcome["verified"] = False
            got += len(piece)
        outcome["received"] = got
        outcome["duration"] = sim.now - start
        sock.close()

    lan.b.spawn(server())
    process = lan.a.spawn(client())
    sim.run_until_complete(process, deadline=deadline)
    return outcome


def test_small_transfer_integrity():
    lan = LanPair(Simulator(seed=41))
    outcome = transfer(lan, 10 * KB)
    assert outcome["verified"]
    assert outcome["received"] == 10 * KB


def test_multi_megabyte_transfer_integrity():
    lan = LanPair(Simulator(seed=42))
    outcome = transfer(lan, 4 * MB)
    assert outcome["verified"]
    assert outcome["received"] == 4 * MB


def test_throughput_window_limited():
    """With a long-delay LAN, throughput must track rcv window / RTT."""
    config = TCPConfig()
    lan = LanPair(Simulator(seed=43), tcp_config=config, hub_delay=0.004)
    outcome = transfer(lan, 2 * MB)
    rtt = 2 * 0.004
    expected = config.rcv_buffer / rtt
    measured = outcome["received"] / outcome["duration"]
    assert measured == pytest.approx(expected, rel=0.35)


def test_throughput_wire_limited_on_fast_lan():
    lan = LanPair(Simulator(seed=44), hub_delay=us(10))
    outcome = transfer(lan, 2 * MB)
    measured_bps = outcome["received"] * 8 / outcome["duration"]
    assert measured_bps > mbps(60)  # most of the 100 Mb/s wire


def test_bidirectional_transfer():
    """Both directions carry data concurrently.

    Each side's payload fits its send buffer, so neither blocks on a peer
    that has not started reading yet (sending more than buffers+windows
    can hold while both sides defer reading deadlocks on real TCP too).
    """
    lan = LanPair(Simulator(seed=45))
    sim = lan.sim
    results = {}
    size = 24 * KB  # < 32 KB send buffer

    def side(host, peer_ip, listen_port, connect_port, name, listen_first):
        if listen_first:
            listener = host.tcp.listen(listen_port)
            conn = yield listener.accept()
        else:
            conn = host.tcp.connect((peer_ip, connect_port))
            yield conn.wait_connected()
        yield conn.send(PatternBytes(size, 0, 6))
        got = yield conn.recv_exactly(size)
        results[name] = got == PatternBytes(size, 0, 6)
        conn.close()

    server_process = lan.b.spawn(side(lan.b, lan.ip_a, 8000, 0, "b", True))
    process = lan.a.spawn(side(lan.a, lan.ip_b, 0, 8000, "a", False))
    sim.run_until_complete(process, deadline=60.0)
    sim.run_until_complete(server_process, deadline=60.0)
    assert results == {"a": True, "b": True}


def test_zero_window_then_reopen():
    """A non-reading receiver closes the window; the sender's application
    blocks (send buffer smaller than the payload) and resumes when the
    receiver finally reads."""
    config = TCPConfig(rcv_buffer=4 * KB, snd_buffer=8 * KB)
    lan = LanPair(Simulator(seed=46), tcp_config=config)
    sim = lan.sim
    outcome = {}

    def server():
        listener = lan.b.tcp.listen(8000)
        conn = yield listener.accept()
        yield sim.timeout(3.0)  # let the window fill and close
        data = yield conn.recv_exactly(32 * KB)
        outcome["ok"] = data == PatternBytes(32 * KB, 0, 2)
        conn.close()

    def client():
        sock = lan.a.tcp.connect((lan.ip_b, 8000))
        yield sock.wait_connected()
        yield sock.send(PatternBytes(32 * KB, 0, 2))
        outcome["send_done_at"] = sim.now
        sock.close()

    server_process = lan.b.spawn(server())
    lan.a.spawn(client())
    sim.run_until_complete(server_process, deadline=120.0)
    assert outcome["ok"]
    # 32 KB cannot fit in 8 KB of send buffer + 4 KB of receive window:
    # the send only completed after the receiver started reading at t=3.
    assert outcome["send_done_at"] >= 3.0


def test_window_probe_while_closed():
    """The persist timer must probe a zero window (no deadlock)."""
    config = TCPConfig(rcv_buffer=2 * KB, snd_buffer=32 * KB)
    lan = LanPair(Simulator(seed=47), tcp_config=config)
    sim = lan.sim
    done = {}
    tcb_box = {}

    def server():
        listener = lan.b.tcp.listen(8000)
        conn = yield listener.accept()
        yield sim.timeout(5.0)
        received = 0
        while received < 8 * KB:
            piece = yield conn.recv(64 * KB)
            if len(piece) == 0:
                break
            received += len(piece)
        done["t"] = sim.now
        done["received"] = received

    def client():
        sock = lan.a.tcp.connect((lan.ip_b, 8000))
        yield sock.wait_connected()
        tcb_box["tcb"] = sock.tcb
        yield sock.send(PatternBytes(8 * KB, 0, 2))
        sock.close()

    server_process = lan.b.spawn(server())
    lan.a.spawn(client())
    sim.run_until_complete(server_process, deadline=120.0)
    assert done["received"] == 8 * KB
    assert done["t"] >= 5.0
    # While the server slept, the window was zero and data was pending:
    # the client's persist timer must have fired at least once.
    assert tcb_box["tcb"].retransmit.persist_timer.fired_count >= 1


def test_delayed_ack_coalesces():
    """A one-way stream must generate roughly one ACK per two segments."""
    lan = LanPair(Simulator(seed=48))
    transfer(lan, 500 * KB)
    # Count pure ACK segments the client sent (no payload).
    data_segments = 500 * KB // 1460 + 1
    acks = lan.nic_a.tx_frames  # client sends almost only ACKs after setup
    assert acks < data_segments * 0.75


def test_nagle_coalesces_small_writes():
    config_on = TCPConfig(nagle=True)
    lan = LanPair(Simulator(seed=49), tcp_config=config_on)
    sim = lan.sim

    def server():
        listener = lan.b.tcp.listen(8000)
        conn = yield listener.accept()
        yield conn.recv_exactly(100)
        conn.close()

    def client():
        sock = lan.a.tcp.connect((lan.ip_b, 8000))
        yield sock.wait_connected()
        for _ in range(100):  # 100 × 1-byte writes
            yield sock.send(b"x")
        yield sim.timeout(1.0)
        sock.close()

    lan.b.spawn(server())
    process = lan.a.spawn(client())
    sim.run_until_complete(process, deadline=30.0)
    # Nagle must have coalesced the tinygrams into far fewer segments.
    assert lan.nic_a.tx_frames < 40


def test_mss_respected_on_wire():
    config = TCPConfig(mss=536)
    lan = LanPair(Simulator(seed=50), tcp_config=config)
    seen_sizes = []
    original = lan.nic_a.receive_frame

    def spy(frame):
        from repro.ip.datagram import PROTO_TCP

        datagram = frame.payload
        if getattr(datagram, "protocol", None) == PROTO_TCP:
            seen_sizes.append(datagram.payload.payload_length)
        original(frame)

    lan.nic_a.receive_frame = spy
    transfer(lan, 50 * KB)
    assert seen_sizes
    assert max(seen_sizes) <= 536
