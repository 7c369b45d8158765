"""Socket API semantics: event contracts of send/recv/close."""

import pytest

from repro.errors import ConnectionClosed, ConnectionReset
from repro.sim.simulator import Simulator
from repro.tcp.config import TCPConfig
from repro.tcp.tcb import TCPConnection
from repro.util.bytespan import PatternBytes
from repro.util.units import KB

from tests.conftest import LanPair


def connected_pair(lan, port=8000):
    """Establish a connection; returns (client_sock, server_conn)."""
    result = {}

    def server():
        listener = lan.b.tcp.listen(port)
        conn = yield listener.accept()
        result["server"] = conn
        yield lan.sim.timeout(3600.0)  # hold open

    def client():
        sock = lan.a.tcp.connect((lan.ip_b, port))
        yield sock.wait_connected()
        result["client"] = sock

    lan.b.spawn(server())
    process = lan.a.spawn(client())
    lan.sim.run_until_complete(process, deadline=10.0)
    lan.sim.run(until=lan.sim.now + 0.01)
    return result["client"], result["server"]


def test_wait_connected_after_establishment_succeeds_immediately():
    lan = LanPair(Simulator(seed=150))
    client, _server = connected_pair(lan)
    event = client.wait_connected()
    assert event.triggered
    assert event.value is client


def test_recv_zero_bytes_succeeds_empty():
    lan = LanPair(Simulator(seed=151))
    client, _server = connected_pair(lan)
    event = client.recv(0)
    assert event.triggered
    assert len(event.value) == 0


def test_send_event_reports_total_bytes():
    lan = LanPair(Simulator(seed=152))
    client, server = connected_pair(lan)
    outcome = {}

    def sender():
        count = yield client.send(PatternBytes(5 * KB, 0, 2))
        outcome["count"] = count

    process = lan.a.spawn(sender())
    lan.sim.run_until_complete(process, deadline=10.0)
    assert outcome["count"] == 5 * KB


def test_send_on_closed_socket_fails_event():
    from repro.errors import ConnectionError_

    lan = LanPair(Simulator(seed=153))
    client, _server = connected_pair(lan)
    client.abort()
    event = client.send(b"too late")
    assert event.triggered
    with pytest.raises(ConnectionError_):  # reset (abort) or closed
        _ = event.value


def test_pending_send_fails_on_reset():
    """A send blocked on buffer space fails when the peer resets."""
    config = TCPConfig(snd_buffer=2 * KB, rcv_buffer=2 * KB)
    lan = LanPair(Simulator(seed=154), tcp_config=config)
    client, server = connected_pair(lan)
    outcome = {}

    def sender():
        try:
            # Far larger than buffers+window while the peer never reads.
            yield client.send(PatternBytes(64 * KB, 0, 2))
        except ConnectionReset:
            outcome["error"] = "reset"

    process = lan.a.spawn(sender())
    lan.sim.run(until=lan.sim.now + 0.2)
    server.abort()
    lan.sim.run_until_complete(process, deadline=30.0)
    assert outcome["error"] == "reset"


def _record_app_writes(monkeypatch, after_write=None):
    """Log (bytes offered, bytes accepted) of every ``app_write``;
    ``after_write(tcb)`` runs inside the call, before it returns.  A
    writer offers the rest of its span, from the offset it reached."""
    calls = []
    real = TCPConnection.app_write

    def app_write(tcb, data, start=0):
        accepted = real(tcb, data, start)
        calls.append((data.length - start, accepted))
        if after_write is not None:
            after_write(tcb)
        return accepted

    monkeypatch.setattr(TCPConnection, "app_write", app_write)
    return calls


def test_full_send_buffer_is_never_probed(monkeypatch):
    """A window-limited send offers bytes only when there is room: once
    from ``send`` and once per ``on_writable``, never a zero-byte probe."""
    config = TCPConfig(snd_buffer=2 * KB, rcv_buffer=2 * KB)
    lan = LanPair(Simulator(seed=160), tcp_config=config)
    client, server = connected_pair(lan)
    calls = _record_app_writes(monkeypatch)
    outcome = {}

    def sender():
        outcome["sent"] = yield client.send(PatternBytes(16 * KB, 0, 2))

    def reader():
        outcome["got"] = yield server.recv_exactly(16 * KB)

    lan.b.spawn(reader())
    process = lan.a.spawn(sender())
    lan.sim.run(until=lan.sim.now + 0.0001)
    assert calls == [(16 * KB, 2 * KB)]  # send() itself: one call, buffer now full
    lan.sim.run_until_complete(process, deadline=30.0)
    lan.sim.run(until=lan.sim.now + 0.1)
    assert outcome["sent"] == 16 * KB
    assert outcome["got"] == PatternBytes(16 * KB, 0, 2)
    assert len(calls) > 4 and all(accepted > 0 for _, accepted in calls)
    assert sum(accepted for _, accepted in calls) == 16 * KB


@pytest.mark.parametrize(
    "error, expected",
    [
        (ConnectionReset("reset while writing"), ConnectionReset),
        (None, ConnectionClosed),  # orderly: "connection closed during send"
    ],
    ids=["error", "orderly"],
)
def test_close_inside_a_partial_write_fails_the_writer(monkeypatch, error, expected):
    """The connection closing between a partial write and the next try:
    ``_on_error`` / ``_on_closed`` fail the queued writer; the pump makes
    no further ``app_write`` and nothing escapes ``send``."""
    config = TCPConfig(snd_buffer=2 * KB, rcv_buffer=2 * KB)
    lan = LanPair(Simulator(seed=161), tcp_config=config)
    client, _server = connected_pair(lan)
    calls = _record_app_writes(monkeypatch, after_write=lambda tcb: tcb._enter_closed(error))
    event = client.send(PatternBytes(16 * KB, 0, 2))
    assert calls == [(16 * KB, 2 * KB)]
    assert event.triggered
    with pytest.raises(expected):
        _ = event.value


def test_partial_recv_returns_available_data():
    lan = LanPair(Simulator(seed=155))
    client, server = connected_pair(lan)
    outcome = {}

    def exchange():
        yield server.send(b"abc")
        data = yield client.recv(100)  # more than available
        outcome["data"] = data.to_bytes()

    process = lan.a.spawn(exchange())
    lan.sim.run_until_complete(process, deadline=10.0)
    assert outcome["data"] == b"abc"


def test_recv_returns_empty_at_eof():
    lan = LanPair(Simulator(seed=156))
    client, server = connected_pair(lan)
    outcome = {}

    def run():
        server.close()
        data = yield client.recv(100)
        outcome["eof"] = len(data) == 0

    process = lan.a.spawn(run())
    lan.sim.run_until_complete(process, deadline=10.0)
    assert outcome["eof"]


def test_queued_recvs_complete_in_order():
    lan = LanPair(Simulator(seed=157))
    client, server = connected_pair(lan)
    outcome = {}

    def reader():
        first = client.recv_exactly(3)
        second = client.recv_exactly(3)
        a = yield first
        b = yield second
        outcome["parts"] = (a.to_bytes(), b.to_bytes())

    process = lan.a.spawn(reader())
    lan.sim.run(until=lan.sim.now + 0.01)

    def writer():
        yield server.send(b"abcdef")

    lan.b.spawn(writer())
    lan.sim.run_until_complete(process, deadline=10.0)
    assert outcome["parts"] == (b"abc", b"def")


def _trickle(lan, server, total, piece=7, then_close=False):
    """Server side: ``total`` pattern bytes in sub-MSS writes, each on the
    wire (Nagle off) before the next, so the reader wakes once per piece."""

    def writer():
        for offset in range(0, total, piece):
            yield server.send(PatternBytes(min(piece, total - offset), offset, 4))
            yield lan.sim.timeout(0.002)
        if then_close:
            server.close()

    lan.b.spawn(writer())


def test_recv_exactly_accumulates_many_small_segments():
    lan = LanPair(Simulator(seed=158), tcp_config=TCPConfig(nagle=False))
    client, server = connected_pair(lan)
    outcome = {}

    def reader():
        first = yield client.recv_exactly(500)
        rest = yield client.recv(1000)
        outcome["first"], outcome["rest"] = first, rest

    process = lan.a.spawn(reader())
    before = client.tcb.segments_received
    _trickle(lan, server, 520)
    lan.sim.run_until_complete(process, deadline=10.0)
    assert client.tcb.segments_received - before >= 500 // 7
    assert len(outcome["first"]) == 500
    assert outcome["first"] == PatternBytes(500, 0, 4)
    # Not a byte more was taken than asked for.
    assert outcome["rest"] == PatternBytes(len(outcome["rest"]), 500, 4)


def test_recv_exactly_reports_missing_bytes_on_early_eof():
    lan = LanPair(Simulator(seed=159), tcp_config=TCPConfig(nagle=False))
    client, server = connected_pair(lan)
    outcome = {}

    def reader():
        try:
            yield client.recv_exactly(500)
        except ConnectionClosed as exc:
            outcome["error"] = str(exc)

    process = lan.a.spawn(reader())
    _trickle(lan, server, 123, then_close=True)
    lan.sim.run_until_complete(process, deadline=10.0)
    assert outcome["error"] == "peer closed with 377 of 500 bytes missing"


def test_addresses_exposed():
    lan = LanPair(Simulator(seed=158))
    client, server = connected_pair(lan)
    assert client.remote_address == (lan.ip_b, 8000)
    assert server.local_address == (lan.ip_b, 8000)
    assert server.remote_address[0] == lan.ip_a
