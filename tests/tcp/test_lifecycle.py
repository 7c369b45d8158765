"""Connection-table lifecycle: TCB reaping, the ephemeral-port pool,
and listener-backlog accounting under SYN storms."""

from __future__ import annotations

import pytest

from repro.errors import ConnectionRefused, ConnectionReset, EphemeralPortsExhausted
from repro.sim.simulator import Simulator
from repro.tcp.config import TCPConfig
from repro.tcp.constants import TCPState
from repro.tcp.tcb import TCPConnection

from tests.conftest import LanPair, run_echo_once

#: TIME_WAIT is 1 s in the simulator; this drains it with margin.
TIME_WAIT_DRAIN = 2.5


def test_churned_connections_are_reaped_from_the_table():
    """N short-lived connections leave behind N empty tables, not N TCBs."""
    lan = LanPair(Simulator(seed=401))
    cycles = 20
    for index in range(cycles):
        run_echo_once(lan, payload=b"x" * 64, port=7000 + index)
    # TIME_WAIT TCBs linger while the churn is running...
    assert lan.a.tcp.connection_count > 1
    lan.sim.run(until=lan.sim.now + TIME_WAIT_DRAIN)
    # ...and the dicts themselves shrink once the timers expire.
    assert lan.a.tcp._connections == {}
    assert lan.b.tcp._connections == {}
    assert lan.a.tcp.connection_count == 0
    assert lan.b.tcp.connection_count == 0
    assert lan.sim.metrics.value("host-a.tcp.tcbs_reaped") == cycles
    assert lan.sim.metrics.value("host-b.tcp.tcbs_reaped") == cycles
    assert lan.sim.metrics.value("host-a.tcp.connections_peak") >= 2  # churn overlapped in TIME_WAIT


def test_close_observers_fire_once_per_reaped_tcb():
    lan = LanPair(Simulator(seed=402))
    reaped = []
    lan.a.tcp.close_observers.append(reaped.append)
    run_echo_once(lan, port=7100)
    lan.sim.run(until=lan.sim.now + TIME_WAIT_DRAIN)
    assert lan.sim.metrics.value("host-a.tcp.tcbs_reaped") == 1
    assert len(reaped) == 1
    assert reaped[0].local_ip == lan.ip_a


def test_ephemeral_port_exhaustion_and_reuse_after_reap():
    lan = LanPair(Simulator(seed=403))
    layer = lan.a.tcp
    # Shrink the pool to 4 ports (the range is a layer attribute for
    # exactly this); reset the cursor into the new range.
    layer.ephemeral_start = 40000
    layer.ephemeral_end = 40003
    layer._next_ephemeral = layer.ephemeral_start

    listener = lan.b.tcp.listen(9000)
    accepted = []

    def server():
        while True:
            conn = yield listener.accept()
            accepted.append(conn)

    lan.b.spawn(server(), "server")
    socks = [lan.a.tcp.connect((lan.ip_b, 9000)) for _ in range(4)]
    lan.sim.run(until=lan.sim.now + 1.0)
    assert all(sock.connected for sock in socks)

    with pytest.raises(EphemeralPortsExhausted):
        lan.a.tcp.connect((lan.ip_b, 9000))
    assert lan.sim.metrics.value("host-a.tcp.ephemeral_ports_exhausted") == 1

    # Close everything (both ends, so the close handshakes complete);
    # reaped connections return their ports through the free list, so a
    # fresh connect succeeds in the same range.
    for sock in socks:
        sock.close()
    for conn in accepted:
        conn.close()
    lan.sim.run(until=lan.sim.now + TIME_WAIT_DRAIN)
    assert layer.connection_count == 0
    retry = lan.a.tcp.connect((lan.ip_b, 9000))
    assert 40000 <= retry.local_address[1] <= 40003
    lan.sim.run(until=lan.sim.now + 1.0)
    assert retry.connected


def test_syn_storm_deflections_vs_unmatched_accounting():
    """N ≫ backlog concurrent opens: the overflow is counted as
    ``syns_deflected`` (a bound listener refused), never as
    ``segments_unmatched`` (no endpoint at all)."""
    lan = LanPair(Simulator(seed=404))
    backlog, storm = 8, 64
    lan.b.tcp.listen(9000, backlog=backlog)  # nobody ever accepts
    connected, refused = [0], [0]

    def opener():
        sock = lan.a.tcp.connect((lan.ip_b, 9000))
        try:
            yield sock.wait_connected()
            connected[0] += 1
        except ConnectionRefused:
            refused[0] += 1

    for index in range(storm):
        lan.a.spawn(opener(), f"open-{index}")
    lan.sim.run(until=5.0)

    assert connected[0] == backlog
    assert refused[0] == storm - backlog
    assert lan.sim.metrics.value("host-b.tcp.syns_deflected") == storm - backlog
    assert lan.sim.metrics.value("host-b.tcp.segments_unmatched") == 0

    # A SYN to a port with no listener is the *other* counter.
    stray_done = []

    def stray():
        sock = lan.a.tcp.connect((lan.ip_b, 9999))
        try:
            yield sock.wait_connected()
        except ConnectionRefused:
            stray_done.append(True)

    lan.a.spawn(stray(), "stray")
    lan.sim.run(until=lan.sim.now + 1.0)
    assert stray_done
    assert lan.sim.metrics.value("host-b.tcp.segments_unmatched") == 1
    assert lan.sim.metrics.value("host-b.tcp.syns_deflected") == storm - backlog


def test_closing_a_reaped_socket_again_spares_its_successor_on_the_same_key():
    """The table is keyed by 4-tuple and ports recycle: a second
    ``close()`` on a reaped socket must not evict the live connection
    that now owns the tuple (reaping is by identity, not by key)."""
    lan = LanPair(Simulator(seed=405))
    layer = lan.a.tcp
    # One ephemeral port, so the second connect reuses the 4-tuple.
    layer.ephemeral_start = layer.ephemeral_end = layer._next_ephemeral = 40000
    reaped = []
    layer.close_observers.append(reaped.append)
    listener = lan.b.tcp.listen(9000)
    accepted = []

    def server():
        while True:
            accepted.append((yield listener.accept()))

    lan.b.spawn(server(), "server")
    old = layer.connect((lan.ip_b, 9000))
    lan.sim.run(until=lan.sim.now + 1.0)
    old.close()
    accepted[0].close()
    lan.sim.run(until=lan.sim.now + TIME_WAIT_DRAIN)
    assert lan.sim.metrics.value("host-a.tcp.tcbs_reaped") == 1 and reaped == [old.tcb]

    new = layer.connect((lan.ip_b, 9000))
    lan.sim.run(until=lan.sim.now + 1.0)
    assert new.connected and new.tcb.key == old.tcb.key

    old.close()
    assert layer.connections == [new.tcb]
    assert lan.sim.metrics.value("host-a.tcp.tcbs_reaped") == 1
    assert reaped == [old.tcb]

    echoed = []

    def exchange():
        yield new.send(b"still here")
        echoed.append((yield accepted[1].recv_exactly(10)))

    lan.a.spawn(exchange(), "exchange")
    lan.sim.run(until=lan.sim.now + 1.0)
    assert echoed == [b"still here"]


def test_a_server_closing_in_its_eof_wake_up_leaves_through_last_ack():
    """RFC 793's passive close: the peer's FIN moves the server to
    CLOSE_WAIT before its reader wakes with EOF, so a ``close()`` made in
    that wake-up sends the FIN from CLOSE_WAIT, waits in LAST_ACK and
    ends CLOSED when it is acknowledged, with no TIME_WAIT on the server.
    (A wake-up that ran while still ESTABLISHED closed through
    FIN_WAIT_1 → CLOSING → TIME_WAIT.)"""
    lan = LanPair(Simulator(seed=406))
    seen = {}

    def server():
        conn = yield lan.b.tcp.listen(8000).accept()
        seen["server"] = conn
        eof = yield conn.recv(10)
        seen["eof"] = (eof.length, conn.state)
        conn.close()
        seen["closing"] = conn.state

    def client():
        sock = lan.a.tcp.connect((lan.ip_b, 8000))
        yield sock.wait_connected()
        sock.close()
        yield sock.wait_closed()

    lan.b.spawn(server())
    lan.a.spawn(client())
    lan.sim.run(until=0.5)
    server_sock = seen["server"]
    assert seen["eof"] == (0, TCPState.CLOSE_WAIT)
    assert seen["closing"] is TCPState.LAST_ACK
    assert isinstance(server_sock.tcb, TCPConnection)
    assert server_sock.state is TCPState.CLOSED and server_sock.tcb.error is None
    assert lan.b.tcp.connections == []  # no TIME_WAIT record holds the 4-tuple
    assert [record.state for record in lan.a.tcp.connections] == [TCPState.TIME_WAIT]


@pytest.mark.parametrize("waker", ["reader", "writer"])
def test_an_abort_from_a_wake_up_inside_segment_processing_ends_it_there(waker):
    """A read woken by arriving data (here the last bytes and the FIN in
    one segment), or a send woken by the ACK that freed its buffer, runs
    inside the input engine's processing of that segment; an ``abort()``
    from there closes the TCB, which lets go of its engines, and the
    engine stops rather than go on to the FIN or the RTO of a connection
    that is gone.  The peer is reset."""
    # Nagle holds the second write back until the close sends it with the FIN.
    lan = LanPair(Simulator(seed=408), tcp_config=TCPConfig(nagle=True))
    seen = {}

    def server():
        conn = yield lan.b.tcp.listen(8000).accept()
        seen["server_tcb"] = conn.tcb
        if waker == "reader":
            yield conn.recv_exactly(3)
            conn.abort()
            return
        try:
            yield conn.recv_exactly(1 << 20)
        except ConnectionReset as error:
            seen["reset"] = error

    def client():
        sock = lan.a.tcp.connect((lan.ip_b, 8000))
        yield sock.wait_connected()
        seen["client_tcb"] = sock.tcb
        try:
            if waker == "reader":
                yield sock.send(b"a")
                yield sock.send(b"bc")
                sock.close()
                yield sock.recv(10)
            else:
                yield sock.send(b"x" * (64 * 1024))  # more than the send buffer holds
                sock.abort()
        except ConnectionReset as error:
            seen["reset"] = error

    lan.b.spawn(server())
    lan.a.spawn(client())
    lan.sim.run(until=1.0)
    assert isinstance(seen["reset"], ConnectionReset)
    assert seen["client_tcb"].state is seen["server_tcb"].state is TCPState.CLOSED
    assert lan.a.tcp.connections == [] and lan.b.tcp.connections == []
