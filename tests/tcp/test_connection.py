"""Connection lifecycle tests: handshake, refusal, teardown, RST."""

import pytest

from repro.errors import ConnectionClosed, ConnectionRefused, ConnectionReset
from repro.net.loss import ScriptedLoss
from repro.sim.simulator import Simulator
from repro.tcp.constants import TCPState
from repro.tcp.timewait import TimeWait

from tests.conftest import LanPair, run_echo_once


@pytest.fixture
def lan():
    return LanPair(Simulator(seed=31))


def test_three_way_handshake_establishes_both_ends(lan):
    listener = lan.b.tcp.listen(8000)
    accepted = []

    def server():
        conn = yield listener.accept()
        accepted.append(conn)

    def client():
        sock = lan.a.tcp.connect((lan.ip_b, 8000))
        yield sock.wait_connected()
        return sock

    lan.b.spawn(server())
    process = lan.a.spawn(client())
    sock = lan.sim.run_until_complete(process, deadline=5.0)
    assert sock.state is TCPState.ESTABLISHED
    # The handshake ACK reaches the passive side one propagation later.
    lan.sim.run(until=lan.sim.now + 0.1)
    assert accepted[0].state is TCPState.ESTABLISHED
    # The server's TCB adopted the client's MSS exchange.
    assert accepted[0].tcb.mss == sock.tcb.mss


def test_connect_to_closed_port_refused(lan):
    def client():
        sock = lan.a.tcp.connect((lan.ip_b, 9999))
        try:
            yield sock.wait_connected()
        except ConnectionRefused:
            return "refused"

    process = lan.a.spawn(client())
    assert lan.sim.run_until_complete(process, deadline=5.0) == "refused"


def test_connect_to_silent_host_times_out(lan):
    lan.b.crash()  # no RST, just silence

    def client():
        sock = lan.a.tcp.connect((lan.ip_b, 8000))
        try:
            yield sock.wait_connected()
        except Exception as exc:
            return type(exc).__name__, lan.sim.now

    process = lan.a.spawn(client())
    name, gave_up_at = lan.sim.run_until_complete(process, deadline=300.0)
    assert name == "ConnectionTimeout"
    # 6 SYN retries with exponential backoff from 1 s ≈ 63 s.
    assert 30.0 < gave_up_at < 200.0


def test_lost_syn_is_retransmitted(lan):
    # Frames 1/2 are the ARP exchange (survivable by ARP retransmit
    # alone); frame 3 is the first SYN.
    lan.hub.loss_model = ScriptedLoss(drop_indices=[3])
    assert run_echo_once(lan) == b"ping"
    assert lan.sim.now >= 1.0  # paid one initial-RTO retransmission


def test_lost_synack_recovers(lan):
    # Fourth frame on the wire (after the ARP exchange and the SYN) is
    # the SYN/ACK.
    lan.hub.loss_model = ScriptedLoss(drop_indices=[4])
    assert run_echo_once(lan) == b"ping"


def test_lost_arp_reply_is_survived_by_retransmit(lan):
    # Losing the ARP reply costs one ARP_RETRY_INTERVAL, not a failed
    # resolution plus a TCP initial RTO.
    lan.hub.loss_model = ScriptedLoss(drop_indices=[2])
    assert run_echo_once(lan) == b"ping"
    assert lan.sim.now < 1.0


def test_orderly_close_reaches_closed_and_time_wait(lan):
    states = {}

    def server():
        listener = lan.b.tcp.listen(8000)
        conn = yield listener.accept()
        data = yield conn.recv(100)
        conn.close()  # passive close after EOF-ish exchange
        yield conn.wait_closed()
        states["server"] = conn.state

    def client():
        sock = lan.a.tcp.connect((lan.ip_b, 8000))
        yield sock.wait_connected()
        yield sock.send(b"x")
        sock.close()  # active close
        yield sock.wait_closed()
        states["client"] = sock.state

    lan.b.spawn(server())
    process = lan.a.spawn(client())
    lan.sim.run_until_complete(process, deadline=30.0)
    lan.sim.run(until=lan.sim.now + 5.0)
    assert states["client"] is TCPState.CLOSED
    assert states["server"] is TCPState.CLOSED


def test_active_closer_passes_through_time_wait(lan):
    """Read through the socket: from TIME_WAIT on, a record holds the slot."""
    tcb_box = {}

    def server():
        listener = lan.b.tcp.listen(8000)
        conn = yield listener.accept()
        yield conn.recv(10)
        conn.close()

    def client():
        sock = lan.a.tcp.connect((lan.ip_b, 8000))
        yield sock.wait_connected()
        tcb_box["sock"] = sock
        yield sock.send(b"x")
        sock.close()
        yield lan.sim.timeout(0.5)  # both FINs exchanged by now

    lan.b.spawn(server())
    process = lan.a.spawn(client())
    lan.sim.run_until_complete(process, deadline=30.0)
    assert tcb_box["sock"].state is TCPState.TIME_WAIT
    assert isinstance(tcb_box["sock"].tcb, TimeWait)
    lan.sim.run(until=lan.sim.now + 2.0)  # TIME_WAIT expires (1 s default)
    assert tcb_box["sock"].state is TCPState.CLOSED


def test_abort_sends_rst_and_peer_sees_reset(lan):
    outcome = {}

    def server():
        listener = lan.b.tcp.listen(8000)
        conn = yield listener.accept()
        try:
            yield conn.recv(100)
        except ConnectionReset:
            outcome["server"] = "reset"

    def client():
        sock = lan.a.tcp.connect((lan.ip_b, 8000))
        yield sock.wait_connected()
        sock.abort()
        yield lan.sim.timeout(0.1)

    lan.b.spawn(server())
    process = lan.a.spawn(client())
    lan.sim.run_until_complete(process, deadline=10.0)
    assert outcome["server"] == "reset"


def test_closing_a_reset_connection_keeps_the_reset(lan):
    """A close after the peer's RST is a no-op: the error that ended the
    connection stays readable, on the TCB and on the socket."""
    seen = {}

    def server():
        conn = yield lan.b.tcp.listen(8000).accept()
        with pytest.raises(ConnectionReset):
            yield conn.recv(100)
        seen["before"] = conn.tcb.error
        conn.close()
        seen["after"] = (conn.state, conn.tcb.error)
        with pytest.raises(ConnectionReset):
            yield conn.send(b"late")

    def client():
        sock = lan.a.tcp.connect((lan.ip_b, 8000))
        yield sock.wait_connected()
        sock.abort()

    server_process = lan.b.spawn(server())
    lan.a.spawn(client())
    lan.sim.run_until_complete(server_process, deadline=10.0)
    assert isinstance(seen["before"], ConnectionReset)
    assert seen["after"] == (TCPState.CLOSED, seen["before"])


def test_send_after_close_rejected(lan):
    def client():
        sock = lan.a.tcp.connect((lan.ip_b, 8000))
        listener = lan.b.tcp.listen(8000)
        yield sock.wait_connected()
        sock.close()
        try:
            yield sock.send(b"late")
        except ConnectionClosed:
            return "rejected"

    process = lan.a.spawn(client())
    assert lan.sim.run_until_complete(process, deadline=10.0) == "rejected"


def test_simultaneous_close(lan):
    states = {}

    def server():
        listener = lan.b.tcp.listen(8000)
        conn = yield listener.accept()
        yield lan.sim.timeout(0.01)
        conn.close()
        yield conn.wait_closed()
        states["server"] = conn.state

    def client():
        sock = lan.a.tcp.connect((lan.ip_b, 8000))
        yield sock.wait_connected()
        yield lan.sim.timeout(0.01)
        sock.close()
        yield sock.wait_closed()
        states["client"] = sock.state

    lan.b.spawn(server())
    process = lan.a.spawn(client())
    lan.sim.run_until_complete(process, deadline=30.0)
    lan.sim.run(until=lan.sim.now + 5.0)
    assert states == {"server": TCPState.CLOSED, "client": TCPState.CLOSED}


def test_connection_removed_from_layer_after_close(lan):
    run_echo_once(lan)
    lan.sim.run(until=lan.sim.now + 5.0)  # drain TIME_WAIT
    assert lan.a.tcp.connections == []
    assert lan.b.tcp.connections == []


def test_ephemeral_ports_differ_per_connection(lan):
    ports = []

    def server():
        listener = lan.b.tcp.listen(8000)
        while True:
            conn = yield listener.accept()
            conn.close()

    def client():
        for _ in range(3):
            sock = lan.a.tcp.connect((lan.ip_b, 8000))
            yield sock.wait_connected()
            ports.append(sock.local_address[1])
            sock.close()
            yield sock.wait_closed()

    lan.b.spawn(server())
    process = lan.a.spawn(client())
    lan.sim.run_until_complete(process, deadline=60.0)
    assert len(set(ports)) == 3
