"""A guard on what one ST-TCP connection keeps alive, idle and in TIME_WAIT.

The companion of ``test_call_budget.py``: that one holds the per-segment
call count, this one the per-connection heap (DESIGN §14).  It fails the
day a per-connection class grows a ``__dict__`` again, a buffer goes back
to a ``deque``, a socket keeps its listener after the hand-off, or a
TIME_WAIT endpoint keeps its TCB.  ``tools/conn_footprint.py`` is the
measuring recipe and prints the per-type census when this test needs
explaining.
"""

import gc
import importlib.util
from collections import deque
from pathlib import Path

from repro.errors import ConnectionTimeout
from repro.harness.experiments.churn import owned_objects
from repro.sim.simulator import Simulator
from repro.tcp.constants import TCPState
from repro.tcp.socket import TCPSocket
from repro.tcp.tcb import TCPConnection
from repro.tcp.timewait import TimeWait

from tests.conftest import LanPair

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "conn_footprint.py"
_spec = importlib.util.spec_from_file_location("conn_footprint", _TOOL)
conn_footprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(conn_footprint)

#: The tree at the time of writing needs about 11 290 bytes and 90
#: GC-tracked objects per connection on CPython 3.11 (11 890 and 99 while
#: a shadow's state was split over an extension chain, an engine record
#: and a callback closure; about 13 960 and 130
#: while the TCB held five socket callbacks, a passive open two hand-off
#: closures, every TCB a persist and a TIME_WAIT timer and every event a
#: callback list; 14 700 and 140 while the scheduler pooled fired handles
#: in a free list); before buffers were lists and per-connection classes
#: slotted it needed 29 500 and 163.  The slack absorbs interpreter
#: differences (3.11 vs 3.12 object layouts).
BYTES_PER_CONNECTION_BUDGET = 12_400
OBJECTS_PER_CONNECTION_BUDGET = 101

#: A connection whose three endpoints wait in TIME_WAIT needs about 3 950
#: bytes and 20.6 objects (N = 100): three ``TimeWait`` records and their
#: expiry events, the shadow's ``ShadowExtension``, the primary's
#: retention record, table keys and the finished client process.  While
#: the TCBs themselves waited it needed 10 340 and 86.6.
TIME_WAIT_BYTES_PER_CONNECTION_BUDGET = 4_400
TIME_WAIT_OBJECTS_PER_CONNECTION_BUDGET = 23

#: Packages whose classes are instantiated per connection.
_PER_CONNECTION_PACKAGES = ("repro.tcp.", "repro.util.", "repro.sttcp.")


def test_idle_connection_stays_inside_the_footprint_budget():
    footprint = conn_footprint.measure(100)
    assert footprint.bytes_per_conn <= BYTES_PER_CONNECTION_BUDGET, (
        conn_footprint.format_footprint(footprint)
    )
    assert footprint.objects_per_conn <= OBJECTS_PER_CONNECTION_BUDGET, (
        conn_footprint.format_footprint(footprint)
    )


def test_time_wait_connection_stays_inside_its_footprint_budget():
    footprint = conn_footprint.measure(100, time_wait=True)
    assert footprint.bytes_per_conn <= TIME_WAIT_BYTES_PER_CONNECTION_BUDGET, (
        conn_footprint.format_footprint(footprint)
    )
    assert footprint.objects_per_conn <= TIME_WAIT_OBJECTS_PER_CONNECTION_BUDGET, (
        conn_footprint.format_footprint(footprint)
    )


def test_time_wait_frees_the_tcbs_it_replaces_at_once():
    """Once the client, primary and shadow ends wait in TIME_WAIT no TCB of
    theirs is left: none is pinned by a queued timer, the socket, the
    shadow's ``ShadowExtension`` or the primary's per-connection record,
    and none waits in a cycle for the collector, which stays off here."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        scenario, _ = conn_footprint.build(4, time_wait=True)
        left = [obj for obj in gc.get_objects() if isinstance(obj, TCPConnection) and obj.sim is scenario.sim]
    finally:
        if enabled:
            gc.enable()
    assert left == []
    pair = scenario.pair
    assert [type(state.tcb) for state in pair.backup_engine._connections.values()] == [TimeWait] * 4
    assert [type(state.tcb) for state in pair.primary_engine._connections.values()] == [TimeWait] * 4
    for host in (scenario.client, scenario.primary, scenario.backup):
        assert [record.socket for record in host.tcp.connections] == [None] * 4


def test_nothing_a_connection_owns_has_a_dict_or_a_deque():
    """From the client, primary and shadow TCB of one connection: what
    ``deep_size``'s walk reaches from the TCB and not from its neighbour
    on the same host (which leaves out the per-host config and the state
    enum) is slotted and list-backed."""
    scenario, socks = conn_footprint.build(2)
    pairs = (
        [sock.tcb for sock in socks],
        scenario.primary.tcp.connections,
        scenario.pair.backup_engine.shadow_connections,
    )
    for tcb, neighbour in pairs:
        assert tcb.state is TCPState.ESTABLISHED
        shared = {id(obj) for obj in owned_objects(neighbour)}
        owned = [obj for obj in owned_objects(tcb) if id(obj) not in shared]
        assert len(owned) > 20  # the walk really left the TCB
        offenders = [
            f"{type(obj).__module__}.{type(obj).__qualname__}"
            for obj in owned
            if isinstance(obj, deque)
            or (
                type(obj).__module__.startswith(_PER_CONNECTION_PACKAGES)
                and hasattr(obj, "__dict__")
            )
        ]
        assert not offenders, offenders


def test_listener_hands_the_tcb_back_to_the_socket_once_established():
    lan = LanPair(Simulator(seed=151))
    listener = lan.b.tcp.listen(8000)
    client = lan.a.tcp.connect((lan.ip_b, 8000))
    lan.sim.run(until=0.2)
    assert client.connected
    assert listener._pending == 0 and listener.accepted_total == 1
    (tcb,) = lan.b.tcp.connections
    socket = tcb.socket
    assert isinstance(socket, TCPSocket) and socket.tcb is tcb
    assert socket._listener is None  # the hand-off resolved and let go
    accepted = listener.accept()
    assert accepted.triggered and accepted.value is socket


def test_accept_that_aborts_at_once_frees_the_backlog_slot_once():
    """The hand-off wakes the accepting process inside ``_on_established``;
    an abort from there reports an error to a socket already let go."""
    lan = LanPair(Simulator(seed=154))
    listener = lan.b.tcp.listen(8000)

    def server():
        sock = yield listener.accept()
        sock.abort()

    lan.b.spawn(server())
    lan.sim.run(until=0.01)  # the server waits in accept() before the SYN
    lan.a.tcp.connect((lan.ip_b, 8000))
    lan.sim.run(until=0.5)
    assert listener._pending == 0 and listener.accepted_total == 1
    assert listener.may_accept_syn()


def test_handshake_dying_in_syn_rcvd_frees_its_backlog_slot_exactly_once():
    lan = LanPair(Simulator(seed=152))
    listener = lan.b.tcp.listen(8000)
    lan.a.tcp.connect((lan.ip_b, 8000))
    # The client dies the instant its SYN has opened a TCB on the server:
    # the SYN/ACK is never answered.
    while not lan.b.tcp.connections:
        lan.sim.step()
    (tcb,) = lan.b.tcp.connections
    assert tcb.state is TCPState.SYN_RCVD
    assert listener._pending == 1
    lan.a.crash()
    lan.sim.run(until=600.0)
    assert tcb.state is TCPState.CLOSED
    assert isinstance(tcb.error, ConnectionTimeout)
    assert listener._pending == 0
    assert listener.accepted_total == 0
    socket = tcb.socket
    assert isinstance(socket, TCPSocket) and socket._listener is None
    # A late error report goes to the socket alone.
    socket._on_error(tcb.error)
    assert listener._pending == 0 and listener.accepted_total == 0
    assert socket._error is tcb.error


def test_timers_a_connection_never_arms_are_never_built():
    """DESIGN §14: persist exists once a zero window arms it, and the
    active closer's TIME_WAIT is a record with one expiry event; an
    exchange and an orderly close build no persist timer anywhere."""
    lan = LanPair(Simulator(seed=153))
    tcbs = {}

    def server():
        conn = yield lan.b.tcp.listen(8000).accept()
        tcbs["server"] = conn.tcb
        request = yield conn.recv_exactly(3000)
        yield conn.send(request)
        yield conn.recv(10)  # EOF: the client closed first
        # Close from a later step: a close inside the EOF wake-up runs
        # before ``_process_fin`` has left ESTABLISHED, and the server
        # would wait in TIME_WAIT too (ROADMAP item 15).
        yield lan.sim.timeout(0.01)
        conn.close()

    def client():
        sock = lan.a.tcp.connect((lan.ip_b, 8000))
        yield sock.wait_connected()
        tcbs["client"] = sock.tcb
        tcbs["client_sock"] = sock
        yield sock.send(b"x" * 3000)
        yield sock.recv_exactly(3000)
        sock.close()
        yield lan.sim.timeout(0.5)  # both FINs exchanged by now

    lan.b.spawn(server())
    lan.sim.run_until_complete(lan.a.spawn(client()), deadline=30.0)
    client_tcb, server_tcb = tcbs["client"], tcbs["server"]
    assert isinstance(tcbs["client_sock"].tcb, TimeWait)
    assert tcbs["client_sock"].state is TCPState.TIME_WAIT
    assert server_tcb.state is TCPState.CLOSED
    assert client_tcb.retransmit.persist_timer is None
    assert server_tcb.retransmit.persist_timer is None
