"""A guard on what one ST-TCP connection keeps alive, idle and in TIME_WAIT.

The companion of ``test_call_budget.py``: that one holds the per-segment
call count, this one the per-connection heap (DESIGN §14).  It fails the
day a per-connection class grows a ``__dict__`` again, a buffer goes back
to a ``deque``, an empty container or a waiting process allocates a list
or a bound method again, a socket keeps its listener after the hand-off,
or a TIME_WAIT endpoint keeps its TCB.  ``tools/conn_footprint.py`` is the
measuring recipe and prints the per-type census when this test needs
explaining.
"""

import gc
import importlib.util
from collections import deque
from pathlib import Path
from types import MethodType

import pytest

from repro.apps.protocol import KIND_DATA, encode_request
from repro.errors import ConnectionTimeout
from repro.harness.calibrate import FAST_LAN
from repro.harness.experiments.churn import owned_objects
from repro.harness.scenario import Scenario
from repro.sim.events import SimEvent
from repro.sim.process import Process
from repro.sim.simulator import Simulator
from repro.sttcp.config import STTCPConfig
from repro.sttcp.retention import SecondReceiveBuffer
from repro.sttcp.shadow import ShadowExtension
from repro.tcp.constants import TCPState
from repro.tcp.input import InputEngine
from repro.tcp.output import OutputEngine
from repro.tcp.retransmit import RetransmitEngine
from repro.tcp.socket import TCPSocket, _Read, _Write
from repro.tcp.tcb import TCPConnection
from repro.tcp.timewait import TimeWait

from tests.conftest import LanPair

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "conn_footprint.py"
_spec = importlib.util.spec_from_file_location("conn_footprint", _TOOL)
conn_footprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(conn_footprint)

#: The tree at the time of writing needs about 9 790 bytes and 67
#: GC-tracked objects per connection on CPython 3.11 (10 990 and 87 while
#: an empty buffer, an empty socket queue and a gapless reassembly queue
#: each held an empty list, a pending read its accumulator and callback
#: lists and a waiting process a bound ``_resume``; 11 280 and 90 while
#: a pending read was a dict beside its event and each queued timer entry
#: an ``EventHandle`` and a bound method; 11 890 and 99 while
#: a shadow's state was split over an extension chain, an engine record
#: and a callback closure; about 13 960 and 130
#: while the TCB held five socket callbacks, a passive open two hand-off
#: closures, every TCB a persist and a TIME_WAIT timer and every event a
#: callback list; 14 700 and 140 while the scheduler pooled fired handles
#: in a free list); before buffers were lists and per-connection classes
#: slotted it needed 29 500 and 163.  The slack absorbs interpreter
#: differences (3.11 vs 3.12 object layouts).
BYTES_PER_CONNECTION_BUDGET = 10_900
OBJECTS_PER_CONNECTION_BUDGET = 78

#: A closed connection whose client end waits in TIME_WAIT needs about
#: 1 350 bytes and 4.5 objects (N = 100): the client's ``TimeWait``
#: record, its own expiry's queue token, a table key and the finished
#: client process; the primary's and the shadow's ends closed through
#: LAST_ACK and are gone.  It needed 3 410 and 13.6 while a server that
#: closed from its EOF wake-up waited in TIME_WAIT too (three records, the
#: shadow's ``ShadowExtension``, the primary's retention record), 3 515
#: and 14.6 while the retention record's empty second buffer held a list,
#: 3 950 and 20.6 while each expiry was an ``EventHandle`` and a bound
#: method, and 10 340 and 86.6 while the TCBs themselves waited.
TIME_WAIT_BYTES_PER_CONNECTION_BUDGET = 1_550
TIME_WAIT_OBJECTS_PER_CONNECTION_BUDGET = 6

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
    """Once the client ends wait in TIME_WAIT and the primary and shadow
    ends have closed through LAST_ACK, no TCB of theirs is left: none is
    pinned by a queued timer, the socket, the server's accept loop, the
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
    servers = (scenario.primary, scenario.backup)
    pair = scenario.pair
    assert pair.backup_engine._connections == {} and pair.primary_engine._connections == {}
    for host in servers:
        assert host.tcp.connections == []
    records = scenario.client.tcp.connections
    assert [type(record) for record in records] == [TimeWait] * 4
    assert [record.socket for record in records] == [None] * 4


def test_closed_clients_leave_no_socket_or_event_for_the_collector():
    """A socket and an event whose value is that socket (``wait_connected``,
    ``wait_closed``) were a cycle, so every closed connection's socket
    waited for the collector: 50 clients that connected, closed and
    reached CLOSED left 52 ``TCPSocket``s and 52 ``SimEvent``s alive with
    it off.  Now reference counting frees them when the client is done."""
    lan = LanPair(Simulator(seed=156))
    listener = lan.b.tcp.listen(8000)

    def server():
        while True:
            conn = yield listener.accept()
            lan.b.spawn(handler(conn))

    def handler(conn):
        yield conn.recv_exactly(3)
        yield conn.send(b"ok")
        yield conn.recv(10)  # EOF
        conn.close()

    def client(waits_for_close):
        sock = lan.a.tcp.connect((lan.ip_b, 8000))
        yield sock.wait_connected()
        yield sock.send(b"req")
        yield sock.recv_exactly(2)
        sock.close()
        if waits_for_close:
            yield sock.wait_closed()

    enabled = gc.isenabled()
    gc.disable()
    try:
        lan.b.spawn(server())
        for index in range(50):
            lan.a.spawn(client(index % 2 == 0))
        lan.sim.run(until=5.0)  # the clients' TIME_WAIT has expired
        assert lan.a.tcp.connections == []
        objects = gc.get_objects()
        sockets = [obj for obj in objects if isinstance(obj, TCPSocket) and obj.sim is lan.sim]
        events = [
            obj.name for obj in objects
            if type(obj) in (SimEvent, _Read, _Write) and obj.sim is lan.sim
        ]
    finally:
        if enabled:
            gc.enable()
    # What is left is the server's: its last accepted socket, still a local
    # of its loop, and the accept it waits in.
    assert [sock.local_address[0] for sock in sockets] == [lan.ip_b]
    assert events == ["tcp.accept:8000"]


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


def test_an_idle_connection_keeps_no_empty_list_and_no_bound_resume():
    """DESIGN §14 rules 1, 3 and 6: from the client, primary and shadow
    endpoint of an idle connection (its socket, which reaches the TCB),
    what the walk finds and the neighbour's walk does not holds no empty
    ``list`` (a buffer, socket queue or reassembly queue with nothing in
    it) and no ``Process._resume`` bound method: the server processes
    blocked in a read are held by their events as themselves."""
    scenario, socks = conn_footprint.build(2)
    pairs = (
        [sock.tcb for sock in socks],
        scenario.primary.tcp.connections,
        scenario.pair.backup_engine.shadow_connections,
    )
    blocked = 0
    for tcb, neighbour in pairs:
        assert tcb.state is TCPState.ESTABLISHED
        shared = {id(obj) for obj in owned_objects(neighbour.socket or neighbour)}
        owned = [obj for obj in owned_objects(tcb.socket or tcb) if id(obj) not in shared]
        assert tcb in owned and len(owned) > 20
        empty = [obj for obj in owned if type(obj) is list and not obj]
        assert not empty, len(empty)
        resumes = [
            type(obj).__qualname__
            for obj in owned
            for ref in gc.get_referents(obj)
            if isinstance(ref, MethodType) and ref.__func__ is Process._resume
        ]
        assert not resumes, resumes
        for reader in (obj for obj in owned if type(obj) is _Read):
            assert isinstance(reader._callbacks, Process) and reader.acc is None
            blocked += 1
    assert blocked == 2  # the primary's and the shadow's server, in recv_exactly


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
    socket = tcb.socket  # a closed TCB lets go of it
    lan.a.crash()
    lan.sim.run(until=600.0)
    assert tcb.state is TCPState.CLOSED
    assert isinstance(tcb.error, ConnectionTimeout)
    assert listener._pending == 0
    assert listener.accepted_total == 0
    assert isinstance(socket, TCPSocket) and socket._listener is None
    assert tcb.socket is None and socket.tcb is tcb
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
        conn.close()  # from the wake-up: CLOSE_WAIT, then LAST_ACK

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
    assert server_tcb.state is TCPState.CLOSED and lan.b.tcp.connections == []
    assert client_tcb.retransmit.persist_timer is None
    assert server_tcb.retransmit.persist_timer is None


#: What a connection's server end owns and must not outlive its close.
#: None of them takes a weak reference (a ``__weakref__`` slot costs each
#: instance a pointer), so the test looks for survivors among the objects
#: the collector tracks, with the collector off.
_FREED_AT_CLOSE = (
    TCPConnection, InputEngine, OutputEngine, RetransmitEngine, TCPSocket,
    ShadowExtension, SecondReceiveBuffer,
)


def _new_survivors(baseline):
    """Instances of ``_FREED_AT_CLOSE`` alive now and not in ``baseline``."""
    known = {id(obj) for obj in baseline}
    return sorted(
        type(obj).__name__
        for obj in gc.get_objects()
        if type(obj) in _FREED_AT_CLOSE and id(obj) not in known
    )


@pytest.mark.parametrize("sttcp", [False, True], ids=["plain", "sttcp"])
def test_a_passive_close_leaves_nothing_for_the_collector(sttcp):
    """A server that closes from its EOF wake-up goes CLOSE_WAIT, LAST_ACK,
    CLOSED, and reaching CLOSED cuts the ties that made its TCB a cycle
    (engines, socket, the shadow's ``ShadowExtension``, the primary's
    ``SecondReceiveBuffer``): with the collector off, reference counting
    alone frees every server end's TCB, engines and socket, and on an
    ST-TCP pair the extension and the second buffer too, once the server
    processes let go of their sockets.  Only the client's TIME_WAIT record
    stays."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        baseline = [obj for obj in gc.get_objects() if type(obj) in _FREED_AT_CLOSE]
        if sttcp:
            scenario = Scenario(profile=FAST_LAN, sttcp=STTCPConfig(hb_interval=0.05), seed=159)
            scenario.start_service()
            sim, client, servers = scenario.sim, scenario.client, (scenario.primary, scenario.backup)
            service = scenario.service_addr
        else:
            lan = LanPair(Simulator(seed=159))
            sim, client, servers, service = lan.sim, lan.a, (lan.b,), (lan.ip_b, 8000)

            def server():
                conn = yield lan.b.tcp.listen(8000).accept()
                yield conn.recv(10)  # EOF
                conn.close()

            lan.b.spawn(server())

        def one_client():
            sock = client.tcp.connect(service)
            yield sock.wait_connected()
            if sttcp:
                yield sock.send(encode_request(KIND_DATA, 512, 1))
                yield sock.recv_exactly(512)
            sock.close()

        client.spawn(one_client())
        sim.run(until=0.5)
        for host in servers:
            assert host.tcp.connections == []
            for listener in list(host.tcp._listeners.values()):
                listener.close()  # the accept loop ends and drops its last socket
        sim.run(until=0.6)
        survivors = _new_survivors(baseline)
        (record,) = client.tcp.connections
    finally:
        if enabled:
            gc.enable()
    assert isinstance(record, TimeWait)
    assert survivors == []
