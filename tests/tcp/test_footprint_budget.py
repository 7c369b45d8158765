"""A guard on what one idle established ST-TCP connection keeps alive.

The companion of ``test_call_budget.py``: that one holds the per-segment
call count, this one the per-connection heap (DESIGN §14).  It fails the
day a per-connection class grows a ``__dict__`` again, a buffer goes back
to a ``deque``, or a hand-off closure stays referenced after the
hand-off.  ``tools/conn_footprint.py`` is the measuring recipe and prints
the per-type census when this test needs explaining.
"""

import importlib.util
from collections import deque
from pathlib import Path

from repro.errors import ConnectionTimeout
from repro.harness.experiments.churn import owned_objects
from repro.sim.simulator import Simulator
from repro.tcp.constants import TCPState
from repro.tcp.socket import TCPSocket

from tests.conftest import LanPair

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "conn_footprint.py"
_spec = importlib.util.spec_from_file_location("conn_footprint", _TOOL)
conn_footprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(conn_footprint)

#: The tree at the time of writing needs about 14 340 bytes and 138
#: GC-tracked objects per connection on CPython 3.11 (14 700 and 140 while
#: the scheduler pooled fired handles in a free list: two per connection
#: set up); before buffers were lists and per-connection classes slotted
#: it needed 29 500 and 163.  The slack absorbs interpreter differences
#: (3.11 vs 3.12 object layouts).
BYTES_PER_CONNECTION_BUDGET = 19_500
OBJECTS_PER_CONNECTION_BUDGET = 168

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
    for callback, own in (
        (tcb.on_established, TCPSocket._on_established),
        (tcb.on_error, TCPSocket._on_error),
    ):
        assert callback.__func__ is own
        assert callback.__self__.tcb is tcb
    accepted = listener.accept()
    assert accepted.triggered and accepted.value is tcb.on_error.__self__


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
    assert tcb.on_error.__func__ is TCPSocket._on_error
    assert tcb.on_established.__func__ is TCPSocket._on_established
    # A late error report goes to the socket alone.
    tcb.on_error(tcb.error)
    assert listener._pending == 0
