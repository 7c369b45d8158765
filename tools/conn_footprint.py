#!/usr/bin/env python
"""What one idle established ST-TCP connection keeps alive on the heap.

One client connection is three TCBs here (client, primary, the backup's
shadow), so bytes per connection — not ns per segment — bound the top
rung of ``repro scale`` on one process.  The recipe uses the public API
only: N clients connect to an ST-TCP pair, exchange one 512-byte
request/response and keep their sockets; the same build with no client
is subtracted, so what is left is what N connections add.  With
``--time-wait`` each client closes after its exchange instead, and the
heap is read while the client end of every connection waits in
TIME_WAIT (one :class:`~repro.tcp.timewait.TimeWait` record); the
primary's and the shadow's ends closed passively, through LAST_ACK, and
are gone.

Prints traced bytes and GC-tracked objects per connection, the
per-type census of the added objects, and who holds each added ``list``
and bound method (``list ← SpanBuffer``, ``method
RestartableTimer._fire ← TCPConnection``): the containers that grow with
connections, named by the object that keeps them.
``tests/tcp/test_footprint_budget.py`` holds both budgets (DESIGN §14).

Usage::

    PYTHONPATH=src python tools/conn_footprint.py [-n 100] [-n 400] [--time-wait]
"""

from __future__ import annotations

import argparse
import gc
import sys
import tracemalloc
import types
from collections import Counter
from typing import Any, List, NamedTuple, Tuple

from repro.apps.protocol import KIND_DATA, encode_request
from repro.harness.calibrate import FAST_LAN
from repro.harness.scenario import Scenario
from repro.sttcp.config import STTCPConfig
from repro.tcp.constants import TCPState

#: Sim-time at which the first client connects, and the spacing after it.
FIRST_CONNECT = 0.2
CONNECT_SPACING = 0.0005

#: Connections in the throw-away build that fills import-time and
#: per-class caches before anything is measured.
WARMUP_CONNECTIONS = 20

#: With ``time_wait``, every host waits this long in TIME_WAIT (the
#: default is 1 s; only the clients, the active closers, do wait) and the
#: heap is read ``TIME_WAIT_READ_AFTER`` seconds after the last client
#: connects.  By then, as in the idle reading, the events the
#: handshakes queued have come due and gone (a first RTO armed at 1 s and
#: cancelled when an RTT sample shortened it waits in the queue until
#: then), and no endpoint has left TIME_WAIT below about 3 000 connections.
TIME_WAIT_HELD = 3.0
TIME_WAIT_READ_AFTER = 1.5


class Footprint(NamedTuple):
    """Per-connection cost at ``connections`` held connections."""

    #: Measured in TIME_WAIT (``--time-wait``), not idle established.
    time_wait: bool
    connections: int
    bytes_per_conn: float
    objects_per_conn: float
    #: (type name, instances per connection, ``getsizeof`` bytes per
    #: connection) for every type the connections add instances of.
    census: List[Tuple[str, float, float]]
    #: (``"list ← Holder"`` or ``"method Owner.name ← Holder"``, instances
    #: per connection) for the lists and bound methods they add.
    holders: List[Tuple[str, float]]

    def per_conn(self, type_name: str) -> float:
        """Instances of ``type_name`` one connection adds (0 if none)."""
        for name, count, _ in self.census:
            if name == type_name:
                return count
        return 0.0


def build(connections: int, time_wait: bool = False) -> Tuple[Scenario, List[Any]]:
    """An ST-TCP pair with ``connections`` idle established clients and
    their sockets or, with ``time_wait``, as many closed connections
    whose client ends are in TIME_WAIT and whose server ends are gone
    (and ``None`` for each)."""
    scenario = Scenario(profile=FAST_LAN, sttcp=STTCPConfig(hb_interval=0.1), seed=7)
    hosts = (scenario.client, scenario.primary, scenario.backup)
    if time_wait:
        for host in hosts:
            host.tcp.config = host.tcp.config.copy(time_wait=TIME_WAIT_HELD)
    scenario.start_service()
    sim = scenario.sim
    client = scenario.client
    held: List[Any] = []

    def one_client(index: int) -> Any:
        yield sim.timeout(FIRST_CONNECT + index * CONNECT_SPACING)
        sock = client.tcp.connect(scenario.service_addr)
        yield sock.wait_connected()
        yield sock.send(encode_request(KIND_DATA, 512, index))
        yield sock.recv_exactly(512)
        if time_wait:
            sock.close()
        held.append(None if time_wait else sock)

    for index in range(connections):
        client.spawn(one_client(index), f"footprint-{index}")
    settle = TIME_WAIT_READ_AFTER if time_wait else 1.0
    sim.run(until=FIRST_CONNECT + connections * CONNECT_SPACING + settle)
    if len(held) != connections:
        raise AssertionError(f"{len(held)} of {connections} clients connected")
    if time_wait:
        for host in hosts:
            states = [tcb.state for tcb in host.tcp.connections]
            waiting = connections if host is client else 0
            if states != [TCPState.TIME_WAIT] * waiting:
                raise AssertionError(f"{host.name}: not {waiting} endpoints in TIME_WAIT: {states}")
    return scenario, held


def _type_name(obj: Any) -> str:
    cls = type(obj)
    if cls.__module__ == "builtins":
        return cls.__qualname__
    return f"{cls.__module__}.{cls.__qualname__}"


def _census() -> Tuple[Counter, Counter]:
    """(instances, summed ``getsizeof``) by type name over GC-tracked objects."""
    counts: Counter = Counter()
    sizes: Counter = Counter()
    for obj in gc.get_objects():
        name = _type_name(obj)
        counts[name] += 1
        sizes[name] += sys.getsizeof(obj)
    return counts, sizes


#: The containers whose holders the census names.
_HELD_TYPES = (list, types.MethodType)


def _held() -> List[Any]:
    """Every live list and bound method (kept alive, so no id is reused)."""
    return [obj for obj in gc.get_objects() if type(obj) in _HELD_TYPES]


def _holder_label(held: Any, holder: Any) -> str:
    if type(held) is list:
        return f"list ← {type(holder).__qualname__}"
    return f"method {held.__func__.__qualname__} ← {type(holder).__qualname__}"


def _holders(before: List[Any]) -> Counter:
    """The lists and bound methods made since ``before`` was taken,
    counted by what refers to them (one row per referrer)."""
    old = {id(obj) for obj in before}
    objects = gc.get_objects()
    made = {id(obj) for obj in objects if type(obj) in _HELD_TYPES and id(obj) not in old}
    holders: Counter = Counter()
    for holder in objects:
        for held in gc.get_referents(holder):
            if id(held) in made:
                holders[_holder_label(held, holder)] += 1
    return holders


def _settle() -> None:
    """Collect until the heap is quiet.

    One pass is not enough after a ``build`` is dropped: closing its
    suspended server generators runs their ``finally`` blocks, which
    schedule events on the (dead) simulator, so the first pass sees the
    cycle as resurrected and only the next one frees it.
    """
    for _ in range(3):
        gc.collect()


def _cost_of_build(connections: int, time_wait: bool) -> Tuple[int, int, Counter, Counter, Counter]:
    """(traced bytes, GC objects, instances by type, ``getsizeof`` by
    type, added lists and bound methods by holder) that one ``build``
    keeps alive."""
    _settle()
    before_held = _held()
    before_counts, before_sizes = _census()
    before_bytes = tracemalloc.get_traced_memory()[0]
    before_objects = len(gc.get_objects())
    kept = build(connections, time_wait)
    _settle()
    after_bytes = tracemalloc.get_traced_memory()[0]
    after_objects = len(gc.get_objects())
    counts, sizes = _census()
    holders = _holders(before_held)
    del kept, before_held
    counts.subtract(before_counts)
    sizes.subtract(before_sizes)
    return after_bytes - before_bytes, after_objects - before_objects, counts, sizes, holders


def measure(connections: int = 100, time_wait: bool = False) -> Footprint:
    """Heap kept per connection: ``build(N)`` minus ``build(0)``, over N."""
    build(WARMUP_CONNECTIONS, time_wait)
    started_here = not tracemalloc.is_tracing()
    if started_here:
        tracemalloc.start()
    try:
        base_bytes, base_objects, base_counts, base_sizes, base_holders = _cost_of_build(0, time_wait)
        full_bytes, full_objects, counts, sizes, holders = _cost_of_build(connections, time_wait)
    finally:
        if started_here:
            tracemalloc.stop()
    counts.subtract(base_counts)
    sizes.subtract(base_sizes)
    holders.subtract(base_holders)
    census = [
        (name, count / connections, sizes[name] / connections)
        for name, count in counts.items()
        if count
    ]
    census.sort(key=lambda row: (-row[2], row[0]))
    return Footprint(
        time_wait,
        connections,
        (full_bytes - base_bytes) / connections,
        (full_objects - base_objects) / connections,
        census,
        sorted(
            ((label, count / connections) for label, count in holders.items() if count),
            key=lambda row: (-row[1], row[0]),
        ),
    )


def format_footprint(footprint: Footprint) -> str:
    state = "TIME_WAIT" if footprint.time_wait else "idle"
    lines = [
        f"{state}, N = {footprint.connections}: {footprint.bytes_per_conn:,.0f} bytes, "
        f"{footprint.objects_per_conn:.1f} GC-tracked objects, "
        f"{footprint.per_conn('collections.deque'):g} deques per connection",
        f"  {'type':<44}{'per conn':>10}{'getsizeof B':>13}",
    ]
    for name, count, size in footprint.census:
        lines.append(f"  {name:<44}{count:>10.2f}{size:>13.1f}")
    lines.append(f"  {'lists and bound methods, by holder':<54}{'per conn':>10}")
    for label, count in footprint.holders:
        lines.append(f"  {label:<54}{count:>10.2f}")
    return "\n".join(lines)


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "-n",
        "--connections",
        type=int,
        action="append",
        help="held connections (repeatable; default 100 and 400)",
    )
    parser.add_argument(
        "--time-wait",
        action="store_true",
        help="connections closed after the exchange, read in TIME_WAIT",
    )
    args = parser.parse_args(argv)
    for connections in args.connections or [100, 400]:
        print(format_footprint(measure(connections, args.time_wait)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
