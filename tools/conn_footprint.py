#!/usr/bin/env python
"""What one idle established ST-TCP connection keeps alive on the heap.

One client connection is three TCBs here (client, primary, the backup's
shadow), so bytes per connection — not ns per segment — bound the top
rung of ``repro scale`` on one process.  The recipe uses the public API
only: N clients connect to an ST-TCP pair, exchange one 512-byte
request/response and keep their sockets; the same build with no client
is subtracted, so what is left is what N connections add.  With
``--time-wait`` each client closes after its exchange instead, and the
heap is read while all three endpoints of every connection wait in
TIME_WAIT (one :class:`~repro.tcp.timewait.TimeWait` record each).

Prints traced bytes and GC-tracked objects per connection and the
per-type census of the added objects.  ``tests/tcp/test_footprint_budget.py``
holds both budgets (DESIGN §14).

Usage::

    PYTHONPATH=src python tools/conn_footprint.py [-n 100] [-n 400] [--time-wait]
"""

from __future__ import annotations

import argparse
import gc
import sys
import tracemalloc
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
#: default is 1 s) and the heap is read ``TIME_WAIT_READ_AFTER`` seconds
#: after the last client connects.  By then, as in the idle reading, the events the
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

    def per_conn(self, type_name: str) -> float:
        """Instances of ``type_name`` one connection adds (0 if none)."""
        for name, count, _ in self.census:
            if name == type_name:
                return count
        return 0.0


def build(connections: int, time_wait: bool = False) -> Tuple[Scenario, List[Any]]:
    """An ST-TCP pair with ``connections`` idle established clients and
    their sockets or, with ``time_wait``, as many closed connections
    whose three endpoints are in TIME_WAIT (and ``None`` for each)."""
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
            if states != [TCPState.TIME_WAIT] * connections:
                raise AssertionError(f"{host.name}: not every endpoint in TIME_WAIT: {states}")
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


def _settle() -> None:
    """Collect until the heap is quiet.

    One pass is not enough after a ``build`` is dropped: closing its
    suspended server generators runs their ``finally`` blocks, which
    schedule events on the (dead) simulator, so the first pass sees the
    cycle as resurrected and only the next one frees it.
    """
    for _ in range(3):
        gc.collect()


def _cost_of_build(connections: int, time_wait: bool) -> Tuple[int, int, Counter, Counter]:
    """(traced bytes, GC objects, instances by type, ``getsizeof`` by type)
    that one ``build`` keeps alive."""
    _settle()
    before_counts, before_sizes = _census()
    before_bytes = tracemalloc.get_traced_memory()[0]
    before_objects = len(gc.get_objects())
    kept = build(connections, time_wait)
    _settle()
    after_bytes = tracemalloc.get_traced_memory()[0]
    after_objects = len(gc.get_objects())
    counts, sizes = _census()
    del kept
    counts.subtract(before_counts)
    sizes.subtract(before_sizes)
    return after_bytes - before_bytes, after_objects - before_objects, counts, sizes


def measure(connections: int = 100, time_wait: bool = False) -> Footprint:
    """Heap kept per connection: ``build(N)`` minus ``build(0)``, over N."""
    build(WARMUP_CONNECTIONS, time_wait)
    started_here = not tracemalloc.is_tracing()
    if started_here:
        tracemalloc.start()
    try:
        base_bytes, base_objects, base_counts, base_sizes = _cost_of_build(0, time_wait)
        full_bytes, full_objects, counts, sizes = _cost_of_build(connections, time_wait)
    finally:
        if started_here:
            tracemalloc.stop()
    counts.subtract(base_counts)
    sizes.subtract(base_sizes)
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
