"""A deterministic guard on the per-segment cost of the datapath.

Counts, not timings: the number of Python and builtin calls one run makes
is exact for a given interpreter, so this cannot flake on a noisy runner.
It fails the day someone reintroduces a per-segment re-sum, ``len()`` walk,
unguarded observer call or accessor hop (DESIGN §13), and its message
names the ten functions with the most calls per segment.  The full
ledger — per layer, four workloads — is ``bench/run.py``; this is its
tier-1 tripwire.
"""

import cProfile
import os

import pytest

from repro.apps.workload import bulk_workload, echo_workload, upload_workload
from repro.harness.runner import run_workload
from repro.sttcp.config import STTCPConfig
from repro.util.units import KB

#: Calls per demultiplexed segment.  The tree at the time of writing needs
#: 54.2 on CPython 3.11 (55.0 for the upload); while the buffers rebuilt a
#: span to store or free bytes and the ACK path read ``una_offset``, free
#: space, slow start and the trace gate through calls, 63.7 (61.3); while
#: every datagram asked routing, ARP and the source MAC, a frame took a host hop up the stack and
#: the hub asked each station's filter by a call, 72.8 (69.5); while the TCB reached its
#: socket through callback wrappers, every ACK called the backoff reset
#: and ``try_output`` asked ``cc.window()``, 77.0 (73.0); while the receive
#: window and the retention overflow were recomputed through two calls on
#: every read of them and every sequence number went through ``unwrap``,
#: it needed 89.1 (87.5); while the clock was a
#: property, a process step two calls and every buffer append coerced its
#: span again, it needed 100.0 (98.1); while every frame-path
#: table hashed an address object, every medium asked a no-op loss model
#: and every datagram scanned the routing table, it needed 115.6 (112.2);
#: while per-segment state was read through accessors — the ``is_*``
#: flag properties, the RTO formula, the ``try_output`` facade,
#: ``flight_size``, the two-hop send tail — it needed 141.5 (129.7);
#: while the shadow built and vetoed a segment for every one the primary
#: sent, and a frame took two extra hops up the stack, 159.4 (140.5);
#: while every RTO / delayed-ACK re-arm was a cancel and a push, 167; with
#: the timing wheel about 187; before sizes became fields about 364.  The
#: headroom is about 8 per cent: the count is exact, and 3.12 inlines some
#: calls, so it only reads lower there.
CALLS_PER_SEGMENT_BUDGET = 59
#: The small-message path: one 150-byte record per segment, so the fixed
#: per-exchange work (two app wake-ups, an ack each way) is not amortised
#: over an MSS.  113.5 now; 119.8 with the ACK path's accessors and the
#: trace gate's call; 131.5 with every datagram resolved uncached;
#: 139.9 with the socket behind callback wrappers,
#: 156.0 with the receive window and overflow recomputed by calls and
#: every sequence number unwrapped by one; 203.1 while each wake-up paid
#: the kernel's and the buffers' accessors, 220.4 with the hashed address tables, 260.0
#: with the accessors, 276.5 while the shadow built what it vetoed, 295
#: with eager timers, 377 while a record was a two-leaf ``CatBytes``
#: (DESIGN §13 rule 5).
ECHO_CALLS_PER_SEGMENT_BUDGET = 123

#: Accessors the per-segment path reads as fields instead (DESIGN §13
#: rule 7), by (module, function name): none may be called at all on a
#: failure-free bulk transfer.  They stay for drills, tests and cold code.
PER_SEGMENT_FIELDS = {
    ("tcp/segment.py", "is_syn"): "TCPSegment.is_syn",
    ("tcp/segment.py", "is_ack"): "TCPSegment.is_ack",
    ("tcp/segment.py", "is_fin"): "TCPSegment.is_fin",
    ("tcp/segment.py", "is_rst"): "TCPSegment.is_rst",
    ("tcp/segment.py", "size"): "TCPSegment.size",
    ("ip/datagram.py", "size"): "IPDatagram.size",
    ("tcp/rtt.py", "rto"): "RTTEstimator.rto",
    ("tcp/tcb.py", "try_output"): "TCPConnection.try_output",
    ("tcp/tcb.py", "flight_size"): "TCPConnection.flight_size",
    ("tcp/tcb.py", "is_synchronized"): "TCPConnection.is_synchronized",
    ("tcp/congestion.py", "window"): "RenoCongestionControl.window",
}

#: What the frame path no longer asks (DESIGN §13 rule 8), by (module,
#: qualified name): address tables are keyed by ``value``, a medium
#: without a loss model asks none, and IP builds the frame it hands the
#: NIC where it has the answer (``send`` / ``_forward`` on a flow-cache
#: hit, ``_emit`` on a miss).  None may be called on a failure-free bulk
#: transfer, its setup included.
FRAME_PATH_UNASKED = {
    ("net/addresses.py", "IPAddress.__hash__"),
    ("net/addresses.py", "IPAddress.__eq__"),
    ("net/addresses.py", "MACAddress.__hash__"),
    ("net/addresses.py", "MACAddress.__eq__"),
    ("net/loss.py", "LossModel.__call__"),
    ("ip/layer.py", "IPLayer._emit_frame"),
}


#: What the request–response path no longer asks (DESIGN §13 rule 9), by
#: (module, qualified name): the clock and an event's outcome are fields,
#: a process step is one call, a socket wake-up reads the in-order byte
#: count and the FIN flag, and apps read ``span.length``.  None may be
#: called on an echo run, its setup included.
REQUEST_RESPONSE_UNASKED = {
    ("sim/simulator.py", "Simulator.now"),
    ("sim/events.py", "SimEvent.triggered"),
    ("sim/events.py", "SimEvent.ok"),
    ("tcp/tcb.py", "TCPConnection.readable_bytes"),
    ("tcp/recv_buffer.py", "ReceiveBuffer.available"),
    ("util/bytespan.py", "ByteSpan.__len__"),
    ("util/bytespan.py", "ByteSpan.iter_chunks"),
}

#: What the receive side reads as fields instead (DESIGN §13 rule 7), by
#: (module, qualified name): the advertised window and the retention
#: overflow are kept by their writers, and the acceptability test reads
#: the window inline.  None may be called on an upload.
RECEIVE_SIDE_UNASKED = {
    ("tcp/recv_buffer.py", "ReceiveBuffer.window"),
    ("tcp/recv_buffer.py", "ReceiveBuffer.out_of_order_bytes"),
    ("tcp/input.py", "InputEngine._sequence_acceptable"),
    ("sttcp/retention.py", "SecondReceiveBuffer.overflow_bytes"),
}

#: Where bytes are stored or freed (DESIGN §13 rule 2), by (module,
#: qualified name): a buffer keeps the spans it is handed and its ranges
#: over them as offsets, so none of these calls into the span module on a
#: failure-free transfer.  A span is built only when one is handed out.
STORE_AND_FREE_BUILD_NOTHING = {
    ("util/spanbuffer.py", "SpanBuffer.append"),
    ("util/spanbuffer.py", "SpanBuffer.discard_front"),
    ("tcp/send_buffer.py", "SendBuffer.append"),
    ("tcp/socket.py", "TCPSocket._pump_writers"),
}

#: What the ACK path reads as fields instead (DESIGN §13 rule 7), by
#: (module, qualified name): the send head, the free space, slow start
#: and the trace gate's category set.  None may be called on a transfer.
ACK_PATH_UNASKED = {
    ("sim/trace.py", "Tracer.enabled_for"),
    ("tcp/send_buffer.py", "SendBuffer.una_offset"),
    ("tcp/send_buffer.py", "SendBuffer.free_space"),
    ("tcp/congestion.py", "RenoCongestionControl.in_slow_start"),
}

#: Modules that take a span as they are handed it: bytes are coerced once,
#: where they enter (``TCPSocket.send``, the UDP socket).
SPAN_TAKERS = ("tcp/send_buffer.py", "util/spanbuffer.py")


def _label(code):
    if isinstance(code, str):  # a builtin
        return code
    name = getattr(code, "co_qualname", code.co_name)
    return f"{os.path.basename(code.co_filename)}:{name}"


def _module_key(code, name="co_name"):
    if isinstance(code, str):
        return None
    path = code.co_filename.replace(os.sep, "/")
    head, _, module = path.rpartition("/repro/")
    return (module, getattr(code, name)) if head else None


def _profiled_run(make_workload, size):
    workload = make_workload(size)
    config = STTCPConfig(hb_interval=0.05)
    profiler = cProfile.Profile()
    run = profiler.runcall(run_workload, workload, sttcp=config, seed=12)
    run.require_clean()
    registry = run.scenario.sim.metrics
    segments = sum(
        registry.value(name)
        for name in registry.names()
        if name.endswith(".tcp.segments_demuxed")
    )
    return profiler.getstats(), segments, run.scenario


@pytest.mark.parametrize(
    "make_workload, size, budget",
    [
        pytest.param(bulk_workload, 512 * KB, CALLS_PER_SEGMENT_BUDGET, id="bulk_workload"),
        pytest.param(upload_workload, 512 * KB, CALLS_PER_SEGMENT_BUDGET, id="upload_workload"),
        pytest.param(echo_workload, 500, ECHO_CALLS_PER_SEGMENT_BUDGET, id="echo_workload"),
    ],
)
def test_bulk_transfer_stays_inside_the_call_budget(make_workload, size, budget):
    stats, segments, _ = _profiled_run(make_workload, size)
    calls = sum(entry.callcount for entry in stats)
    assert segments > 500  # the transfer really ran
    top = sorted(stats, key=lambda entry: -entry.callcount)[:10]
    assert calls / segments <= budget, (
        f"{calls} calls for {segments} segments = {calls / segments:.1f} per segment; "
        "most calls per segment:\n"
        + "\n".join(f"  {e.callcount / segments:7.2f}  {_label(e.code)}" for e in top)
    )


def test_bulk_transfer_reads_per_segment_state_as_fields():
    stats, _, _ = _profiled_run(bulk_workload, 512 * KB)
    called = {
        PER_SEGMENT_FIELDS[key]: entry.callcount
        for entry in stats
        if (key := _module_key(entry.code)) in PER_SEGMENT_FIELDS
    }
    assert called == {}, f"accessors back on the per-segment path: {called}"


@pytest.mark.parametrize("make_workload", [bulk_workload, upload_workload], ids=["bulk", "upload"])
def test_transfer_stores_and_frees_bytes_without_building_a_span(make_workload):
    """The send buffer, the ready queue and the primary's second receive
    buffer hold their callers' spans: a failure-free 512 KB transfer's
    stores and frees make no call into the span module, and its ACK path
    asks no accessor."""
    stats, segments, _ = _profiled_run(make_workload, 512 * KB)
    assert segments > 500
    by_key = {_module_key(entry.code, "co_qualname"): entry for entry in stats}
    built = {
        f"{module}:{name}": sorted(
            _label(callee.code)
            for callee in by_key[module, name].calls or ()
            if (_module_key(callee.code) or ("",))[0] == "util/bytespan.py"
        )
        for module, name in sorted(STORE_AND_FREE_BUILD_NOTHING)
    }
    assert built == {f"{module}:{name}": [] for module, name in sorted(STORE_AND_FREE_BUILD_NOTHING)}
    called = {
        f"{module}:{name}": by_key[module, name].callcount
        for module, name in sorted(ACK_PATH_UNASKED)
        if (module, name) in by_key
    }
    assert called == {}, f"back on the ACK path: {called}"


def test_bulk_transfer_frame_path_asks_nothing_it_already_knows():
    stats, segments, scenario = _profiled_run(bulk_workload, 512 * KB)
    assert segments > 500
    by_key = {_module_key(entry.code, "co_qualname"): entry for entry in stats}
    called = {
        f"{module}:{name}": by_key[module, name].callcount
        for module, name in sorted(FRAME_PATH_UNASKED)
        if (module, name) in by_key
    }
    assert called == {}, f"back on the frame path: {called}"
    # A delivery runs the NIC's power and filter checks inline and hands
    # the payload straight to IP, by its ethertype: no host hop between.
    receive = by_key["net/nic.py", "NIC.receive_frame"]
    handed = [c for c in receive.calls or () if _label(c.code) == "layer.py:IPLayer.receive"]
    assert handed and handed[0].callcount > segments
    # Routing, ARP and the source MAC are asked on a flow-cache miss only:
    # each miss that finds a route is one ``_transmit``, and TCP's connect
    # asks the table once for its source address.
    hosts = [scenario.client, scenario.primary, scenario.backup]
    assert all(host.ip_layer._flows for host in hosts[:2])
    misses = by_key["ip/layer.py", "IPLayer._transmit"].callcount
    assert 0 < by_key["ip/routing.py", "RoutingTable.lookup"].callcount <= misses + 1
    assert by_key["host/host.py", "Host.source_mac_for"].callcount <= misses
    assert by_key["net/arp.py", "ArpService.entry"].callcount <= 2 * misses


def test_bulk_transfer_resolves_per_flow_not_per_segment():
    """Doubling the transfer leaves the calls of every resolver behind the
    flow cache unchanged: what remains is each flow's first datagram, the
    ARP exchange and the refill after it (DESIGN §13 rule 4)."""
    resolvers = (
        ("net/arp.py", "ArpService.lookup"),
        ("net/arp.py", "ArpService.entry"),
        ("host/host.py", "Host.source_mac_for"),
        ("ip/routing.py", "RoutingTable.lookup"),
        ("ip/routing.py", "Route.matches"),
    )
    counts = []
    for size in (256 * KB, 512 * KB):
        stats, segments, _ = _profiled_run(bulk_workload, size)
        assert segments > 300
        by_key = {_module_key(entry.code, "co_qualname"): entry for entry in stats}
        counts.append({key[1]: by_key[key].callcount if key in by_key else 0 for key in resolvers})
    assert counts[0] == counts[1], f"per-segment resolution: 256 KB {counts[0]}, 512 KB {counts[1]}"
    assert all(counts[1].values())


def test_request_response_path_pays_no_accessor():
    stats, segments, _ = _profiled_run(echo_workload, 500)
    assert segments > 500
    by_key = {_module_key(entry.code, "co_qualname"): entry for entry in stats}
    called = {
        f"{module}:{name}": by_key[module, name].callcount
        for module, name in sorted(REQUEST_RESPONSE_UNASKED)
        if (module, name) in by_key
    }
    coerced = {
        _label(entry.code): callee.callcount
        for entry in stats
        if (key := _module_key(entry.code)) is not None and key[0] in SPAN_TAKERS
        for callee in entry.calls or ()
        if _module_key(callee.code) == ("util/bytespan.py", "as_span")
    }
    assert called == {}, f"back on the request-response path: {called}"
    assert coerced == {}, f"a buffer coerces what it is handed: {coerced}"


def test_upload_wraps_and_unwraps_only_at_the_handshake():
    """An in-window sequence number unwraps inline and an outgoing one
    wraps by a mask, at every per-segment site — TCP input and output,
    the backup's tap and BackupAck, the primary's BackupAck handler — so
    doubling the upload leaves the calls of ``unwrap`` and ``wrap``
    unchanged: what remains is the handshake's."""
    counts = []
    for size in (256 * KB, 512 * KB):
        stats, segments, _ = _profiled_run(upload_workload, size)
        assert segments > 400
        by_key = {_module_key(entry.code, "co_qualname"): entry for entry in stats}
        seqspace = {name: by_key.get(("tcp/seqspace.py", name)) for name in ("unwrap", "wrap")}
        counts.append({name: entry.callcount if entry else 0 for name, entry in seqspace.items()})
        called = {
            f"{module}:{name}": by_key[module, name].callcount
            for module, name in sorted(RECEIVE_SIDE_UNASKED)
            if (module, name) in by_key
        }
        assert called == {}, f"back on the receive side: {called}"
    assert counts[0] == counts[1], f"per-segment (un)wraps: 256 KB {counts[0]}, 512 KB {counts[1]}"
