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
#: 100.0 on CPython 3.11 (98.1 for the upload); while every frame-path
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
CALLS_PER_SEGMENT_BUDGET = 108
#: The small-message path: one 150-byte record per segment, so the fixed
#: per-exchange work (two app wake-ups, an ack each way) is not amortised
#: over an MSS.  203.1 now; 220.4 with the hashed address tables, 260.0
#: with the accessors, 276.5 while the shadow built what it vetoed, 295
#: with eager timers, 377 while a record was a two-leaf ``CatBytes``
#: (DESIGN §13 rule 5).
ECHO_CALLS_PER_SEGMENT_BUDGET = 219

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
}

#: What the frame path no longer asks (DESIGN §13 rule 8), by (module,
#: qualified name): address tables are keyed by ``value``, a medium
#: without a loss model asks none, and IP builds the frame it hands the
#: NIC in ``_transmit``.  None may be called on a failure-free bulk
#: transfer, its setup included.
FRAME_PATH_UNASKED = {
    ("net/addresses.py", "IPAddress.__hash__"),
    ("net/addresses.py", "IPAddress.__eq__"),
    ("net/addresses.py", "MACAddress.__hash__"),
    ("net/addresses.py", "MACAddress.__eq__"),
    ("net/loss.py", "LossModel.__call__"),
    ("ip/layer.py", "IPLayer._emit_frame"),
}


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
    # A delivery runs the NIC's power and filter checks inline; only the
    # hub asks ``screen`` before it queues one.
    receive = by_key["net/nic.py", "NIC.receive_frame"]
    screened = [c for c in receive.calls or () if _label(c.code) == "nic.py:NIC.screen"]
    assert screened == []
    # The routing table is scanned once per destination, then remembered.
    hosts = [scenario.client, scenario.primary, scenario.backup]
    destinations = sum(len(host.ip_layer.routes._memo) for host in hosts)
    matches = by_key["ip/routing.py", "Route.matches"].callcount
    assert 0 < matches <= destinations
