"""A deterministic guard on the per-segment cost of the datapath.

Counts, not timings: the number of Python and builtin calls one run makes
is exact for a given interpreter, so this cannot flake on a noisy runner.
It fails the day someone reintroduces a per-segment re-sum, ``len()`` walk
or unguarded observer call (DESIGN §13).  The full ledger — per layer,
four workloads — is ``bench/run.py``; this is its tier-1 tripwire.
"""

import cProfile

import pytest

from repro.apps.workload import bulk_workload, echo_workload, upload_workload
from repro.harness.runner import run_workload
from repro.sttcp.config import STTCPConfig
from repro.util.units import KB

#: Calls per demultiplexed segment.  The tree at the time of writing needs
#: 141.5 on CPython 3.11 (129.7 for the upload); while the shadow built
#: and vetoed a segment for every one the primary sent, and a frame took
#: two extra hops up the stack, it needed 159.4 (140.5); while every RTO /
#: delayed-ACK re-arm was a cancel and a push, 167; with the timing wheel
#: about 187; before sizes became fields about 364.  The headroom is a few
#: per cent: the count is exact, and 3.12 inlines some calls, so it only
#: reads lower there.
CALLS_PER_SEGMENT_BUDGET = 155
#: The small-message path: one 150-byte record per segment, so the fixed
#: per-exchange work (two app wake-ups, an ack each way) is not amortised
#: over an MSS.  260.0 now; 276.5 while the shadow built what it vetoed,
#: 295 with eager timers, 377 while a record was a two-leaf ``CatBytes``
#: (DESIGN §13 rule 5).
ECHO_CALLS_PER_SEGMENT_BUDGET = 280


@pytest.mark.parametrize(
    "make_workload, size, budget",
    [
        pytest.param(bulk_workload, 512 * KB, CALLS_PER_SEGMENT_BUDGET, id="bulk_workload"),
        pytest.param(upload_workload, 512 * KB, CALLS_PER_SEGMENT_BUDGET, id="upload_workload"),
        pytest.param(echo_workload, 500, ECHO_CALLS_PER_SEGMENT_BUDGET, id="echo_workload"),
    ],
)
def test_bulk_transfer_stays_inside_the_call_budget(make_workload, size, budget):
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
    calls = sum(entry.callcount for entry in profiler.getstats())
    assert segments > 500  # the transfer really ran
    assert calls / segments <= budget, (
        f"{calls} calls for {segments} segments = {calls / segments:.1f} per segment"
    )
