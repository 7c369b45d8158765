"""The ``scale`` record is content-hashed into the result store, so every
field — including the ``bytes_per_tcb`` host-footprint figure the golden
digest leaves out — must be a pure function of the cell, not of the
interpreter's string-hash salt.  And a rung's event queue holds what
happens in the model: a holder waiting for the takeover is one wake, not
a poll every 25 ms, at the instant the poll would have reached."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from repro.harness.executor import run_experiment
from repro.harness.experiments.churn import HOLD_STEP, deep_size, holder_wake_time
from repro.harness.results import canonical_json
from repro.sim.simulator import Simulator
from tests.harness.test_golden_digests import simulated

SRC = Path(__file__).resolve().parents[2] / "src"


class _Plain:
    def __init__(self):
        self.first = 2**40
        self.second = "x" * 100


class _Slotted:
    __slots__ = ("first", "second")

    def __init__(self):
        self.first = 2**40
        self.second = "x" * 100


def test_deep_size_charges_the_instance_dict():
    """``sys.getsizeof(obj)`` stops at the object header: an un-slotted
    class must pay for its ``__dict__``, or slotting one looks like a loss."""
    plain, slotted = _Plain(), _Slotted()
    values = sys.getsizeof(plain.first) + sys.getsizeof(plain.second)
    assert deep_size(plain) >= sys.getsizeof(plain) + sys.getsizeof(plain.__dict__) + values
    assert deep_size(slotted) == sys.getsizeof(slotted) + values
    assert deep_size(slotted) < deep_size(plain)


_RUNG = (
    "import repro.harness.experiments;"
    "from repro.harness.executor import run_experiment;"
    "from repro.harness.results import canonical_json;"
    "rung = run_experiment('scale', ladder=(25,), store=None, base_seed=77).rows[0];"
    "print(canonical_json(rung))"
)


def _rung_record(hash_seed):
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed}
    done = subprocess.run(
        [sys.executable, "-c", _RUNG], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def test_scale_rung_record_is_identical_across_hash_seeds():
    """Two interpreters with different string-hash salts (what ``--jobs N``
    spawn workers are to each other) produce the byte-identical record,
    ``bytes_per_tcb`` included."""
    record = _rung_record("0")
    assert '"bytes_per_tcb"' in record
    assert record == _rung_record("3")


def test_a_five_hundred_connection_rung_leaves_nothing_behind():
    """Big enough that a linear scan on the backup's per-segment path, or
    a TCB the reaper misses, shows (docs/SCALE.md)."""
    (record,) = run_experiment("scale", ladder=(500,), store=None).rows
    assert record["verified"], record["failures"]
    assert record["degraded"] == 0
    assert record["leftover_shadows"] == 0
    assert record["leftover_backup_tcbs"] == 0


def _poll_loop_resumes_at(t0, final_at, set_at):
    """The holder's wait as it was before ``holder_wake_time``, run on a
    real simulator: ``final_at`` appears at ``set_at``; the holder, idle
    from ``t0``, re-sleeps 25 ms until it is there and past."""
    sim = Simulator()
    box = [None]
    resumed = []

    def holder():
        yield sim.timeout(t0)
        while box[0] is None or sim.now < box[0]:
            yield sim.timeout(0.025)
        resumed.append(sim.now)

    sim.spawn(holder())
    sim.schedule(set_at, box.__setitem__, 0, final_at)
    sim.run()
    return resumed[0]


@st.composite
def _holds(draw):
    t0 = draw(st.floats(0.0, 5.0))
    if draw(st.booleans()):
        final_at = draw(st.floats(0.0, 8.0))  # includes final_at <= t0: no wait
    else:
        final_at = t0  # exactly on the holder's grid
        for _ in range(draw(st.integers(0, 60))):
            final_at += HOLD_STEP
    return t0, final_at, final_at * draw(st.floats(0.0, 1.0))


@given(_holds())
def test_holder_wake_time_is_where_the_poll_loop_arrived(hold):
    """Bit for bit: every post-takeover flow starts at the instant it
    always did, so the stagger between holders is untouched."""
    t0, final_at, set_at = hold
    wake = holder_wake_time(t0, final_at)
    assert wake == _poll_loop_resumes_at(t0, final_at, set_at)
    assert wake >= max(t0, final_at)


def test_a_rung_spends_its_events_on_segments_not_on_waiting():
    """Events per delivered segment, the rung's cost in the unit
    docs/SCALE.md reports.  3.54 when 100 holders polled every 25 ms and
    every RTO / delayed-ACK re-arm was a cancelled queue entry plus a new
    one (9 744 events / 2 751 segments); 3.09 once holders waited once and
    timers re-armed lazily (8 487); 2.42 since the hub stopped queueing
    frames a NIC would drop at its power or filter check (6 652).
    ``tools/event_census.py`` says what the events are when this moves.  Nothing simulated may move
    with it: the record minus its two host-side fields is pinned to the
    sha256 it had on that tree."""
    (record,) = run_experiment("scale", ladder=(100,), store=None, base_seed=12).rows
    assert record["verified"], record["failures"]
    assert record["sim_events"] / record["sim_segments"] <= 2.9
    assert (
        hashlib.sha256(canonical_json(simulated(record)).encode()).hexdigest()
        == "6be2ed991f1698e16af5e64136a7340e183085cab44a74a40d70025e21a9e52d"
    )
