"""Datapath-arm differential: ``REPRO_DATAPATH=batch`` vs ``object``.

The batch datapath — slot-drain dispatch, pooled zero-copy payloads,
precomputed wire headers, batched backup-tap reconciliation — must be
observably invisible.  Both arms run a full Table 1 grid, a Figure 5
sweep, and the entire drill conformance corpus; every result store hash
and every drill report must be byte-identical.
"""

import hashlib
from pathlib import Path

import pytest

import repro.harness.experiments  # noqa: F401 — registers the specs
from repro.drill import format_report, run_drill_path
from repro.harness.executor import run_experiment
from repro.harness.experiments import QUICK_SCALE
from repro.harness.results import ResultStore, canonical_json, cell_key
from repro.sim.datapath import DATAPATH_ENV, batch_enabled

DRILL_SCRIPTS = Path(__file__).parent.parent / "drill" / "scripts"


def _select_arm(monkeypatch, arm):
    """Pin the datapath arm; components read it at construction time."""
    if arm == "object":
        monkeypatch.setenv(DATAPATH_ENV, "object")
    else:
        monkeypatch.delenv(DATAPATH_ENV, raising=False)
    assert batch_enabled() == (arm == "batch")


def _run_grid(tmp_path, monkeypatch, arm, name, **options):
    _select_arm(monkeypatch, arm)
    store = ResultStore(tmp_path / f"{name}_{arm}.jsonl")
    result = run_experiment(name, scale=QUICK_SCALE, jobs=1, store=store, **options)
    assert result.grid.executed == len(result.cells)  # nothing cached
    keyed = {
        cell_key(cell): canonical_json(record)
        for cell, record in zip(result.cells, result.grid.records)
    }
    digest = hashlib.sha256(
        canonical_json(sorted(keyed.items())).encode()
    ).hexdigest()
    return keyed, digest


@pytest.mark.parametrize(
    "name, options",
    [
        ("table1", {"base_seed": 100}),
        ("figure5", {"application": "echo", "base_seed": 100}),
    ],
)
def test_datapath_arms_produce_identical_result_store_content(
    tmp_path, monkeypatch, name, options
):
    batch_keyed, batch_digest = _run_grid(tmp_path, monkeypatch, "batch", name, **options)
    object_keyed, object_digest = _run_grid(tmp_path, monkeypatch, "object", name, **options)
    assert batch_keyed.keys() == object_keyed.keys()
    for key in batch_keyed:
        assert batch_keyed[key] == object_keyed[key]
    assert batch_digest == object_digest


def test_datapath_arms_produce_identical_drill_reports(monkeypatch):
    """Every script in the conformance corpus, both arms, one report
    each — byte-identical, including per-step wire-format expectations
    (the drill peers assert on serialized segments, so this exercises
    the precomputed-header path end to end)."""
    _select_arm(monkeypatch, "batch")
    batch_report = format_report(run_drill_path(DRILL_SCRIPTS))
    _select_arm(monkeypatch, "object")
    object_report = format_report(run_drill_path(DRILL_SCRIPTS))
    assert batch_report == object_report
    assert "scripts passed" in batch_report


def test_scale_rung_record_identical_across_arms(tmp_path, monkeypatch):
    """One churn rung (the batch datapath's home turf: pooled payloads,
    batched tap reconciliation) produces the same hashed record on the
    reference arm."""
    from repro.harness.experiments import scale_ladder

    _select_arm(monkeypatch, "batch")
    batch_record = scale_ladder(ladder=(25,), store=None, base_seed=77)[0]
    _select_arm(monkeypatch, "object")
    object_record = scale_ladder(ladder=(25,), store=None, base_seed=77)[0]
    assert canonical_json(batch_record) == canonical_json(object_record)
    assert batch_record["verified"]


@pytest.mark.parametrize("arm, other", [("batch", "object"), ("object", "batch")])
def test_connection_opened_after_env_flip_joins_its_layers_arm(monkeypatch, arm, other):
    """The arm belongs to the simulator (DESIGN §13): TCBs opened —
    actively or passively — after ``REPRO_DATAPATH`` changed mid-run
    still use the arm their TCP layer was built on."""
    from repro.sim.simulator import Simulator
    from tests.conftest import LanPair, run_echo_once

    _select_arm(monkeypatch, arm)
    lan = LanPair(Simulator(seed=3))
    _select_arm(monkeypatch, other)
    tcbs = []
    for host in (lan.a, lan.b):
        assert host.tcp.batch_datapath == (arm == "batch")
        host.tcp.close_observers.append(tcbs.append)
    assert run_echo_once(lan, b"flipped") == b"flipped"
    lan.sim.run(until=lan.sim.now + 300.0)  # TIME_WAIT: both TCBs reaped
    assert len(tcbs) == 2
    for tcb in tcbs:
        assert tcb.output._use_template == (arm == "batch")
        assert (tcb.send_buffer._pool is not None) == (arm == "batch")
