"""Committed golden digests: what "same behaviour" means for this repo.

There is one scheduler and one datapath, so there is no second arm to
diff against.  Instead, in the packetdrill spirit, the expected outputs
are committed: the content of three full result grids, the drill
corpus's conformance report, and one churn rung, each as a sha256 over its
canonical JSON.  All five were frozen at PR 13's tree, where they were
identical under every scheduler backend / datapath arm that existed then
and under ``PYTHONHASHSEED`` 0, 1, 3 and random.

A digest that moves means simulated behaviour moved.  Re-freeze only in
a PR whose purpose is to change behaviour, and say why in CHANGES.md.
The one exception is a grid digest that moves with its cell keys alone:
those hash a cell's config, so removing a config field re-keys every cell.
The table1 and figure5 digests were re-frozen for that reason when
TCPConfig, STTCPConfig and NetworkProfile lost the fields no caller set;
their records, hashed in cell order without keys, did not move.
"""

import hashlib
from pathlib import Path

import pytest

import repro.harness.experiments  # noqa: F401 — registers the specs
from repro.drill import format_report, run_drill_path
from repro.harness.executor import run_experiment
from repro.harness.experiments import QUICK_SCALE
from repro.harness.results import canonical_json, cell_key

DRILL_SCRIPTS = Path(__file__).parent.parent / "drill" / "scripts"


#: Record fields that describe the host run, not the simulation, and are
#: left out of every digest.  ``bytes_per_tcb`` is a ``deep_size`` of live
#: Python objects (tests/harness/test_scale.py pins what must hold for
#: it).  ``sim_events`` is how many callbacks the kernel ran, which moves
#: whenever scheduling gets cheaper without any segment, timestamp or
#: outcome moving — the reason ``bench/workloads.py`` keeps ``sim.events``
#: out of ``sim_digest``; tests/harness/test_scale.py budgets it instead.
HOST_FIELDS = ("sim_events", "bytes_per_tcb")


def simulated(record):
    return {k: v for k, v in record.items() if k not in HOST_FIELDS}


def _grid_digest(name, **options):
    result = run_experiment(name, jobs=1, store=None, **options)
    assert result.grid.executed == len(result.cells)  # nothing cached
    keyed = {
        cell_key(cell): canonical_json(simulated(record))
        for cell, record in zip(result.cells, result.grid.records)
    }
    return hashlib.sha256(canonical_json(sorted(keyed.items())).encode()).hexdigest()


def _drill_digest():
    report = format_report(run_drill_path(DRILL_SCRIPTS))
    assert "30/30 scripts passed" in report
    return hashlib.sha256(report.encode()).hexdigest()


def _scale_rung_digest():
    record = run_experiment("scale", ladder=(25,), store=None, base_seed=77).rows[0]
    assert {entry["outcome"] for entry in record["outcomes"]} == {"completed"}
    return hashlib.sha256(canonical_json(simulated(record)).encode()).hexdigest()


@pytest.mark.parametrize(
    "compute, expected",
    [
        pytest.param(
            lambda: _grid_digest("table1", scale=QUICK_SCALE, base_seed=100),
            "85df7275db63d98bb42ff297d9ff4cd0f68e39087fd61e029e4cb0797145fab4",
            id="table1",
        ),
        pytest.param(
            lambda: _grid_digest(
                "figure5", application="echo", scale=QUICK_SCALE, base_seed=100
            ),
            "6fbc90dc744517914e72337007640b26d99a4a70aa7a96b7b9032a029251d7c2",
            id="figure5",
        ),
        pytest.param(
            lambda: _grid_digest("cluster"),
            "845ef65f4d873043c90bc75f3467c5b4f5bcdf5a7be5740f1b147ed6bfa5bf9e",
            id="cluster",
        ),
        pytest.param(
            _drill_digest,
            "b277d5c7a4e72b2ac55bfbcafdb4937844d348d4fd2602f84e3698205a15c05b",
            id="drill_corpus",
        ),
        pytest.param(
            _scale_rung_digest,
            "01e66ab6ea263f545a1e873dbdb8b42b9b0beade5ff585a36f8a58dad15f1daa",
            id="scale_rung",
        ),
    ],
)
def test_golden_digest(compute, expected):
    assert compute() == expected
