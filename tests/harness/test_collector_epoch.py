"""The executor's collector epoch: while a cell runs the cyclic collector
has a young generation sized to a connection storm, the caller's settings
come back afterwards, and a finished cell's scenario is reclaimed before
the same process builds the next one (DESIGN §14 rule 4)."""

import gc
import importlib.util
import os
import weakref
from pathlib import Path

import pytest

from repro.harness.executor import CELL_NURSERY, execute_cell, run_grid
from repro.harness.spec import ExperimentSpec, GridCell, register

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "collector_share.py"
_spec = importlib.util.spec_from_file_location("collector_share", _TOOL)
collector_share = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(collector_share)

#: Thresholds no default and no constant of the executor equals.
CALLER = (701, 11, 12)


class _Sentinel:
    """Weakref-able stand-in for a scenario's objects."""


class _Graph:
    """A cycle, like a finished scenario: only the collector frees it."""

    def __init__(self):
        self.sentinel = _Sentinel()
        self.cycle = self

    def outgrow_the_nursery(self):
        """Allocate, while this graph is live, enough for one young pass
        inside the cell: the pass tenures the graph, as a connection storm
        tenures its scenario, and from then on only an older pass frees it."""
        ballast = [[] for _ in range(CELL_NURSERY + 1_000)]
        del ballast


#: (pid, weakref to the sentinel) of the last probe cell of this process.
_last_sentinel = None


def _run_probe_cell(cell):
    global _last_sentinel
    previous = None
    if _last_sentinel is not None and _last_sentinel[0] == os.getpid():
        previous = "dead" if _last_sentinel[1]() is None else "alive"
    graph = _Graph()
    _last_sentinel = (os.getpid(), weakref.ref(graph.sentinel))
    if cell.params.get("outgrows"):
        graph.outgrow_the_nursery()
    record = {
        "enabled": gc.isenabled(),
        "thresholds": gc.get_threshold(),
        "previous": previous,
        "pid": os.getpid(),
    }
    if cell.params.get("raises"):
        raise RuntimeError(f"cell failed at {gc.get_threshold()}")
    if cell.params.get("nested"):
        record["inner"], _telemetry = execute_cell(_cell("inner"))
        record["thresholds_after_inner"] = gc.get_threshold()
    return record


PROBE = register(
    ExperimentSpec(
        name="collector-epoch-probe",
        title="reports the collector's state from inside a cell",
        build_cells=lambda scale=None: [],
        run_cell=_run_probe_cell,
    )
)


def _cell(cell_id, **params):
    return GridCell(PROBE.name, cell_id, params, seed=0)


@pytest.fixture(autouse=True)
def caller_settings():
    enabled, thresholds = gc.isenabled(), gc.get_threshold()
    gc.set_threshold(*CALLER)
    yield
    gc.set_threshold(*thresholds)
    if enabled:
        gc.enable()
    else:
        gc.disable()


def test_a_cell_runs_with_the_collector_on_and_a_storm_sized_nursery():
    record, _telemetry = execute_cell(_cell("one"))
    assert record["enabled"]
    assert record["thresholds"] == (CELL_NURSERY, CALLER[1], CALLER[2])
    assert gc.get_threshold() == CALLER


def test_the_callers_thresholds_come_back_when_the_cell_raises():
    with pytest.raises(RuntimeError, match=rf"cell failed at \({CELL_NURSERY}, "):
        execute_cell(_cell("boom", raises=True))
    assert gc.get_threshold() == CALLER


def test_a_nested_cell_leaves_the_outer_epoch_standing():
    record, _telemetry = execute_cell(_cell("outer", nested=True))
    in_epoch = (CELL_NURSERY, CALLER[1], CALLER[2])
    assert record["inner"]["thresholds"] == in_epoch
    assert record["thresholds_after_inner"] == in_epoch
    assert gc.get_threshold() == CALLER


def test_a_caller_with_the_collector_off_is_left_alone():
    gc.disable()
    record, _telemetry = execute_cell(_cell("disabled"))
    assert not record["enabled"]
    assert record["thresholds"] == CALLER
    assert not gc.isenabled()


def test_a_caller_with_a_coarser_nursery_is_left_alone():
    coarser = (4 * CELL_NURSERY, 11, 12)
    gc.set_threshold(*coarser)
    record, _telemetry = execute_cell(_cell("coarser"))
    assert record["thresholds"] == coarser
    assert gc.get_threshold() == coarser


def test_the_previous_cells_graph_is_dead_when_the_next_cell_starts():
    grid = run_grid(PROBE, [_cell("first", outgrows=True), _cell("second")])
    _first, second = grid.records
    assert grid.telemetry[0]["gc_passes"] == [1, 0, 0]
    assert second["previous"] == "dead"


def test_a_pool_worker_reclaims_between_its_cells():
    """Six cells over two workers: at least four of them follow another
    cell of their own process, and each of those finds its predecessor's
    sentinel dead."""
    cells = [_cell(f"cell-{index}", outgrows=True) for index in range(6)]
    grid = run_grid(PROBE, cells, jobs=2)
    assert all(record["pid"] != os.getpid() for record in grid.records)
    followers = [record for record in grid.records if record["previous"]]
    assert len(followers) >= 4
    assert {record["previous"] for record in followers} == {"dead"}


def _full_passes():
    return gc.get_stats()[2]["collections"]


def test_a_one_cell_grid_makes_no_full_pass():
    """Reclamation is between cells, not around them: with nothing of an
    earlier cell left to free (the caller has just collected, as
    ``bench/worker.py`` does before its timed cell), one cell costs no
    full pass — its own scenario is left to the next cell or to exit."""
    gc.collect()
    before = _full_passes()
    grid = run_grid(PROBE, [_cell("only", outgrows=True)])
    assert grid.telemetry[0]["gc_passes"] == [1, 0, 0]
    assert _full_passes() == before


def test_cells_the_collector_never_visited_cost_no_full_pass():
    """What a cell smaller than the nursery leaves behind is young and
    dies at the next young pass: a grid of small cells pays no full pass
    per cell (26 ms each in a process with a test suite's heap)."""
    run_grid(PROBE, [_cell("disarm")])
    before = _full_passes()
    grid = run_grid(PROBE, [_cell(f"small-{index}") for index in range(3)])
    assert all(telemetry["gc_passes"] == [0, 0, 0] for telemetry in grid.telemetry)
    assert _full_passes() == before


def test_a_hundred_connection_rung_makes_a_handful_of_passes():
    """At CPython's nursery of 700 this rung makes 60 young and 5 middle
    passes that free nothing; ``tools/collector_share.py`` is the
    measuring recipe."""
    gc.set_threshold(700, 10, 10)
    share = collector_share.measure(100)
    assert sum(share.passes) <= 5, collector_share.format_share(share)
