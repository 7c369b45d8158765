"""Executor behaviour: parallel determinism, resume, telemetry."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.harness.cli import main
from repro.harness.executor import run_grid
from repro.harness.experiments import ExperimentScale
from repro.harness.results import ResultStore, cell_key
from repro.harness.spec import ExperimentSpec, GridCell, get_spec, register
from repro.util.units import KB

#: Just big enough to exercise every row of Table 1.
TINY = ExperimentScale(
    echo_exchanges=5,
    interactive_exchanges=2,
    bulk_sizes=(32 * KB,),
    repeats=1,
    hb_grid=(0.2, 0.05),
)


def _echo_grid():
    """Table 1 restricted to the Echo column: one cell per protocol row."""
    spec = get_spec("table1")
    cells = [
        cell
        for cell in spec.build_cells(scale=TINY)
        if cell.params["workload"]["name"] == "echo"
    ]
    return spec, cells


def test_parallel_rows_identical_to_serial():
    spec, cells = _echo_grid()
    assert len(cells) == 3  # Standard TCP + ST-TCP at two HB intervals
    serial = run_grid(spec, cells, jobs=1)
    fanned = run_grid(spec, cells, jobs=2)
    assert serial.records == fanned.records
    assert fanned.executed == len(cells)
    assert fanned.jobs == 2


def test_process_pool_is_imported_only_when_there_is_a_pool():
    """``concurrent.futures`` costs ~40 modules, 3 MB of RSS and 50 ms of
    set-up; a ``jobs=1`` run (every benchmark sample) must not pay it."""
    src = Path(__file__).resolve().parents[2] / "src"
    probe = (
        "import sys; import repro.harness.executor, repro.harness.experiments;"
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"


def test_a_scale_run_imports_only_the_modules_it_runs():
    """ROADMAP 16(a): ``setup_s`` is mostly compiling.  Importing the
    experiments package names all eleven specs and imports none of their
    modules; ``get_spec("scale")`` imports churn's alone, and a run that
    only measures imports neither the logger, the SLO grader, the table
    formatter nor the flight recorder.  The count is pinned: a module new
    on this path costs every benchmark sample its compile time, so it
    moves this number on purpose or not at all (98 before the lazy
    registry)."""
    src = Path(__file__).resolve().parents[2] / "src"
    probe = (
        "import sys; import repro.harness.executor, repro.harness.experiments;"
        "from repro.harness.spec import experiment_names, get_spec; get_spec('scale');"
        "print(len(experiment_names())); print(sorted(m for m in sys.modules if m.startswith('repro')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    names, modules = done.stdout.splitlines()
    assert names == "11"
    modules = ast.literal_eval(modules)
    unwanted = ("repro.logger", "repro.obs.slo", "repro.obs.recorder", "repro.harness.tables", "repro.harness.runner")
    assert [m for m in modules if m.startswith(unwanted)] == []
    assert [m for m in modules if ".experiments." in m] == [
        "repro.harness.experiments.churn", "repro.harness.experiments.scale"
    ]
    assert len(modules) == 81, modules


def test_telemetry_collected_per_cell():
    spec, cells = _echo_grid()
    result = run_grid(spec, cells[:1])
    (telemetry,) = result.telemetry
    assert telemetry["events"] > 0
    assert telemetry["sim_seconds"] > 0
    assert telemetry["wall_time"] >= 0
    assert telemetry["simulations"] == 1
    assert result.events == telemetry["events"]
    # The collector's row: passes by generation and objects freed.
    assert len(telemetry["gc_passes"]) == 3 and telemetry["gc_freed"] >= 0
    assert result.gc_passes == telemetry["gc_passes"]
    passes = " / ".join(map(str, telemetry["gc_passes"]))
    assert result.summary().endswith(
        f"events/s; collector {passes} passes, {telemetry['gc_freed']:,} objects freed"
    )


def test_resume_skips_completed_cells(tmp_path):
    spec, cells = _echo_grid()
    store = ResultStore(tmp_path / "results.jsonl")
    first = run_grid(spec, cells, store=store)
    assert first.executed == len(cells) and first.cached == 0

    warm = run_grid(spec, cells, store=ResultStore(store.path))
    assert warm.executed == 0 and warm.cached == len(cells)
    assert warm.records == first.records

    # Drop one row from the store: exactly that cell re-runs, and the
    # recomputed grid is identical to the original.
    victim_key = cell_key(cells[1])
    survivors = [
        line
        for line in store.path.read_text().splitlines()
        if json.loads(line)["key"] != victim_key
    ]
    store.path.write_text("\n".join(survivors) + "\n")
    partial = run_grid(spec, cells, store=ResultStore(store.path))
    assert partial.executed == 1 and partial.cached == len(cells) - 1
    assert partial.records == first.records


def test_store_survives_torn_final_line(tmp_path):
    spec, cells = _echo_grid()
    store = ResultStore(tmp_path / "results.jsonl")
    run_grid(spec, cells, store=store)
    with store.path.open("a") as handle:
        handle.write('{"key": "interrupted-mid-wr')  # killed run
    reloaded = ResultStore(store.path)
    assert len(reloaded) == len(cells)
    resumed = run_grid(spec, cells, store=reloaded)
    assert resumed.executed == 0


def test_first_append_after_a_torn_line_survives_the_next_load(tmp_path):
    """A resumed run's first cell must not be glued onto the fragment a
    killed run left without its newline."""
    spec, cells = _echo_grid()
    first, second = cells[:2]
    store = ResultStore(tmp_path / "results.jsonl")
    store.append(first, {"cell": "a"})
    with store.path.open("a") as handle:
        handle.write('{"key": "torn", "rec')  # killed mid-write
    ResultStore(store.path).append(second, {"cell": "b"})
    reloaded = ResultStore(store.path)
    assert len(reloaded) == 2
    assert reloaded.get(cell_key(second))["record"] == {"cell": "b"}


def test_a_corrupt_line_before_the_tail_is_a_typed_error(tmp_path, capsys):
    """Only the last line may be torn; an undecodable line with entries
    after it is named by file and line, in the API and on the CLI."""
    spec, cells = _echo_grid()
    store = ResultStore(tmp_path / "results.jsonl")
    store.append(cells[0], {"cell": "a"})
    with store.path.open("a") as handle:
        handle.write('{"key": "torn", "rec\n')
    store.append(cells[1], {"cell": "c"})
    with pytest.raises(ReproError, match=f"{store.path}:2: corrupt"):
        ResultStore(store.path)
    assert main(["ablations", "--store", str(store.path)]) == 2
    assert f"error: {store.path}:2: corrupt" in capsys.readouterr().err


#: Cleared before the resume run, which executes in this process.
_WORKER_DIES = True


def _dying_cells(scale=None, **options):
    return [GridCell("executor_dying_worker", f"cell{i}", {"i": i}, i) for i in range(3)]


def _dying_cell(cell):
    if cell.params["i"] == 1 and _WORKER_DIES:
        os._exit(3)
    return {"i": cell.params["i"]}


register(ExperimentSpec("executor_dying_worker", "dies mid-grid", _dying_cells, _dying_cell))


def test_a_dead_worker_is_a_typed_error_and_the_run_resumes(tmp_path, monkeypatch):
    """Workers fork, so they see the spec registered above."""
    spec = get_spec("executor_dying_worker")
    cells = spec.build_cells()
    store = ResultStore(tmp_path / "results.jsonl")
    with pytest.raises(ReproError, match="worker died") as excinfo:
        run_grid(spec, cells, jobs=2, store=store)
    assert "cell1" in str(excinfo.value)
    in_flight = [cell for cell in cells if cell.cell_id in str(excinfo.value)]
    monkeypatch.setattr(sys.modules[__name__], "_WORKER_DIES", False)
    resumed = run_grid(spec, cells, store=ResultStore(store.path))
    assert resumed.executed == len(in_flight)
    assert resumed.records == [{"i": 0}, {"i": 1}, {"i": 2}]


def test_probe_counts_every_simulator_though_addresses_are_reused():
    """Simulators built, run and dropped in a loop are handed each other's
    ``id()``; the probe must count all of them, and one noted twice once."""
    from repro.metrics import perf
    from repro.sim.simulator import Simulator

    with perf.track() as probe:
        for _ in range(5):
            sim = Simulator()
            for tick in range(10):
                sim.schedule(0.001 * (tick + 1), lambda: None)
            sim.run()
            perf.note_simulation(sim)
            perf.note_simulation(sim)
            del sim
    telemetry = probe.telemetry()
    assert (telemetry["simulations"], telemetry["events"]) == (5, 50)
