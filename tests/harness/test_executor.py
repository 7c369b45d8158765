"""Executor behaviour: parallel determinism, resume, telemetry."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.harness.executor import run_grid
from repro.harness.experiments import ExperimentScale
from repro.harness.results import ResultStore, cell_key
from repro.harness.spec import get_spec
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


def test_probe_counts_every_simulator_though_addresses_are_reused():
    """Simulators built, run and dropped in a loop are handed each other's
    ``id()``; the probe must count all of them, and one noted twice once."""
    from repro.metrics import perf
    from repro.sim.simulator import Simulator

    with perf.track() as probe:
        for _ in range(5):
            sim = Simulator()
            for tick in range(10):
                sim.call_later(0.001 * (tick + 1), lambda: None)
            sim.run()
            perf.note_simulation(sim)
            perf.note_simulation(sim)
            del sim
    telemetry = probe.telemetry()
    assert (telemetry["simulations"], telemetry["events"]) == (5, 50)
