"""Execution engine for experiment grids: serial or process-parallel.

The engine takes a spec's cell list and produces one record per cell,
in cell order, regardless of backend:

* ``jobs=1`` runs cells in-process;
* ``jobs>1`` fans cells out over a :class:`ProcessPoolExecutor`.  Each
  worker rebuilds the scenario from the cell's params and seed, so a
  parallel run is **bit-identical** to a serial one — simulations are
  deterministic and share no state.

With a :class:`~repro.harness.results.ResultStore`, cells whose content
key is already stored are *skipped* and their records read back, making
grids resumable; freshly executed cells are appended as they finish
(with perf telemetry from :mod:`repro.metrics.perf`), so an interrupted
grid loses at most its in-flight cells.

While a cell runs, the interpreter's cyclic collector works with a young
generation sized to a connection storm (:data:`CELL_NURSERY`), and what
a finished cell's scenario left tenured is reclaimed before the same
process builds the next one (DESIGN §14 rule 4).
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple


from repro.harness.results import ResultStore, cell_key
from repro.harness.spec import ExperimentSpec, GridCell, Record, get_spec
from repro.metrics import perf


@dataclasses.dataclass
class GridResult:
    """Records (in cell order) plus execution accounting for one grid."""

    records: List[Record]
    telemetry: List[Optional[Dict[str, Any]]]
    executed: int
    cached: int
    jobs: int
    wall_time: float
    #: Indices into ``records`` of cells executed by *this* run (the rest
    #: were read back from the store with their original telemetry).
    executed_indices: List[int] = dataclasses.field(default_factory=list)

    def _executed_telemetry(self) -> List[Dict[str, Any]]:
        return [t for i in self.executed_indices if (t := self.telemetry[i])]

    @property
    def events(self) -> int:
        return sum(int(t["events"]) for t in self._executed_telemetry())

    @property
    def sim_seconds(self) -> float:
        return sum(float(t["sim_seconds"]) for t in self._executed_telemetry())

    @property
    def gc_passes(self) -> List[int]:
        """Collector passes by generation inside the executed cells."""
        per_cell = [t["gc_passes"] for t in self._executed_telemetry()]
        return [sum(generation) for generation in zip(*per_cell)]

    @property
    def gc_freed(self) -> int:
        return sum(int(t["gc_freed"]) for t in self._executed_telemetry())

    def summary(self) -> str:
        total = self.executed + self.cached
        line = (
            f"{total} cells: {self.executed} executed, {self.cached} cached "
            f"(jobs={self.jobs}, {self.wall_time:.1f}s wall)"
        )
        if self.executed and self.wall_time > 0:
            line += (
                f"; {self.events} events, {self.sim_seconds:.1f} sim-s, "
                f"{self.events / self.wall_time:,.0f} events/s; collector "
                f"{' / '.join(map(str, self.gc_passes))} passes, "
                f"{self.gc_freed:,} objects freed"
            )
        return line


@dataclasses.dataclass
class ExperimentResult:
    """Aggregated rows plus the underlying grid accounting."""

    spec: ExperimentSpec
    cells: List[GridCell]
    grid: GridResult
    rows: List[Record]


#: Young-generation threshold of the cyclic collector while a cell runs
#: (net container allocations between two young passes).  CPython's 700
#: is five connections' worth — 140 tracked objects times three TCBs each
#: — so every connection of a storm is tenured into the oldest generation
#: and each full pass re-walks the whole heap; at 100 000 a
#: 2 000-connection rung makes five young passes and no other.  Chosen
#: from the sweep in EXPERIMENTS.md "PR 16": a nursery larger than the
#: cell is slower again, because the first young pass after the epoch
#: then walks and frees the whole finished scenario in the caller's time.
CELL_NURSERY = 100_000

#: ``gc.get_stats()[2]["collections"]`` when this process last finished a
#: cell that outgrew the nursery: while it stands, nothing has freed the
#: part of that cell's scenario the collector tenured.  ``None`` after a
#: cell the collector never visited — what it leaves is young, less than
#: a nursery's worth, and dies at the next young pass.  Process-wide on
#: purpose: it describes the process's heap, and a pool worker's next
#: task is a different ``run_grid`` call's next cell.
_full_passes_after_cell: Optional[int] = None


def _full_passes() -> int:
    return gc.get_stats()[2]["collections"]


@contextlib.contextmanager
def _cell_nursery() -> Iterator[None]:
    """Run the block with threshold 0 of the collector at :data:`CELL_NURSERY`.

    The collector stays enabled: reaped connections are cyclic garbage
    (TCB ↔ engines ↔ timers ↔ socket).  Thresholds 1 and 2 stay the
    caller's, and all three are the caller's again afterwards.  A caller
    who has the collector off (``gc.disable()``, or threshold 0 of zero)
    or already coarser is left alone — which is also what makes a nested
    use a no-op.
    """
    young, middle, old = gc.get_threshold()
    if not gc.isenabled() or not 0 < young < CELL_NURSERY:
        yield
        return
    gc.set_threshold(CELL_NURSERY, middle, old)
    try:
        yield
    finally:
        gc.set_threshold(young, middle, old)


def execute_cell(cell: GridCell) -> Tuple[Record, Dict[str, Any]]:
    """Run one cell under a perf probe; returns (record, telemetry)."""
    global _full_passes_after_cell
    spec = get_spec(cell.experiment)
    # A finished scenario is a cyclic graph, and with a coarse nursery
    # full passes are rare: free what the previous cell tenured before
    # building the next on top of it — unless a full pass has run since
    # (the caller collected, as bench/worker.py does after its warm-up
    # cell).  Never at the end of a cell: a process's last cell is left
    # to process exit, so a one-cell grid pays nothing.
    if _full_passes_after_cell == _full_passes():
        gc.collect()
    _full_passes_after_cell = None
    with _cell_nursery(), perf.track() as probe:
        try:
            record = spec.run_cell(cell)
        finally:
            if any(probe.gc_passes):
                _full_passes_after_cell = _full_passes()
    return record, probe.telemetry()


def _execute_cell_worker(cell: GridCell) -> Tuple[Record, Dict[str, Any]]:
    """Process-pool entry point: make sure the registry is populated."""
    import repro.harness.experiments  # noqa: F401 — registers built-in specs

    return execute_cell(cell)


def run_grid(
    spec: ExperimentSpec,
    cells: List[GridCell],
    jobs: int = 1,
    store: Optional[ResultStore] = None,
) -> GridResult:
    """Execute a grid, skipping cells already present in ``store``."""
    started = time.perf_counter()
    records: List[Optional[Record]] = [None] * len(cells)
    telemetry: List[Optional[Dict[str, Any]]] = [None] * len(cells)
    keys = [cell_key(cell) for cell in cells]
    todo: List[int] = []
    cached = 0
    for index, key in enumerate(keys):
        entry = store.get(key) if store is not None else None
        if entry is not None:
            records[index] = entry["record"]
            telemetry[index] = entry.get("telemetry")
            cached += 1
        else:
            todo.append(index)

    def finish(index: int, record: Record, cell_telemetry: Dict[str, Any]) -> None:
        records[index] = record
        telemetry[index] = cell_telemetry
        if store is not None:
            store.append(cells[index], record, cell_telemetry, key=keys[index])

    if jobs > 1 and len(todo) > 1:
        # Imported only when there is a pool: concurrent.futures pulls in
        # multiprocessing, socket, selectors, tempfile, ... — some 40
        # modules, 3 MB of RSS and 50 ms that a jobs=1 run never uses.
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                pool.submit(_execute_cell_worker, cells[index]): index
                for index in todo
            }
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    record, cell_telemetry = future.result()
                    finish(futures[future], record, cell_telemetry)
    else:
        for index in todo:
            record, cell_telemetry = execute_cell(cells[index])
            finish(index, record, cell_telemetry)

    return GridResult(
        records=records,  # type: ignore[arg-type] — every index was filled
        telemetry=telemetry,
        executed=len(todo),
        cached=cached,
        jobs=jobs,
        wall_time=time.perf_counter() - started,
        executed_indices=todo,
    )


def run_experiment(
    name: str,
    scale: Any = None,
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    **options: Any,
) -> ExperimentResult:
    """Build, execute, and aggregate one named experiment."""
    spec = get_spec(name)
    cells = spec.build_cells(scale=scale, **options)
    grid = run_grid(spec, cells, jobs=jobs, store=store)
    rows = (
        spec.aggregate(cells, grid.records)
        if spec.aggregate is not None
        else list(grid.records)
    )
    return ExperimentResult(spec=spec, cells=cells, grid=grid, rows=rows)
