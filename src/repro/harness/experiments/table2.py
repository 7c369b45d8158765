"""Table 2 — failover time across heartbeat intervals and workloads (§6.2)."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.harness.calibrate import PAPER_TESTBED, NetworkProfile
from repro.harness.experiments.scale import QUICK_SCALE, ExperimentScale, hb_label
from repro.harness.experiments.table1 import aggregate_mean_rows
from repro.harness.runner import DEFAULT_CRASH_FRACTION, measure_failover_time
from repro.harness.spec import (
    ExperimentSpec,
    GridCell,
    Record,
    profile_from_params,
    profile_params,
    register,
    workload_from_params,
    workload_params,
)
from repro.harness.tables import format_table
from repro.sttcp.config import STTCPConfig


def _build_cells(
    scale: Optional[ExperimentScale] = None,
    profile: NetworkProfile = PAPER_TESTBED,
    topology: str = "hub",
    base_seed: int = 200,
    crash_fraction: float = DEFAULT_CRASH_FRACTION,
) -> List[GridCell]:
    scale = scale or QUICK_SCALE
    cells = []
    for hb in scale.hb_grid:
        row_label = f"ST-TCP {hb_label(hb)} HB"
        for workload in scale.workloads():
            for repeat in range(scale.repeats):
                cells.append(
                    GridCell(
                        experiment="table2",
                        cell_id=f"{row_label}|{workload.name}|r{repeat}",
                        params={
                            "row": row_label,
                            "hb_interval": hb,
                            "workload": workload_params(workload),
                            "profile": profile_params(profile),
                            "topology": topology,
                            "crash_fraction": crash_fraction,
                        },
                        seed=base_seed + repeat,
                    )
                )
    return cells


def _run_cell(cell: GridCell) -> Record:
    params = cell.params
    workload = workload_from_params(params["workload"])
    sample = measure_failover_time(
        workload,
        STTCPConfig(hb_interval=params["hb_interval"]),
        profile=profile_from_params(params["profile"]),
        topology=params["topology"],
        crash_fraction=params["crash_fraction"],
        seed=cell.seed,
    )
    return {
        "row": params["row"],
        "workload": workload.name,
        "failover_time": sample["failover_time"],
    }


def format_table2(records: List[Dict[str, object]]) -> str:
    columns = [key for key in records[0] if key != "config"]
    rows = [[record["config"]] + [record[col] for col in columns] for record in records]
    return format_table(
        ["Configuration"] + columns,
        rows,
        title="Table 2: failover time (s)",
    )


SPEC = register(
    ExperimentSpec(
        name="table2",
        title="Table 2: failover time vs heartbeat interval",
        build_cells=_build_cells,
        run_cell=_run_cell,
        aggregate=lambda cells, records: aggregate_mean_rows(
            cells, records, value_key="failover_time"
        ),
        format=format_table2,
    )
)
