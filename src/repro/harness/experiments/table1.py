"""Table 1 — failure-free total time, standard TCP vs ST-TCP (§6.1)."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.harness.calibrate import PAPER_TESTBED, NetworkProfile
from repro.harness.experiments.scale import QUICK_SCALE, ExperimentScale, hb_label
from repro.harness.runner import run_workload
from repro.harness.spec import (
    ExperimentSpec,
    GridCell,
    Record,
    profile_from_params,
    profile_params,
    register,
    sttcp_from_params,
    sttcp_params,
    workload_from_params,
    workload_params,
)
from repro.harness.tables import format_table
from repro.sttcp.config import STTCPConfig


def _build_cells(
    scale: Optional[ExperimentScale] = None,
    profile: NetworkProfile = PAPER_TESTBED,
    topology: str = "hub",
    base_seed: int = 100,
) -> List[GridCell]:
    scale = scale or QUICK_SCALE
    workloads = scale.workloads()
    rows = [("Standard TCP", None)]
    rows += [
        (f"ST-TCP {hb_label(hb)} HB", STTCPConfig(hb_interval=hb))
        for hb in scale.hb_grid
    ]
    cells = []
    for row_label, sttcp in rows:
        for workload in workloads:
            for repeat in range(scale.repeats):
                cells.append(
                    GridCell(
                        experiment="table1",
                        cell_id=f"{row_label}|{workload.name}|r{repeat}",
                        params={
                            "row": row_label,
                            "workload": workload_params(workload),
                            "sttcp": sttcp_params(sttcp),
                            "profile": profile_params(profile),
                            "topology": topology,
                        },
                        seed=base_seed + repeat,
                    )
                )
    return cells


def _run_cell(cell: GridCell) -> Record:
    params = cell.params
    workload = workload_from_params(params["workload"])
    run = run_workload(
        workload,
        profile=profile_from_params(params["profile"]),
        topology=params["topology"],
        sttcp=sttcp_from_params(params["sttcp"]),
        seed=cell.seed,
    ).require_clean()
    return {
        "row": params["row"],
        "workload": workload.name,
        "total_time": run.total_time,
    }


def aggregate_mean_rows(
    cells: List[GridCell], records: List[Record], value_key: str = "total_time"
) -> List[Record]:
    """Fold (row, workload, repeat) cell records into paper-shaped rows."""
    ordered: Dict[str, Dict[str, List[float]]] = {}
    for record in records:
        columns = ordered.setdefault(record["row"], {})
        columns.setdefault(record["workload"], []).append(record[value_key])
    return [
        {"config": row, **{c: sum(v) / len(v) for c, v in columns.items()}}
        for row, columns in ordered.items()
    ]


def format_table1(records: List[Dict[str, object]]) -> str:
    columns = [key for key in records[0] if key != "config"]
    rows = [[record["config"]] + [record[col] for col in columns] for record in records]
    return format_table(
        ["Configuration"] + columns,
        rows,
        title="Table 1: average total time (s) without failure",
    )


SPEC = register(
    ExperimentSpec(
        name="table1",
        title="Table 1: failure-free total time, standard TCP vs ST-TCP",
        build_cells=_build_cells,
        run_cell=_run_cell,
        aggregate=aggregate_mean_rows,
        format=format_table1,
    )
)
