"""Figure 6 — bulk-transfer total time vs size, with and without failure."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.apps.workload import bulk_workload
from repro.harness.calibrate import PAPER_TESTBED, NetworkProfile
from repro.harness.experiments.scale import QUICK_SCALE, ExperimentScale, hb_label
from repro.harness.runner import DEFAULT_CRASH_FRACTION, measure_failover_time
from repro.harness.spec import (
    ExperimentSpec,
    GridCell,
    Record,
    profile_from_params,
    profile_params,
    register,
)
from repro.harness.tables import format_table
from repro.sttcp.config import STTCPConfig
from repro.util.units import KB, MB


def _build_cells(
    scale: Optional[ExperimentScale] = None,
    hb_grid: Optional[Sequence[float]] = None,
    profile: NetworkProfile = PAPER_TESTBED,
    topology: str = "hub",
    base_seed: int = 400,
    crash_fraction: float = DEFAULT_CRASH_FRACTION,
) -> List[GridCell]:
    scale = scale or QUICK_SCALE
    hb_values = tuple(hb_grid) if hb_grid is not None else scale.hb_grid
    cells = []
    for hb_index, hb in enumerate(hb_values):
        for size_index, size in enumerate(scale.bulk_sizes):
            cells.append(
                GridCell(
                    experiment="figure6",
                    cell_id=f"hb{hb:g}|{size}B",
                    params={
                        "hb": hb,
                        "size": size,
                        "profile": profile_params(profile),
                        "topology": topology,
                        "crash_fraction": crash_fraction,
                    },
                    seed=base_seed + hb_index * 17 + size_index,
                )
            )
    return cells


def _run_cell(cell: GridCell) -> Record:
    params = cell.params
    sample = measure_failover_time(
        bulk_workload(params["size"]),
        STTCPConfig(hb_interval=params["hb"]),
        profile=profile_from_params(params["profile"]),
        topology=params["topology"],
        crash_fraction=params["crash_fraction"],
        seed=cell.seed,
    )
    return {
        "hb": params["hb"],
        "size": params["size"],
        "no_failure_time": sample["no_failure_time"],
        "failure_time": sample["failure_time"],
        "failover_time": sample["failover_time"],
    }


def format_figure6(points: List[Dict[str, float]]) -> str:
    rows = [
        [
            hb_label(p["hb"]),
            f"{p['size'] // KB} KB" if p["size"] < MB else f"{p['size'] // MB} MB",
            p["no_failure_time"],
            p["failure_time"],
        ]
        for p in points
    ]
    return format_table(
        ["HB interval", "size", "no failure (s)", "with failure (s)"],
        rows,
        title="Figure 6: bulk transfer with and without failover",
    )


SPEC = register(
    ExperimentSpec(
        name="figure6",
        title="Figure 6: bulk transfers with/without failover",
        build_cells=_build_cells,
        run_cell=_run_cell,
        format=format_figure6,
    )
)
