"""Figures 5(a)/5(b) — total time vs heartbeat interval, echo/interactive."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.apps.workload import echo_workload, interactive_workload
from repro.harness.calibrate import PAPER_TESTBED, NetworkProfile
from repro.harness.experiments.scale import (
    FIGURE_HB_SWEEP,
    QUICK_SCALE,
    ExperimentScale,
    hb_label,
)
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


def _workload_for(application: str, scale: ExperimentScale):
    if application == "echo":
        return echo_workload(scale.echo_exchanges)
    if application == "interactive":
        return interactive_workload(scale.interactive_exchanges)
    raise ValueError(f"figure5 covers echo/interactive, not {application!r}")


def _build_cells(
    scale: Optional[ExperimentScale] = None,
    application: str = "echo",
    hb_sweep: Sequence[float] = FIGURE_HB_SWEEP,
    profile: NetworkProfile = PAPER_TESTBED,
    topology: str = "hub",
    base_seed: int = 300,
    crash_fraction: float = DEFAULT_CRASH_FRACTION,
) -> List[GridCell]:
    scale = scale or QUICK_SCALE
    workload = _workload_for(application, scale)
    return [
        GridCell(
            experiment="figure5",
            cell_id=f"{application}|hb{hb:g}",
            params={
                "hb": hb,
                "workload": workload_params(workload),
                "profile": profile_params(profile),
                "topology": topology,
                "crash_fraction": crash_fraction,
            },
            seed=base_seed + index,
        )
        for index, hb in enumerate(hb_sweep)
    ]


def _run_cell(cell: GridCell) -> Record:
    params = cell.params
    sample = measure_failover_time(
        workload_from_params(params["workload"]),
        STTCPConfig(hb_interval=params["hb"]),
        profile=profile_from_params(params["profile"]),
        topology=params["topology"],
        crash_fraction=params["crash_fraction"],
        seed=cell.seed,
    )
    return {
        "hb": params["hb"],
        "no_failure_time": sample["no_failure_time"],
        "failure_time": sample["failure_time"],
        "failover_time": sample["failover_time"],
        # The outage window the timeline phases decompose (they sum to
        # this, not to failover_time = added completion time).
        "max_gap": sample["max_gap"],
        "timeline": sample.get("timeline"),
    }


def format_figure5(points: List[Dict[str, float]], application: str) -> str:
    rows = [
        [hb_label(p["hb"]), p["no_failure_time"], p["failure_time"], p["failover_time"]]
        for p in points
    ]
    return format_table(
        ["HB interval", "no failure (s)", "with failure (s)", "failover (s)"],
        rows,
        title=f"Figure 5 ({application}): total time vs heartbeat interval",
    )


SPEC = register(
    ExperimentSpec(
        name="figure5",
        title="Figure 5: total time vs heartbeat interval",
        build_cells=_build_cells,
        run_cell=_run_cell,
    )
)
