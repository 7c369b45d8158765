"""A2 — ST-TCP vs the FT-TCP restart-and-replay baseline.

FT-TCP's restart+replay cost grows with the connection history;
ST-TCP's failover does not.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.apps.workload import bulk_workload
from repro.harness.calibrate import PAPER_TESTBED, NetworkProfile
from repro.harness.runner import measure_failover_time
from repro.harness.spec import (
    ExperimentSpec,
    GridCell,
    Record,
    profile_from_params,
    profile_params,
    register,
)
from repro.harness.tables import records_table
from repro.sttcp.config import STTCPConfig
from repro.util.units import MB


def _build_cells(
    scale=None,
    bulk_size: int = 1 * MB,
    hb_interval: float = 0.2,
    crash_fractions: Sequence[float] = (0.25, 0.5, 0.9),
    profile: NetworkProfile = PAPER_TESTBED,
    base_seed: int = 600,
) -> List[GridCell]:
    del scale
    cells = []
    for index, fraction in enumerate(crash_fractions):
        for label in ("ST-TCP", "FT-TCP"):
            cells.append(
                GridCell(
                    experiment="ablation_ftcp",
                    cell_id=f"{label}|crash{fraction:g}",
                    params={
                        "protocol": label,
                        "bulk_size": bulk_size,
                        "hb_interval": hb_interval,
                        "crash_fraction": fraction,
                        "profile": profile_params(profile),
                    },
                    seed=base_seed + index,
                )
            )
    return cells


def _run_cell(cell: GridCell) -> Record:
    from repro.ftcp.baseline import FTCPConfig

    params = cell.params
    config_class = FTCPConfig if params["protocol"] == "FT-TCP" else STTCPConfig
    sample = measure_failover_time(
        bulk_workload(params["bulk_size"]),
        config_class(hb_interval=params["hb_interval"]),
        profile=profile_from_params(params["profile"]),
        crash_fraction=params["crash_fraction"],
        seed=cell.seed,
    )
    return {
        "protocol": params["protocol"],
        "crash_fraction": params["crash_fraction"],
        "failover_time": sample["failover_time"],
        "detection_latency": sample["detection_latency"],
    }


SPEC = register(
    ExperimentSpec(
        name="ablation_ftcp",
        title="A2: ST-TCP vs FT-TCP failover",
        build_cells=_build_cells,
        run_cell=_run_cell,
        format=records_table(
            "A2 vs FT-TCP",
            ["protocol", "crash_fraction", "failover_time", "detection_latency"],
        ),
    )
)
