"""A3 — double-failure masking via the packet logger (§3.2).

The backup's tap blacks out, then the primary crashes before the UDP
channel can repair the gap.  During the outage the primary keeps
acknowledging the client's upload, so the client purges those bytes —
after the crash they exist nowhere the backup can reach.  Without a
logger the takeover is degraded and the client's session is still
unfinished at the 2 000 s deadline; with the logger the backup replays
the hole and the upload completes, fully verified.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.harness.calibrate import PAPER_TESTBED, NetworkProfile
from repro.harness.spec import (
    ExperimentSpec,
    GridCell,
    Record,
    profile_from_params,
    profile_params,
    register,
)
from repro.harness.tables import records_table
from repro.util.units import KB


def _build_cells(
    scale=None,
    upload_size: int = 512 * KB,
    outage: Tuple[float, float] = (0.15, 0.25),
    hb_interval: float = 0.05,
    profile: NetworkProfile = PAPER_TESTBED,
    base_seed: int = 700,
) -> List[GridCell]:
    del scale
    return [
        GridCell(
            experiment="ablation_logger",
            cell_id=f"logger={use_logger}",
            params={
                "use_logger": use_logger,
                "upload_size": upload_size,
                "outage": list(outage),
                "hb_interval": hb_interval,
                "profile": profile_params(profile),
            },
            seed=base_seed,
        )
        for use_logger in (False, True)
    ]


def _run_cell(cell: GridCell) -> Record:
    from repro.apps.workload import session_outcome, upload_workload
    from repro.errors import SimulationError
    from repro.harness.runner import run_workload
    from repro.harness.scenario import Scenario
    from repro.sttcp.config import STTCPConfig

    params = cell.params
    use_logger = params["use_logger"]
    outage = tuple(params["outage"])
    config = STTCPConfig(hb_interval=params["hb_interval"], use_logger=use_logger)
    scenario = Scenario(
        profile=profile_from_params(params["profile"]),
        sttcp=config,
        with_logger=use_logger,
        seed=cell.seed,
    )
    # Crash inside the outage so the channel cannot repair the gap.
    faults = [
        (outage[0], "tap_outage", {"duration": outage[1] - outage[0]}),
        (outage[1] - 0.001, "primary_crash"),
    ]
    try:
        run = run_workload(
            upload_workload(params["upload_size"]),
            scenario=scenario,
            faults=faults,
            seed=cell.seed,
            deadline=2000.0,
        )
        (entry,) = run.outcomes
        total_time = run.total_time
    except SimulationError:  # the client was still running at the deadline
        entry = session_outcome("client", scenario.sim.now, finished=False)
        total_time = float("inf")
    backup_engine = scenario.pair.backup_engine
    return {
        "logger": use_logger,
        "outcome": entry["outcome"],
        "degraded_connections": len(backup_engine.degraded_connections),
        "logger_bytes_recovered": scenario.sim.metrics.value(
            "backup.sttcp.logger_bytes_recovered"
        ),
        "total_time": total_time,
    }


SPEC = register(
    ExperimentSpec(
        name="ablation_logger",
        title="A3: double-failure masking via the logger",
        build_cells=_build_cells,
        run_cell=_run_cell,
        format=records_table(
            "A3 logger double-failure",
            ["logger", "outcome", "logger_bytes_recovered"],
        ),
    )
)
