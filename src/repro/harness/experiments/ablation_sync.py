"""A1 — §4.3 acknowledgment strategy: SyncTime and X on an upload stream.

How SyncTime and X affect throughput, channel chatter, and second-buffer
pressure.  Uses an *upload* workload: the second receive buffer retains
client→server bytes, so only uploads put pressure on it.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.apps.workload import upload_workload
from repro.harness.calibrate import PAPER_TESTBED, NetworkProfile
from repro.harness.runner import run_workload
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
    upload_size: int = 1 * MB,
    sync_times: Sequence[float] = (0.05, 0.2, 1.0, 5.0),
    x_fractions: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
    profile: NetworkProfile = PAPER_TESTBED,
    base_seed: int = 500,
) -> List[GridCell]:
    del scale  # the sweep is fixed by its own parameters
    cells = []
    for sync_index, sync_time in enumerate(sync_times):
        for x_index, fraction in enumerate(x_fractions):
            cells.append(
                GridCell(
                    experiment="ablation_sync",
                    cell_id=f"sync{sync_time:g}|x{fraction:g}",
                    params={
                        "upload_size": upload_size,
                        "sync_time": sync_time,
                        "x_fraction": fraction,
                        "profile": profile_params(profile),
                    },
                    seed=base_seed + sync_index * 13 + x_index,
                )
            )
    return cells


def _run_cell(cell: GridCell) -> Record:
    params = cell.params
    config = STTCPConfig(
        hb_interval=0.05,
        sync_time=params["sync_time"],
        ack_threshold_fraction=params["x_fraction"],
    )
    run = run_workload(
        upload_workload(params["upload_size"]),
        profile=profile_from_params(params["profile"]),
        sttcp=config,
        seed=cell.seed,
    ).require_clean()
    pair = run.scenario.pair
    assert pair is not None
    primary_states = list(pair.primary_engine._connections.values())
    retention_peak = max(
        (state.retention.peak_usage for state in primary_states), default=0
    )
    overflow_peak = max(
        (state.retention.overflow_byte_peak for state in primary_states),
        default=0,
    )
    return {
        "sync_time": params["sync_time"],
        "x_fraction": params["x_fraction"],
        "total_time": run.total_time,
        "acks_sent": float(run.scenario.sim.metrics.value("backup.sttcp.acks_sent")),
        "retention_peak": float(retention_peak),
        "overflow_peak": float(overflow_peak),
    }


SPEC = register(
    ExperimentSpec(
        name="ablation_sync",
        title="A1: acknowledgment strategy (SyncTime × X)",
        build_cells=_build_cells,
        run_cell=_run_cell,
        format=records_table(
            "A1 sync strategy",
            ["sync_time", "x_fraction", "total_time", "acks_sent", "retention_peak", "overflow_peak"],
        ),
    )
)
