"""A4 — UDP-channel overhead as a fraction of client traffic (§4.3).

The paper's arithmetic: a 4 KB second buffer gives X = 3 KB, one
128-byte ack per 3 KB of client data → 4.17% added LAN traffic in the
worst case.  This reproduces that number and its scaling with the
second-buffer size, on a real upload stream.
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
from repro.util.units import KB, MB


def _build_cells(
    scale=None,
    upload_size: int = 1 * MB,
    second_buffers: Sequence[int] = (4 * KB, 8 * KB, 16 * KB, 32 * KB),
    profile: NetworkProfile = PAPER_TESTBED,
    base_seed: int = 800,
) -> List[GridCell]:
    del scale
    return [
        GridCell(
            experiment="ablation_overhead",
            cell_id=f"buf{second_buffer // KB}KB",
            params={
                "upload_size": upload_size,
                "second_buffer": second_buffer,
                "profile": profile_params(profile),
            },
            seed=base_seed + index,
        )
        for index, second_buffer in enumerate(second_buffers)
    ]


def _run_cell(cell: GridCell) -> Record:
    params = cell.params
    second_buffer = params["second_buffer"]
    config = STTCPConfig(
        hb_interval=0.05,
        second_buffer_size=second_buffer,
        ack_threshold_fraction=0.75,
    )
    run = run_workload(
        upload_workload(params["upload_size"]),
        profile=profile_from_params(params["profile"]),
        sttcp=config,
        seed=cell.seed,
    ).require_clean()
    count = run.scenario.sim.metrics.value
    acks_sent = count("backup.sttcp.acks_sent")
    # One 128 B ack plus the primary's 128 B reply per BackupAck.
    channel_bytes = (acks_sent + count("primary.sttcp.acks_received")) * 128
    client_bytes = run.result.bytes_sent
    return {
        "second_buffer": float(second_buffer),
        "x_bytes": float(second_buffer * 3 // 4),
        "acks_sent": float(acks_sent),
        "channel_bytes": float(channel_bytes),
        "client_bytes": float(client_bytes),
        "overhead_percent": 100.0 * channel_bytes / client_bytes,
    }


SPEC = register(
    ExperimentSpec(
        name="ablation_overhead",
        title="A4: UDP-channel overhead vs second-buffer size",
        build_cells=_build_cells,
        run_cell=_run_cell,
        format=records_table(
            "A4 channel overhead",
            ["second_buffer", "x_bytes", "acks_sent", "overhead_percent"],
        ),
    )
)
