"""A5 — the heartbeat miss threshold (§4.4/§6.2 fix it at 3).

Two costs pull in opposite directions: a *small* threshold detects real
crashes faster but wrongly suspects a healthy primary under heartbeat
loss (here: 30% random loss on the UDP channel only); a *large*
threshold is robust but slow.  STONITH keeps wrong suspicions *safe*
(§3.2) — this measures how often they happen and what they cost.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.apps.workload import echo_workload, failed_sessions
from repro.harness.calibrate import PAPER_TESTBED, NetworkProfile
from repro.harness.runner import measure_failover_time, run_workload
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


def _build_cells(
    scale=None,
    thresholds: Sequence[int] = (1, 2, 3, 5),
    channel_loss: float = 0.30,
    observation_time: float = 3.0,
    hb_interval: float = 0.05,
    profile: NetworkProfile = PAPER_TESTBED,
    base_seed: int = 900,
) -> List[GridCell]:
    del scale
    return [
        GridCell(
            experiment="ablation_detection",
            cell_id=f"threshold{threshold}",
            params={
                "threshold": threshold,
                "channel_loss": channel_loss,
                "observation_time": observation_time,
                "hb_interval": hb_interval,
                "profile": profile_params(profile),
            },
            seed=base_seed + index,
        )
        for index, threshold in enumerate(thresholds)
    ]


def _run_cell(cell: GridCell) -> Record:
    from repro.faults.injection import FaultPlan
    from repro.harness.scenario import Scenario

    params = cell.params
    threshold = params["threshold"]
    hb_interval = params["hb_interval"]
    profile = profile_from_params(params["profile"])
    config = STTCPConfig(hb_interval=hb_interval, hb_miss_threshold=threshold)
    # (a) false-suspicion probe: healthy primary, jittery channel.
    scenario = Scenario(profile=profile, sttcp=config, seed=cell.seed)
    FaultPlan([(0.0, "channel_partition", {"rate": params["channel_loss"]})]).arm(scenario)
    scenario.start_service()
    scenario.sim.run(until=params["observation_time"])
    wrongly_suspected = scenario.pair.failed_over
    # The service must survive a wrong suspicion transparently.
    probe = run_workload(
        echo_workload(10),
        scenario=scenario,
        seed=cell.seed,
        deadline=120.0,
    )
    service_ok = not failed_sessions(probe.outcomes)
    # (b) detection latency on a real crash (clean channel).
    sample = measure_failover_time(
        echo_workload(30),
        STTCPConfig(hb_interval=hb_interval, hb_miss_threshold=threshold),
        profile=profile,
        seed=cell.seed,
    )
    return {
        "threshold": float(threshold),
        "wrong_suspicion": bool(wrongly_suspected),
        "service_ok_after": bool(service_ok),
        "detection_latency": sample["detection_latency"],
        "failover_time": sample["failover_time"],
    }


SPEC = register(
    ExperimentSpec(
        name="ablation_detection",
        title="A5: heartbeat miss threshold",
        build_cells=_build_cells,
        run_cell=_run_cell,
        format=records_table(
            "A5 detection threshold",
            ["threshold", "wrong_suspicion", "service_ok_after", "detection_latency"],
        ),
    )
)
