#!/usr/bin/env python3
"""Quickstart: a fault-tolerant TCP service in ~40 lines.

Builds the paper's testbed (client, primary, backup on one Ethernet hub),
deploys an ST-TCP server pair, runs a standard TCP client against the
virtual service address, and crashes the primary mid-run.  The client —
which knows nothing about ST-TCP — finishes its run with every byte
verified.

Run:  python examples/quickstart.py
"""

from repro.apps.workload import echo_workload
from repro.harness.calibrate import PAPER_TESTBED
from repro.harness.runner import run_workload
from repro.harness.scenario import Scenario
from repro.sttcp.config import STTCPConfig


def main() -> None:
    # 1. A failure-free run: ST-TCP behaves exactly like standard TCP.
    workload = echo_workload(exchanges=100)
    baseline = run_workload(
        workload,
        profile=PAPER_TESTBED,
        sttcp=STTCPConfig(hb_interval=0.05),
        seed=1,
    ).require_clean()
    print(f"failure-free run : {baseline.total_time:.3f} s "
          f"({workload.exchanges} echo exchanges, all verified)")

    # 2. The same run with the primary crashing halfway through.
    scenario = Scenario(profile=PAPER_TESTBED, sttcp=STTCPConfig(hb_interval=0.05), seed=1)
    crash_at = 0.1 + baseline.total_time / 2
    failed = run_workload(
        workload, scenario=scenario, faults=[(crash_at, "primary_crash")]
    ).require_clean()
    metrics = scenario.pair.failover_metrics()

    print(f"run with failover: {failed.total_time:.3f} s")
    print(f"  primary crashed       t={metrics.primary_crashed_at:.3f} s")
    print(f"  backup suspected it   +{metrics.detection_latency * 1e3:.0f} ms")
    print(f"  connections taken over +{metrics.takeover_latency * 1e3:.0f} ms")
    print(f"  failover cost          {failed.total_time - baseline.total_time:.3f} s")
    print(f"  client saw            {'NOTHING — same socket, every byte verified' if failed.result.verified else 'corruption (bug!)'}")


if __name__ == "__main__":
    main()
