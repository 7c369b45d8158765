#!/usr/bin/env python3
"""A narrated failover: watch the ST-TCP protocol do its job.

Runs a bulk download (ftp-like, §6) with the primary crashing mid-
transfer, and prints the protocol-level events as they happen — shadow
attach, ISN rebase, heartbeat suspicion, STONITH, takeover, go-back-N
retransmission — followed by the client's progress around the longest
gap, the failover's.

Run:  python examples/failover_demo.py
"""

from repro.apps.workload import bulk_workload
from repro.harness.calibrate import PAPER_TESTBED
from repro.harness.runner import run_workload
from repro.harness.scenario import Scenario
from repro.sim.trace import TraceRecord
from repro.sttcp.config import STTCPConfig
from repro.util.units import MB, fmt_time

INTERESTING = {
    "shadow_attach",
    "primary_attach",
    "isn_rebase",
    "suspect",
    "stonith",
    "takeover",
    "crash",
    "non_fault_tolerant_mode",
}


def narrate(record: TraceRecord) -> None:
    if record.event in INTERESTING:
        fields = " ".join(f"{k}={v}" for k, v in record.fields.items())
        print(f"  [{record.time:8.3f}s] {record.category}/{record.event} {fields}")


def main() -> None:
    workload = bulk_workload(5 * MB)
    config = STTCPConfig(hb_interval=0.05)

    baseline = run_workload(workload, profile=PAPER_TESTBED, sttcp=config, seed=7)
    baseline.require_clean()
    print(f"Baseline (no failure): {baseline.total_time:.3f} s "
          f"for a 5 MB transfer\n")

    print("Re-running with a primary crash at 50% of the transfer:")
    scenario = Scenario(profile=PAPER_TESTBED, sttcp=config, seed=7)
    scenario.sim.trace.add_sink(narrate, categories=["sttcp", "host"])
    crash_at = 0.1 + baseline.total_time / 2
    failed = run_workload(workload, scenario=scenario, faults=[(crash_at, "primary_crash")])
    failed.require_clean()

    print("\nClient progress around the failover:")
    crash = scenario.primary.crashed_at
    progress = failed.result.progress
    if progress.longest > 0.15:  # the stall (well above normal inter-chunk pacing)
        (time, done), (next_time, _) = progress.start, progress.end
        print(f"  ... receiving steadily until t={time:.3f}s ({done // 1024} KB)")
        print(f"  >>> SERVICE GAP of {fmt_time(progress.longest)} "
              f"(crash at t={crash:.3f}s, detection + takeover)")
        print(f"  ... resumed at t={next_time:.3f}s, "
              f"finished at t={progress.last[0]:.3f}s")
    else:
        print("  (no visible gap — failover hid inside normal pacing)")

    print(f"\nTotal with failover : {failed.total_time:.3f} s")
    print(f"Failover cost       : {failed.total_time - baseline.total_time:.3f} s")
    print(f"Max client-visible gap: {fmt_time(failed.result.max_gap)}")
    print(f"Every byte verified : {failed.result.verified}")


if __name__ == "__main__":
    main()
