#!/usr/bin/env python3
"""Cascading failover with two ranked backups (extension of §3).

The paper allows "one or more backup servers".  This demo runs a long
echo session against a group of one primary and two active backups, then
kills the primary — and, a second later, kills the backup that took over.
The client's single TCP connection survives both crashes.

Run:  python examples/cascading_failover.py
"""

from repro.apps.client import run_client
from repro.apps.workload import echo_workload
from repro.faults.injection import FaultPlan
from repro.harness.calibrate import FAST_LAN
from repro.harness.scenario import Scenario
from repro.sim.trace import TraceRecord
from repro.sttcp.config import STTCPConfig

EVENTS = {"crash", "primary_suspected", "takeover", "promoted", "adopt_new_primary",
          "stonith", "non_fault_tolerant_mode"}


def narrate(record: TraceRecord) -> None:
    if record.event in EVENTS:
        fields = " ".join(f"{k}={v}" for k, v in record.fields.items())
        print(f"  [{record.time:7.3f}s] {record.event} {fields}")


def main() -> None:
    scenario = Scenario(
        profile=FAST_LAN,
        sttcp=STTCPConfig(hb_interval=0.05),
        backups=2,
        seed=42,
    )
    scenario.sim.trace.add_sink(narrate, categories=["sttcp", "host"])
    scenario.start_service()

    process_box = []
    scenario.sim.schedule_at(
        0.1,
        lambda: process_box.append(
            run_client(scenario.client, scenario.service_addr, echo_workload(10000))
        ),
    )
    # The primary crashes, then the backup that took over.
    FaultPlan([(0.2, "primary_crash"), (1.0, "backup_crash")]).arm(scenario)

    print("client: 10,000 echo exchanges against the virtual service IP")
    scenario.sim.run(until=0.1)
    result = scenario.sim.run_until_complete(process_box[0], deadline=300.0)

    print(f"\nclient finished : {result.exchanges_done} exchanges, "
          f"verified={result.verified}, total {result.total_time:.3f}s")
    print(f"max service gap : {result.max_gap * 1e3:.0f} ms per failover")
    print(f"now serving     : {scenario.pair.active_host.name} "
          f"(rank {scenario.pair.active_engine.rank})")
    print("one connection, three servers, two crashes — zero client changes.")


if __name__ == "__main__":
    main()
