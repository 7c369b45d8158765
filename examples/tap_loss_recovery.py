#!/usr/bin/env python3
"""Tap-loss repair and double-failure masking (§4.2, §3.2).

Part 1 — the backup's Ethernet tap drops 5% of frames (the IP-buffer-
overflow scenario): the UDP channel quietly repairs every hole while the
client notices nothing.

Part 2 — a *double failure*: the tap blacks out entirely and the primary
crashes before the channel can repair the gap.  Without a packet logger
the connection is unrecoverable; with one, the backup replays the missing
client bytes from the logger's memory and the upload completes verified.

Run:  python examples/tap_loss_recovery.py
"""

from repro.apps.workload import upload_workload
from repro.errors import SimulationError
from repro.harness.calibrate import PAPER_TESTBED
from repro.harness.runner import run_workload
from repro.harness.scenario import Scenario
from repro.sttcp.config import STTCPConfig
from repro.util.units import KB, MB


def part_one() -> None:
    print("Part 1: lossy tap, healthy primary")
    scenario = Scenario(
        profile=PAPER_TESTBED,
        sttcp=STTCPConfig(hb_interval=0.05, retx_request_timeout=0.02),
        seed=11,
    )
    shadows = []  # the backup's shadow, kept: once closed it leaves the table
    scenario.backup.tcp.connection_observers.append(shadows.append)
    run = run_workload(
        upload_workload(1 * MB), scenario=scenario, faults=[(0.0, "tap_loss", {"rate": 0.05})]
    ).require_clean()
    scenario.sim.run(until=scenario.sim.now + 1.0)  # let repairs finish
    print(f"  upload completed in {run.total_time:.3f} s, verified={run.result.verified}")
    print(f"  tap dropped {scenario.backup.nics[0].rx_loss_model.dropped} frames")
    count = scenario.sim.metrics.value
    print(f"  backup sent {count('backup.sttcp.retx_requests_sent')} RETX_REQUESTs and "
          f"recovered {count('backup.sttcp.retx_bytes_recovered')} bytes over the UDP channel")
    (shadow,) = shadows
    received = shadow.recv_buffer.rcv_nxt_offset
    print(f"  shadow receive stream complete through byte {received} ({shadow.state.value})\n")


def part_two(with_logger: bool) -> None:
    label = "with logger" if with_logger else "WITHOUT logger"
    print(f"Part 2 ({label}): tap outage + primary crash inside it")
    scenario = Scenario(
        profile=PAPER_TESTBED,
        sttcp=STTCPConfig(hb_interval=0.05, use_logger=with_logger),
        with_logger=with_logger,
        seed=12,
    )
    faults = [(0.15, "tap_outage", {"duration": 0.1}), (0.249, "primary_crash")]
    try:
        run = run_workload(
            upload_workload(512 * KB), scenario=scenario, faults=faults, deadline=1500.0
        )
        completed = run.result.error is None
        detail = f"in {run.total_time:.3f} s, verified={run.result.verified}"
    except SimulationError:
        completed, detail = False, "(client gave up after exhausting retransmissions)"
    if completed:
        print(f"  upload completed {detail}")
    else:
        print(f"  upload FAILED {detail}")
    if with_logger:
        replayed = scenario.sim.metrics.value("backup.sttcp.logger_bytes_recovered")
        print(f"  logger replayed {replayed} bytes the "
              f"dead primary could no longer provide")
    print()


def main() -> None:
    part_one()
    part_two(with_logger=False)
    part_two(with_logger=True)


if __name__ == "__main__":
    main()
