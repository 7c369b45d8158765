"""Network profiles calibrating the simulator to the paper's testbed (§6).

The paper's numbers (Table 1) imply, for the 2001-era hardware
(800 MHz Athlons, Linux 2.2.18, 10/100 hub):

* an echo exchange of ≈8.9 ms — dominated by end-host stack/scheduler
  latency (Linux 2.2 ran at HZ=100), not by wire time;
* bulk throughput of ≈12.5 Mb/s — *window-limited*: receive window ÷
  round-trip time, far below the 100 Mb/s wire rate.

``PAPER_TESTBED`` folds the end-host latency into the hub's one-way delay
(4.35 ms) and uses a 10-segment (14 600 B) receive window, giving:
echo exchange ≈ 8.8 ms, interactive exchange ≈ 19 ms, bulk ≈ 13 Mb/s —
within a few percent of Table 1 on all workloads.

``FAST_LAN`` is a low-latency profile for unit/integration tests where
wall-clock realism does not matter.
"""

from __future__ import annotations

import dataclasses

from repro.tcp.config import TCPConfig
from repro.tcp.constants import DEFAULT_MSS
from repro.util.units import mbps, ms, us


@dataclasses.dataclass(frozen=True)
class NetworkProfile:
    """Physical and stack parameters for a scenario."""

    name: str
    link_rate_bps: float
    #: One-way latency of the shared medium (wire + end-host stack cost).
    hub_delay: float
    #: Store-and-forward latency of the switch (switched topology).
    switch_delay: float
    mss: int
    rcv_buffer: int
    snd_buffer: int

    def tcp_config(self) -> TCPConfig:
        return TCPConfig(
            mss=self.mss,
            rcv_buffer=self.rcv_buffer,
            snd_buffer=self.snd_buffer,
        )


#: Calibrated to the paper's experimental setup (§6, Table 1).
PAPER_TESTBED = NetworkProfile(
    name="paper-testbed",
    link_rate_bps=mbps(100),
    hub_delay=ms(4.35),
    switch_delay=us(10),
    mss=DEFAULT_MSS,
    rcv_buffer=12 * DEFAULT_MSS,  # 17520 B window → ≈12.5 Mb/s bulk
    snd_buffer=32 * 1024,
)

#: Low-latency profile for tests: microsecond LAN, generous buffers.
FAST_LAN = NetworkProfile(
    name="fast-lan",
    link_rate_bps=mbps(100),
    hub_delay=us(50),
    switch_delay=us(5),
    mss=DEFAULT_MSS,
    rcv_buffer=16 * 1024,
    snd_buffer=32 * 1024,
)


def expected_echo_exchange_time(profile: NetworkProfile) -> float:
    """Analytic estimate of one echo exchange (for calibration checks)."""
    request_wire = (150 + 40 + 18) * 8.0 / profile.link_rate_bps
    one_way = profile.hub_delay + request_wire
    return 2 * one_way


def expected_bulk_throughput(profile: NetworkProfile) -> float:
    """Analytic window-limited throughput estimate in bytes/second."""
    segment_wire = (profile.mss + 40 + 18) * 8.0 / profile.link_rate_bps
    rtt = 2 * profile.hub_delay + segment_wire
    return profile.rcv_buffer / rtt
