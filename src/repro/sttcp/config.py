"""ST-TCP configuration (§4).

Key parameters from the paper:

* ``hb_interval`` — heartbeat period on the UDP channel; the paper sweeps
  50 ms … 5 s (Tables 1–2, Figures 5–6).
* ``hb_miss_threshold`` — the backup declares the primary crashed after
  missing three consecutive heartbeats (§6.2), so detection takes between
  3 and 4 heartbeat intervals.
* ``ack_threshold_fraction`` — X as a fraction of the second receive
  buffer; the paper fixes X at three-fourths of the buffer (§4.3).
* ``second_buffer_size`` — the extra receive-buffer space on the primary;
  the paper doubles the allocation, i.e. the second buffer equals the
  first (§4.2).  ``None`` selects that default.
* ``sync_time`` — the backup acknowledges at least this often (§4.3,
  experimented between 50 ms and 5 s); ``None`` ties it to
  ``hb_interval`` as the prototype does (acks double as heartbeats).
"""

from __future__ import annotations

import dataclasses
from typing import Optional


@dataclasses.dataclass
class STTCPConfig:
    """Tunables for one primary/backup ST-TCP server pair."""

    hb_interval: float = 0.050
    hb_miss_threshold: int = 3
    #: Fraction of ``hb_interval`` by which each failure-detector check is
    #: randomly perturbed (±).  Zero keeps the detectors lock-stepped (the
    #: paper's 3-host testbed); clusters set it to desynchronise fleet-wide
    #: suspicion storms.
    hb_jitter: float = 0.0
    sync_time: Optional[float] = None
    ack_threshold_fraction: float = 0.75
    second_buffer_size: Optional[int] = None
    #: UDP port of the primary↔backup channel.
    channel_port: int = 39000
    #: Relay actuation latency of the controllable power switch, with
    #: which a backup cuts the suspected primary's power before it takes
    #: over (§3.2/§4.4); a pair built without a switch takes over at once.
    stonith_delay: float = 0.010
    #: How long the backup waits for an outstanding retransmission request
    #: before re-issuing it.
    retx_request_timeout: float = 0.050

    def effective_sync_time(self) -> float:
        return self.sync_time if self.sync_time is not None else self.hb_interval

    def detection_timeout(self) -> float:
        """Silence beyond this means the peer is suspected."""
        return self.hb_miss_threshold * self.hb_interval

    def validate(self) -> None:
        if self.hb_interval <= 0:
            raise ValueError(f"hb_interval must be positive, got {self.hb_interval}")
        if self.hb_miss_threshold < 1:
            raise ValueError("hb_miss_threshold must be >= 1")
        if not 0.0 <= self.hb_jitter < 1.0:
            raise ValueError(f"hb_jitter must be in [0, 1), got {self.hb_jitter}")
        if not 0.0 < self.ack_threshold_fraction <= 1.0:
            raise ValueError(
                f"ack_threshold_fraction must be in (0, 1], got "
                f"{self.ack_threshold_fraction}"
            )
        if self.sync_time is not None and self.sync_time <= 0:
            raise ValueError(f"sync_time must be positive, got {self.sync_time}")
