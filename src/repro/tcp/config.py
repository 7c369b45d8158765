"""Per-connection TCP tuning knobs.

A :class:`TCPConfig` is attached to a layer as its default and can be
overridden per listener or per active open.  Replication extensions change
nothing here: receive-side retention plugs into the receive buffer, and
output suppression is a TCB runtime flag.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.tcp.constants import (
    DEFAULT_MSS,
    DEFAULT_RCV_BUFFER,
    DEFAULT_SND_BUFFER,
    DELACK_SEGMENT_THRESHOLD,
    DELACK_TIMEOUT,
    MAX_RETRANSMITS,
    MAX_SYN_RETRANSMITS,
    RTO_INITIAL,
    RTO_MAX,
    RTO_MIN,
    TIME_WAIT_DURATION,
)


@dataclasses.dataclass
class TCPConfig:
    """Tunables for one TCP connection (or a layer's defaults)."""

    mss: int = DEFAULT_MSS
    snd_buffer: int = DEFAULT_SND_BUFFER
    rcv_buffer: int = DEFAULT_RCV_BUFFER
    nagle: bool = False
    delayed_ack: bool = True
    delack_timeout: float = DELACK_TIMEOUT
    delack_segments: int = DELACK_SEGMENT_THRESHOLD
    #: TCP timestamp option; the paper disabled it for all experiments (§6),
    #: so the simulator defaults it off as well.
    timestamps: bool = False
    rto_min: float = RTO_MIN
    rto_max: float = RTO_MAX
    rto_initial: float = RTO_INITIAL
    max_retransmits: int = MAX_RETRANSMITS
    max_syn_retransmits: int = MAX_SYN_RETRANSMITS
    time_wait: float = TIME_WAIT_DURATION
    #: Fixed ISN (tests only); None → per-host random ISN.
    isn: Optional[int] = None

    def copy(self, **overrides: object) -> "TCPConfig":
        """A copy with selected fields replaced."""
        return dataclasses.replace(self, **overrides)  # type: ignore[arg-type]

    def validate(self) -> None:
        if self.mss <= 0:
            raise ValueError(f"mss must be positive, got {self.mss}")
        if self.snd_buffer < self.mss or self.rcv_buffer < self.mss:
            raise ValueError("socket buffers must hold at least one segment")
        if self.rto_min <= 0 or self.rto_max < self.rto_min:
            raise ValueError(f"bad RTO bounds [{self.rto_min}, {self.rto_max}]")
        if self.rto_initial <= 0:
            raise ValueError(f"rto_initial must be positive, got {self.rto_initial}")
        if self.delack_segments < 1:
            raise ValueError("delack_segments must be >= 1")
        # A negative delay would move the clock backwards: timers arm
        # through ``Scheduler.arm``, which trusts its callers on the sign.
        if (self.delack_timeout < 0 or self.time_wait < 0
                or self.max_retransmits < 0 or self.max_syn_retransmits < 0):
            for name in ("delack_timeout", "time_wait", "max_retransmits", "max_syn_retransmits"):
                value = getattr(self, name)
                if value < 0:
                    raise ValueError(f"{name} must be >= 0, got {value}")
