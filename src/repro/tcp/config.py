"""Per-connection TCP tuning knobs.

A :class:`TCPConfig` is attached to a layer as its default and can be
overridden per listener or per active open.  It holds only what some
caller varies: the initial RTO, the SYN retry limit and the delayed-ACK
policy are the :mod:`repro.tcp.constants` values, and the timestamp
option is not modelled (the paper ran with it off, §6).  Replication
extensions change nothing here: receive-side retention plugs into the
receive buffer, and output suppression is a TCB runtime flag.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.tcp.constants import (
    DEFAULT_MSS,
    DEFAULT_RCV_BUFFER,
    DEFAULT_SND_BUFFER,
    MAX_RETRANSMITS,
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
    rto_min: float = RTO_MIN
    rto_max: float = RTO_MAX
    max_retransmits: int = MAX_RETRANSMITS
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
        # A negative delay would move the clock backwards: timers arm
        # through ``Scheduler.arm``, which trusts its callers on the sign.
        if self.time_wait < 0 or self.max_retransmits < 0:
            for name in ("time_wait", "max_retransmits"):
                value = getattr(self, name)
                if value < 0:
                    raise ValueError(f"{name} must be >= 0, got {value}")
