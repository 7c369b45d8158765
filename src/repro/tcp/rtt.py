"""RTT estimation and retransmission-timeout management (RFC 6298).

The RTO behaviour is central to the reproduction: after the server
crashes, the client's RTO backoff determines how quickly its
retransmissions reach the replica that took over, which is the second
component of the paper's failover time (§6.2).  Bounds and the ×2 backoff
factor follow Linux (200 ms … 2 min).
"""

from __future__ import annotations

from repro.tcp.constants import (
    RTO_BACKOFF_FACTOR,
    RTO_INITIAL,
    RTO_MAX,
    RTO_MIN,
)

#: RFC 6298 gains.
ALPHA = 1.0 / 8.0
BETA = 1.0 / 4.0
K = 4.0

#: Clock granularity lower bound for the variance term.
GRANULARITY = 0.001


class RTTEstimator:
    """Tracks SRTT/RTTVAR and keeps the current RTO."""

    __slots__ = (
        "rto_min", "rto_max", "srtt", "rttvar",
        "has_sample", "_base_rto", "backoff_count", "samples_taken", "rto",
    )

    def __init__(
        self,
        rto_min: float = RTO_MIN,
        rto_max: float = RTO_MAX,
        initial_rto: float = RTO_INITIAL,
    ) -> None:
        self.rto_min = rto_min
        self.rto_max = rto_max
        self.srtt: float = 0.0
        self.rttvar: float = 0.0
        self.has_sample = False
        #: The RTO without backoff, already clamped to the bounds.
        self._base_rto = self._clamped(initial_rto)
        self.backoff_count = 0
        self.samples_taken = 0
        #: The timeout to arm now, including any backoff in effect: the
        #: clamped base doubled per consecutive timeout, saturating at
        #: ``rto_max``.  A field its three writers keep current (DESIGN §13
        #: rule 7), read on every timer arming.  Backoff doubles the
        #: *clamped* value, as Linux does: on a LAN the progression is
        #: exactly 200 ms, 400 ms, 800 ms, … (§6.2).  Doubling is exact in
        #: binary floating point, so below the cap each value equals
        #: ``base * 2 ** backoff_count``, and no count overflows.
        self.rto = self._base_rto

    def _clamped(self, rto: float) -> float:
        if rto < self.rto_min:
            rto = self.rto_min
        return rto if rto < self.rto_max else self.rto_max

    def on_measurement(self, rtt: float) -> None:
        """Fold a new RTT sample (never from a retransmitted segment —
        Karn's algorithm is enforced by the caller)."""
        if rtt < 0:
            raise ValueError(f"negative RTT sample {rtt}")
        self.samples_taken += 1
        if not self.has_sample:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
            self.has_sample = True
        else:
            self.rttvar = (1 - BETA) * self.rttvar + BETA * abs(self.srtt - rtt)
            self.srtt = (1 - ALPHA) * self.srtt + ALPHA * rtt
        self._base_rto = self._clamped(self.srtt + max(GRANULARITY, K * self.rttvar))
        # A fresh measurement ends any backoff in progress.
        self.backoff_count = 0
        self.rto = self._base_rto

    def on_timeout(self) -> None:
        """Double the effective RTO (exponential backoff), up to ``rto_max``."""
        self.backoff_count += 1
        rto = self.rto * RTO_BACKOFF_FACTOR
        self.rto = rto if rto < self.rto_max else self.rto_max

    def reset_backoff(self) -> None:
        if self.backoff_count:
            self.backoff_count = 0
            self.rto = self._base_rto

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<RTT srtt={self.srtt * 1e3:.2f}ms rttvar={self.rttvar * 1e3:.2f}ms "
            f"rto={self.rto * 1e3:.1f}ms backoff={self.backoff_count}>"
        )
