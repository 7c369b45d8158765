"""TCP Reno congestion control (RFC 5681 + NewReno-style recovery point).

The controller owns ``cwnd``/``ssthresh`` and the fast-recovery inflation
bookkeeping; the TCB decides *when* the events happen (new ACK, duplicate
ACK, RTO) and asks the controller how much it may have in flight.
"""

from __future__ import annotations

from math import inf

from repro.tcp.constants import DEFAULT_MSS

#: RFC 3390 initial window: min(4·MSS, max(2·MSS, 4380 B)) — 3 segments
#: at the Ethernet MSS of 1460.
INITIAL_WINDOW_CAP = 4380

#: Duplicate ACKs that trigger fast retransmit.
DUPACK_THRESHOLD = 3


def initial_window(mss: int) -> int:
    """RFC 3390 initial congestion window in bytes."""
    return min(4 * mss, max(2 * mss, INITIAL_WINDOW_CAP))


class RenoCongestionControl:
    """Slow start, congestion avoidance, fast retransmit/recovery."""

    __slots__ = (
        "mss", "cwnd", "ssthresh", "in_fast_recovery",
        "_avoidance_acc", "fast_retransmits", "timeouts",
    )

    def __init__(self, mss: int = DEFAULT_MSS) -> None:
        if mss <= 0:
            raise ValueError(f"MSS must be positive, got {mss}")
        self.mss = mss
        self.cwnd = initial_window(mss)
        self.ssthresh: float = inf
        self.in_fast_recovery = False
        self._avoidance_acc = 0  # byte counter for congestion avoidance
        # Counters for metrics/ablations.
        self.fast_retransmits = 0
        self.timeouts = 0

    @property
    def in_slow_start(self) -> bool:
        return self.cwnd < self.ssthresh

    def window(self) -> int:
        """Current congestion window in bytes."""
        return int(self.cwnd)

    # Event handlers ---------------------------------------------------------
    def on_ack_new(self, bytes_acked: int) -> None:
        """A cumulative ACK advanced ``snd_una`` by ``bytes_acked``."""
        if self.in_fast_recovery:
            # Handled by exit_fast_recovery; partial-ACK logic lives in the
            # TCB which decides whether recovery is over.
            return
        if self.cwnd < self.ssthresh:  # in_slow_start, read inline
            mss = self.mss
            self.cwnd += bytes_acked if bytes_acked < mss else mss
        else:
            # Congestion avoidance: one MSS per cwnd of data acked.
            self._avoidance_acc += bytes_acked
            if self._avoidance_acc >= self.cwnd:
                self._avoidance_acc = 0
                self.cwnd += self.mss

    def enter_fast_recovery(self, flight_size: int) -> None:
        """Third duplicate ACK: halve and inflate (RFC 5681 §3.2)."""
        self.fast_retransmits += 1
        self.ssthresh = max(flight_size / 2.0, 2 * self.mss)
        self.cwnd = self.ssthresh + DUPACK_THRESHOLD * self.mss
        self.in_fast_recovery = True
        self._avoidance_acc = 0

    def on_dupack_in_recovery(self) -> None:
        """Each further dupack inflates cwnd by one MSS."""
        if self.in_fast_recovery:
            self.cwnd += self.mss

    def on_partial_ack(self, bytes_acked: int) -> None:
        """NewReno partial ACK: deflate by the amount acked, re-inflate one
        MSS (approximation of RFC 6582 §3.2 step 5)."""
        if self.in_fast_recovery:
            self.cwnd = max(self.cwnd - bytes_acked + self.mss, self.mss)

    def exit_fast_recovery(self) -> None:
        """Recovery point fully acked: deflate to ssthresh."""
        if self.in_fast_recovery:
            self.in_fast_recovery = False
            self.cwnd = max(self.ssthresh, 2 * self.mss)
            self._avoidance_acc = 0

    def on_retransmission_timeout(self, flight_size: int) -> None:
        """RTO: collapse to one segment (RFC 5681 §3.1)."""
        self.timeouts += 1
        self.ssthresh = max(flight_size / 2.0, 2 * self.mss)
        self.cwnd = self.mss
        self.in_fast_recovery = False
        self._avoidance_acc = 0

    def restart_after_idle(self) -> None:
        """RFC 2861: after an idle period of at least one RTO, restart
        from the initial window (ssthresh is preserved)."""
        if not self.in_fast_recovery:
            self.cwnd = min(self.cwnd, initial_window(self.mss))
            self._avoidance_acc = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        phase = (
            "fast-recovery"
            if self.in_fast_recovery
            else ("slow-start" if self.in_slow_start else "avoidance")
        )
        return f"<Reno cwnd={int(self.cwnd)} ssthresh={self.ssthresh} {phase}>"
