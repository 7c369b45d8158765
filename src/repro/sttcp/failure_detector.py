"""Timeout-based failure detection over the heartbeat stream (§4.4).

Both ends run a :class:`HeartbeatMonitor`: the backup watches the
primary's heartbeats (and ack replies), the primary watches the backup's
acks.  A peer is *suspected* after ``threshold`` consecutive intervals of
silence, so detection latency lies in
``[threshold·interval, (threshold+1)·interval)`` — matching the paper's
"with an HB every 5 sec, the backup will detect primary crash in 15 to 20
seconds depending on when exactly the failure occurs" (§6.2).

Suspicions may be wrong; combining the monitor with the power switch
(:mod:`repro.sttcp.power_switch`) converts wrong suspicions into correct
ones, giving the perfect failure detector ST-TCP requires (§3.2).

Fleet-level behaviour is observable through the metrics registry: every
monitor feeds the shared ``sttcp.hb`` counters (``heartbeats_missed``,
``suspicions``, ``false_suspicions``), and the senders feed
``heartbeats_sent`` — the inputs the cluster arbiter needs to reason
about heartbeat storms.  A monitor given its ``peer_host`` classifies
each suspicion as true (peer crashed) or false (peer alive but silent,
e.g. partitioned) at the moment it fires.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.tcp.timers import RestartableTimer

#: Dotted metrics prefix shared by every monitor in a simulation.
HB_METRICS_SCOPE = "sttcp.hb"


class HeartbeatMonitor:
    """Suspects a peer after N heartbeat intervals of silence."""

    def __init__(
        self,
        sim: Any,
        interval: float,
        threshold: int,
        on_suspect: Callable[[], None],
        name: str = "hb-monitor",
        jitter: float = 0.0,
        peer_host: Optional[Any] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        self.sim = sim
        self.interval = interval
        self.threshold = threshold
        self.on_suspect = on_suspect
        self.name = name
        #: Fraction of ``interval`` by which each check tick is randomly
        #: perturbed (±), desynchronising the fleet's detectors so a
        #: fabric-wide partition does not fire every suspicion in the
        #: same event-loop instant (the heartbeat-storm pathology).
        self.jitter = jitter
        #: When set, a firing suspicion is classified against the peer's
        #: actual liveness (``is_up``) for the false-suspicion counter.
        self.peer_host = peer_host
        self.last_heard: Optional[float] = None
        self.suspected = False
        self.suspected_at: Optional[float] = None
        self._timer = RestartableTimer(sim, self._check, name)
        self._rng = sim.random.stream(f"{HB_METRICS_SCOPE}.{name}") if jitter else None
        metrics = sim.metrics.scope(HB_METRICS_SCOPE)
        self._missed_counter = metrics.counter("heartbeats_missed")
        self._suspicion_counter = metrics.counter("suspicions")
        self._false_suspicion_counter = metrics.counter("false_suspicions")
        #: Intervals this monitor saw pass in silence (monotonic).
        self.missed = 0

    @property
    def timeout(self) -> float:
        return self.threshold * self.interval

    def _arm(self) -> None:
        delay = self.interval
        if self._rng is not None:
            delay += self.interval * self.jitter * (2.0 * self._rng.random() - 1.0)
        self._timer.start(delay)

    def start(self) -> None:
        """Begin monitoring; the peer gets a full timeout of grace."""
        self.last_heard = self.sim.now
        self.suspected = False
        self.suspected_at = None
        self._arm()

    def stop(self) -> None:
        self._timer.cancel()

    def heard(self) -> None:
        """Record evidence of peer liveness (any channel message).  A
        suspicion stands: the power switch makes it correct."""
        self.last_heard = self.sim.now

    def _check(self) -> None:
        # Armed only by start() and by itself; a suspicion does not re-arm.
        silence = self.sim.now - (self.last_heard or 0.0)
        if silence > self.interval:
            # At least one full interval passed without a heartbeat.
            self.missed += 1
            self._missed_counter.inc()
        if silence > self.timeout:
            self.suspected = True
            self.suspected_at = self.sim.now
            self._suspicion_counter.inc()
            peer_alive = self.peer_host is not None and self.peer_host.is_up
            if peer_alive:
                self._false_suspicion_counter.inc()
            trace = self.sim.trace
            if "sttcp" in trace.categories:
                trace.emit(
                    self.sim.now, "sttcp", "suspect", monitor=self.name, silence=silence
                )
            self.on_suspect()
            return
        self._arm()


def heartbeats_sent_counter(sim: Any) -> Any:
    """The shared ``sttcp.hb.heartbeats_sent`` counter (for the senders)."""
    return sim.metrics.scope(HB_METRICS_SCOPE).counter("heartbeats_sent")
