"""Fabric-level STONITH: one arbiter, many possible victims.

:class:`~repro.sttcp.power_switch.PowerSwitch` models the paper's
per-pair controllable relay.  A cluster has many pairs but (realistic
for a rack) one fencing actuator, so concurrent fence requests — a
heartbeat storm making several backups suspect several primaries at
once — must be *serialized*: the relay actuates one cut at a time, and
duplicate requests for a host already being fenced coalesce onto the
in-flight cut instead of queueing a second one.

The arbiter duck-types the power switch (``cut_power(host, done)``), so
every :class:`~repro.sttcp.backup.STTCPBackup` engine in the fabric can
be handed the same arbiter where a pair scenario would pass its private
switch.  ``sabotaged`` disables the actuator while still acknowledging
requests — the mutation hook that lets a drill prove the dual-primary
invariant actually depends on fencing (see
``tests/cluster/test_mutation.py``).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

Done = Callable[[], None]


class ClusterArbiter:
    """Serialized, coalescing STONITH for a whole fabric."""

    def __init__(self, sim: Any, actuation_delay: float = 0.010) -> None:
        self.sim = sim
        self.actuation_delay = actuation_delay
        #: Mutation hook: acknowledge fence requests without cutting power.
        self.sabotaged = False
        self._queue: Deque[Tuple[Any, List[Done]]] = deque()
        #: host id → pending done-callback list (for coalescing).
        self._pending: Dict[int, List[Done]] = {}
        self._busy = False
        self.fence_requests = 0
        self.cuts_performed = 0
        self.requests_coalesced = 0
        self.max_queue_depth = 0

    def cut_power(self, host: Any, done: Optional[Done] = None) -> None:
        """Request a fence of ``host``; ``done`` fires once the relay has
        actuated that host's cut (or the coalesced one already in line)."""
        self.fence_requests += 1
        trace = self.sim.trace
        if "cluster" in trace.categories:
            trace.emit(self.sim.now, "cluster", "fence_requested", host=host.name)
        waiters = self._pending.get(id(host))
        if waiters is not None:
            # Storm coalescing: this host is already queued or in flight.
            self.requests_coalesced += 1
            if done is not None:
                waiters.append(done)
            return
        waiters = [] if done is None else [done]
        self._pending[id(host)] = waiters
        self._queue.append((host, waiters))
        self.max_queue_depth = max(self.max_queue_depth, len(self._queue))
        if not self._busy:
            self._actuate_next()

    def _actuate_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        host, waiters = self._queue.popleft()
        self.sim.post(self.sim.now + self.actuation_delay, self._actuated, host, waiters)

    def _actuated(self, host: Any, waiters: List[Done]) -> None:
        self._pending.pop(id(host), None)
        if self.sabotaged:
            if "cluster" in self.sim.trace.categories:
                self.sim.trace.emit(
                    self.sim.now, "cluster", "fence_sabotaged", host=host.name
                )
        else:
            if host.is_up:
                host.crash()
            self.cuts_performed += 1
            if "cluster" in self.sim.trace.categories:
                self.sim.trace.emit(self.sim.now, "cluster", "fenced", host=host.name)
        for done in waiters:
            done()
        self._actuate_next()
