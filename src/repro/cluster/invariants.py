"""Machine-checked cluster invariants.

A cluster run is only evidence if its safety claims are checked by the
machine, not eyeballed from a log:

* **no dual-primary, ever** — at no simulated instant do two live hosts
  both own a service identity in the active stance (IP configured and
  ARP for it unsuppressed).  Polled by :class:`DualPrimaryMonitor` at a
  granularity well below the failure detector's, so any fencing hole at
  least ``poll_interval`` wide is caught.  The arbiter-sabotage mutation
  test (``tests/cluster/test_mutation.py``) proves the monitor actually
  fires when fencing is disabled.
* **exactly-once byte streams** — every client verifies every echoed
  byte at its expected stream offset (duplication and loss both corrupt
  the verification); checked per pair by the run loop.
* **bounded takeover + election** — detection, fencing, takeover, and
  replacement-backup shadow sync must all complete within budgets
  derived from the scenario's own tunables; computed here from the run
  artefacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.cluster.topology import ClusterFabric


@dataclass
class DualPrimaryViolation:
    time: float
    service: str
    owners: List[str]


class DualPrimaryMonitor:
    """Polls every service identity for multiple active owners.

    A host "actively owns" a service IP when it is up, the IP is local
    (VNIC present), and its ARP service would answer for it — exactly
    the stance a takeover switches on and fencing must make exclusive.
    """

    def __init__(self, fabric: ClusterFabric, poll_interval: float = 0.005) -> None:
        self.fabric = fabric
        self.sim = fabric.sim
        self.poll_interval = poll_interval
        self.violations: List[DualPrimaryViolation] = []
        self.polls = 0
        self._running = False

    def start(self) -> None:
        self._running = True
        self.sim.post(self.sim.now + self.poll_interval, self._poll)

    def stop(self) -> None:
        self._running = False

    def owners_of(self, service: Any) -> List[str]:
        return [
            host.name
            for host in self.fabric.server_hosts
            if host.is_up
            and service.service_ip.value in host.local_ip_values
            and service.service_ip.value not in host.arp.suppressed_ip_values
        ]

    def _poll(self) -> None:
        if not self._running:
            return
        self.polls += 1
        for service in self.fabric.services:
            owners = self.owners_of(service)
            if len(owners) > 1:
                self.violations.append(
                    DualPrimaryViolation(self.sim.now, service.name, owners)
                )
                if self.sim.trace.enabled_for("cluster"):
                    self.sim.trace.emit(
                        self.sim.now,
                        "cluster",
                        "dual_primary",
                        service=service.name,
                        owners=",".join(owners),
                    )
        self.sim.post(self.sim.now + self.poll_interval, self._poll)

    def summary(self) -> Dict[str, Any]:
        return {
            "polls": self.polls,
            "violations": [
                {"time": v.time, "service": v.service, "owners": v.owners}
                for v in self.violations[:16]
            ],
            "violation_count": len(self.violations),
        }


@dataclass
class InvariantReport:
    """The verdict of one cluster run, invariant by invariant."""

    no_dual_primary: bool
    exactly_once_streams: bool
    bounded_takeover: bool
    bounded_election: bool
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def all_hold(self) -> bool:
        return (
            self.no_dual_primary
            and self.exactly_once_streams
            and self.bounded_takeover
            and self.bounded_election
        )

    def to_record(self) -> Dict[str, Any]:
        return {
            "no_dual_primary": self.no_dual_primary,
            "exactly_once_streams": self.exactly_once_streams,
            "bounded_takeover": self.bounded_takeover,
            "bounded_election": self.bounded_election,
            "all_hold": self.all_hold,
            **self.details,
        }


def takeover_budget(config: Any) -> float:
    """The scenario-derived bound on crash → takeover: full detection
    window (3–4 heartbeats, plus jitter), fencing actuation (which the
    arbiter may serialize behind one other fence), and scheduling slack."""
    detection = (config.hb_miss_threshold + 1) * config.hb_interval
    detection *= 1.0 + config.hb_jitter
    return detection + 2 * config.stonith_delay + 0.050


def election_budget(config: Any) -> float:
    """Bound on takeover → replacement shadows synced: the handoff only
    needs quiescence retries plus channel round-trips."""
    return 10 * config.retx_request_timeout + 0.100
