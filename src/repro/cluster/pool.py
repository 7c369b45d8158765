"""Backup-pool assignment: which pool host shadows which primary.

The paper dedicates one backup to one primary; a cluster instead keeps a
pool of M backup hosts, each shadowing up to ``capacity`` primaries
(N:K shadowing — every shadowed primary gets its own
:class:`~repro.sttcp.backup.STTCPBackup` engine on the pool host, held
in :attr:`~repro.cluster.topology.PoolNode.shadows`).  This module is
pure bookkeeping: it plans the initial assignment and tracks the pool
through takeovers (a backup that takes over is *consumed* — it is a
primary now and leaves the pool) and elections (an orphaned primary is
reassigned to the least-loaded remaining pool host).

Everything is deterministic: ties break on the pool host's name, so the
same scenario file always produces the same assignment and the same
election outcomes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import ConfigurationError


def plan_assignment(
    services: Sequence[str],
    backups: Sequence[str],
    capacity: int,
) -> Dict[str, List[str]]:
    """Least-loaded round-robin: map each service onto one pool backup.

    Deterministic (ties break on backup name); raises
    :class:`ConfigurationError` when the pool cannot hold all services.
    """
    if capacity < 1:
        raise ConfigurationError(f"backup capacity must be >= 1, got {capacity}")
    if len(services) > len(backups) * capacity:
        raise ConfigurationError(
            f"{len(services)} services do not fit a pool of {len(backups)} "
            f"backups with capacity {capacity}"
        )
    assignment: Dict[str, List[str]] = {name: [] for name in backups}
    for service in services:
        target = min(sorted(assignment), key=lambda name: len(assignment[name]))
        assignment[target].append(service)
    return assignment


class BackupPool:
    """Live pool state: assignments, capacity, consumed hosts, elections."""

    def __init__(self, backups: Iterable[str], capacity: int) -> None:
        self.capacity = capacity
        self.assignments: Dict[str, List[str]] = {name: [] for name in backups}
        #: Hosts consumed by a takeover (now primaries, out of the pool).
        self.consumed: List[str] = []
        self.elections_held = 0
        self.elections_failed = 0

    # Queries ----------------------------------------------------------------------
    def backup_of(self, service: str) -> Optional[str]:
        for name, services in self.assignments.items():
            if service in services:
                return name
        return None

    def load(self, backup: str) -> int:
        return len(self.assignments[backup])

    def free_slots(self) -> int:
        return sum(
            self.capacity - len(services)
            for name, services in self.assignments.items()
            if name not in self.consumed
        )

    # Mutations --------------------------------------------------------------------
    def assign(self, service: str, backup: str) -> None:
        if backup in self.consumed:
            raise ConfigurationError(f"backup {backup!r} was consumed by a takeover")
        if self.load(backup) >= self.capacity:
            raise ConfigurationError(f"backup {backup!r} is at capacity")
        if self.backup_of(service) is not None:
            raise ConfigurationError(f"service {service!r} is already assigned")
        self.assignments[backup].append(service)

    def release(self, service: str) -> Optional[str]:
        """Drop a service from whoever shadows it; returns the ex-backup."""
        backup = self.backup_of(service)
        if backup is not None:
            self.assignments[backup].remove(service)
        return backup

    def consume(self, backup: str) -> List[str]:
        """A takeover consumed ``backup``: remove it from the pool and
        return the services it leaves orphaned (its other assignments)."""
        if backup not in self.assignments:
            raise ConfigurationError(f"unknown backup {backup!r}")
        if backup in self.consumed:
            return []
        self.consumed.append(backup)
        orphaned = list(self.assignments[backup])
        self.assignments[backup] = []
        return orphaned

    def elect(self, service: str, exclude: Sequence[str] = ()) -> Optional[str]:
        """Pick the least-loaded live pool host with a free slot.

        Returns None when the pool is exhausted (the caller records an
        election failure; the affected primary runs non-fault-tolerant).
        """
        self.elections_held += 1
        candidates = [
            name
            for name in sorted(self.assignments)
            if name not in self.consumed
            and name not in exclude
            and self.load(name) < self.capacity
        ]
        if not candidates:
            self.elections_failed += 1
            return None
        winner = min(candidates, key=lambda name: self.load(name))
        self.assignments[winner].append(service)
        return winner

    def summary(self) -> Dict[str, object]:
        return {
            "assignments": {k: list(v) for k, v in sorted(self.assignments.items())},
            "consumed": list(self.consumed),
            "elections_held": self.elections_held,
            "elections_failed": self.elections_failed,
        }
