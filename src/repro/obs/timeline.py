"""Failover timeline reconstruction — the paper's phase decomposition.

Figure 5/6 of the paper explain a failover as phases: the primary fails,
the backup *detects* the silence, *takes over* the connections, and the
client recovers once its next *retransmission is accepted* by the new
primary.  This module derives that decomposition for any traced run from
a handful of cold-path markers:

=====================  ==========================================
record                 meaning
=====================  ==========================================
app/client_progress    the client made byte progress (checkpoints)
host/crash             the primary lost power (annotation only)
sttcp/primary_suspected  heartbeat silence crossed the threshold
sttcp/takeover         the backup became the primary
failover/first_ack     first client retransmission accepted
=====================  ==========================================

The outage window is anchored on **client progress**: the longest gap
between consecutive ``client_progress`` checkpoints is, by construction,
exactly :attr:`RunResult.max_gap` — so the phase durations sum to the
measured client-visible outage *by identity*, not by coincidence.  The
crash itself is reported as an annotation inside the detection phase
(the client keeps eating buffered bytes for a moment after the power
goes out, which is why the outage starts at its last progress, not at
the crash).  A stream whose markers are out of that order — the client
never made progress again after the takeover — has no decomposition.

:class:`TimelineCollector` subscribes to cold categories only, so it can
be left attached to every harness run without waking the hot ``tcp`` /
``link`` emit paths (their ``trace.categories`` guards still see no sink).
It also keeps ``nic`` records, which only a NIC loss model or a full RX
queue emits: the frames a lossy tap dropped (``repro explain`` names
them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.trace import TraceRecord, Tracer

#: Categories the collector subscribes to — cold paths only.
TIMELINE_CATEGORIES = ("host", "sttcp", "app", "failover", "cluster", "nic")

#: Cluster-level phase names (fabric work around the per-pair failover).
PHASE_FENCE = "fence"
PHASE_ELECTION = "election"

#: Phase names, in order (recovery replaces rto_wait+resume when the
#: first-retransmission marker is unavailable).
PHASE_DETECTION = "detection"
PHASE_TAKEOVER = "takeover"
PHASE_RTO_WAIT = "rto_wait"
PHASE_RESUME = "resume"
PHASE_RECOVERY = "recovery"


@dataclass
class Phase:
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def _phase_lines(phases: List[Phase], events: List[Tuple[float, str]]) -> List[str]:
    """One line per phase and per point event, interleaved in time order."""
    width = max((len(p.name) for p in phases), default=8)
    rows = [
        (
            p.start,
            f"  phase {p.name:<{width}} {p.start:.6f} → {p.end:.6f}  "
            f"({p.duration * 1e3:9.3f} ms)",
        )
        for p in phases
    ]
    rows += [(time, f"  event {label:<{width}} {time:.6f}") for time, label in events]
    rows.sort(key=lambda row: row[0])
    return [text for _, text in rows]


@dataclass
class FailoverTimeline:
    """One reconstructed failover: the outage window, its phases, and
    the point events annotating them."""

    outage_start: float
    outage_end: float
    phases: List[Phase]
    #: (time, label) annotations — crash, suspicion, takeover, first ack.
    events: List[Tuple[float, str]] = field(default_factory=list)

    @property
    def outage(self) -> float:
        """The client-visible service interruption (== RunResult.max_gap)."""
        return self.outage_end - self.outage_start

    def phase(self, name: str) -> Optional[Phase]:
        for phase in self.phases:
            if phase.name == name:
                return phase
        return None

    def summary(self) -> Dict[str, Any]:
        """JSON-ready summary for the result store."""
        return {
            "outage": self.outage,
            "outage_start": self.outage_start,
            "outage_end": self.outage_end,
            "phases": {p.name: p.duration for p in self.phases},
            "events": {label: time for time, label in self.events},
        }

    def render(self) -> str:
        """Text timeline, one line per phase, annotations interleaved."""
        lines = [
            f"failover timeline: client outage {self.outage * 1e3:.1f} ms "
            f"({self.outage_start:.6f} → {self.outage_end:.6f})",
            *_phase_lines(self.phases, self.events),
        ]
        total = sum(p.duration for p in self.phases)
        lines.append(f"  sum of phases: {total * 1e3:.1f} ms (= client-visible outage)")
        return "\n".join(lines)


class TimelineCollector:
    """Trace sink collecting the cold-path markers a timeline needs.

    Attach to a tracer (subscribes to :data:`TIMELINE_CATEGORIES` only),
    run the scenario, then call :meth:`reconstruct`.
    """

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []
        self._tracer: Optional[Tracer] = None

    def attach(self, tracer: Tracer) -> "TimelineCollector":
        tracer.add_sink(self, categories=list(TIMELINE_CATEGORIES))
        self._tracer = tracer
        return self

    def detach(self) -> None:
        if self._tracer is not None:
            self._tracer.remove_sink(self)
            self._tracer = None

    def __call__(self, record: TraceRecord) -> None:
        self.records.append(record)

    def reconstruct(self) -> Optional[FailoverTimeline]:
        return reconstruct_failover(self.records)


def _first(
    records: List[TraceRecord], category: str, event: str, at_or_after: float = 0.0
) -> Optional[TraceRecord]:
    for record in records:
        if (
            record.category == category
            and record.event == event
            and record.time >= at_or_after
        ):
            return record
    return None


def reconstruct_failover(records: List[TraceRecord]) -> Optional[FailoverTimeline]:
    """Derive the phase decomposition from a record stream.

    Returns None when the stream holds no reconstructible failover: no
    takeover happened, there are too few client checkpoints to locate an
    outage window, or the markers do not fall in the order
    ``outage_start ≤ suspicion ≤ takeover ≤ outage_end`` (a client that
    never recovered: its longest gap closed before the takeover, and a
    phase would come out negative).
    """
    progress = [r.time for r in records if r.category == "app" and r.event == "client_progress"]
    if len(progress) < 2:
        return None
    suspected = _first(records, "sttcp", "primary_suspected")
    takeover = _first(records, "sttcp", "takeover")
    if suspected is None or takeover is None:
        return None

    # The outage window: the longest inter-checkpoint gap — identical to
    # RunResult.max_gap because the checkpoints are the same events.
    gap_index = max(
        range(len(progress) - 1), key=lambda i: progress[i + 1] - progress[i]
    )
    outage_start = progress[gap_index]
    outage_end = progress[gap_index + 1]
    if not outage_start <= suspected.time <= takeover.time <= outage_end:
        return None

    events: List[Tuple[float, str]] = []
    crash = _first(records, "host", "crash")
    if crash is not None:
        events.append((crash.time, "crash"))
    events.append((suspected.time, "suspected"))
    events.append((takeover.time, "takeover"))

    phases = [Phase(PHASE_DETECTION, outage_start, suspected.time)]
    phases.append(Phase(PHASE_TAKEOVER, suspected.time, takeover.time))
    first_ack = _first(records, "failover", "first_ack", at_or_after=takeover.time)
    if first_ack is not None and first_ack.time <= outage_end:
        events.append((first_ack.time, "first_ack"))
        phases.append(Phase(PHASE_RTO_WAIT, takeover.time, first_ack.time))
        phases.append(Phase(PHASE_RESUME, first_ack.time, outage_end))
    else:
        phases.append(Phase(PHASE_RECOVERY, takeover.time, outage_end))
    return FailoverTimeline(
        outage_start=outage_start,
        outage_end=outage_end,
        phases=phases,
        events=events,
    )


@dataclass
class ClusterPhases:
    """Fabric-level phase decomposition of a cluster takeover.

    The per-pair :class:`FailoverTimeline` explains the *client's* view;
    this explains the *fleet's*: when the arbiter fenced the suspect
    (fence → STONITH actuation) and when the coordinator elected
    replacement backups.  Phases may overlap — elections begin while the
    fence actuation is still queued — so they are reported as absolute
    windows, not a stack.
    """

    phases: List[Phase]
    #: (time, label) point annotations (fences, per-service elections).
    events: List[Tuple[float, str]] = field(default_factory=list)

    def phase(self, name: str) -> Optional[Phase]:
        for phase in self.phases:
            if phase.name == name:
                return phase
        return None

    def summary(self) -> Dict[str, Any]:
        """JSON-ready summary for the cluster run record."""
        return {
            "phases": {
                p.name: {"start": p.start, "end": p.end, "duration": p.duration}
                for p in self.phases
            },
            "events": [[time, label] for time, label in self.events],
        }

    def render(self) -> str:
        """Text rendering, one line per phase, annotations interleaved."""
        return "\n".join(["cluster phases:", *_phase_lines(self.phases, self.events)])


def reconstruct_cluster_phases(
    records: List[TraceRecord],
) -> Optional[ClusterPhases]:
    """Derive fence → election windows from cluster records.

    Anchors (all cold-path ``cluster`` category, emitted by the arbiter
    and the election coordinator):

    ==========================  =======================================
    record                      meaning
    ==========================  =======================================
    cluster/fence_requested     STONITH requested for a suspect host
    cluster/fenced              the actuation landed (power cut)
    cluster/election_begin      a takeover consumed a pool backup
    cluster/elected             a replacement backup won its election
    ==========================  =======================================

    Returns None when no fence was ever requested and no election began
    (the stream is not a cluster takeover).
    """
    def times(event: str) -> List[float]:
        return [
            r.time
            for r in records
            if r.category == "cluster" and r.event == event
        ]

    fence_requests = times("fence_requested")
    fenced = times("fenced")
    election_begins = times("election_begin")
    elected = times("elected") + times("election_exhausted")
    if not fence_requests and not election_begins:
        return None

    phases: List[Phase] = []
    events: List[Tuple[float, str]] = []
    if fence_requests:
        fence_end = max(fenced) if fenced else max(fence_requests)
        phases.append(Phase(PHASE_FENCE, min(fence_requests), fence_end))
        for time in fenced:
            events.append((time, "fenced"))
    if election_begins:
        election_end = max(elected) if elected else max(election_begins)
        phases.append(Phase(PHASE_ELECTION, min(election_begins), election_end))
        for time in elected:
            events.append((time, "elected"))
    return ClusterPhases(phases=phases, events=events)
