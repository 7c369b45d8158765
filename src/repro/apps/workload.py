"""Workload definitions and run results for the paper's applications.

Three applications with differing communication behaviour (§6):

* **Echo** — 100 exchanges of a 150-byte message echoed back (telnet-like).
* **Interactive** — 100 exchanges of a 150-byte request answered with
  10 KB (http-like).
* **Bulk transfer** — one 150-byte request answered with a large file of
  1/5/20/100 MB (ftp-like).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.util.units import KB, MB


@dataclasses.dataclass(frozen=True)
class AppWorkload:
    """Parameters of one client/server application run."""

    name: str
    exchanges: int
    response_size: int
    echo: bool = False
    #: Client streams ``response_size`` bytes *to* the server and gets a
    #: 150-byte receipt back (exercises the ST-TCP retention machinery).
    upload: bool = False
    #: Per-request server compute time (identical on every replica, so the
    #: determinism assumption of §3 holds).
    service_time: float = 0.0

    def total_response_bytes(self) -> int:
        from repro.apps.protocol import REQUEST_SIZE

        per_exchange = REQUEST_SIZE if self.echo else self.response_size
        return per_exchange * self.exchanges


def echo_workload(exchanges: int = 100) -> AppWorkload:
    """The Echo application: ~150-byte messages echoed back (§6)."""
    return AppWorkload("echo", exchanges=exchanges, response_size=0, echo=True)


def interactive_workload(
    exchanges: int = 100,
    response_size: int = 10 * KB,
    service_time: float = 0.010,
) -> AppWorkload:
    """The Interactive application: small request, 10 KB reply (§6).

    The default 10 ms service time calibrates the per-exchange latency to
    the paper's 20 ms (Table 1) — the cost of producing a 10 KB reply on
    the testbed's 800 MHz machines with HZ=100 scheduling.
    """
    return AppWorkload(
        "interactive",
        exchanges=exchanges,
        response_size=response_size,
        service_time=service_time,
    )


def bulk_workload(file_size: int = 1 * MB) -> AppWorkload:
    """The Bulk-transfer application: one request, a large file back (§6)."""
    return AppWorkload(f"bulk-{file_size // MB}MB" if file_size >= MB else f"bulk-{file_size}B",
                       exchanges=1, response_size=file_size)


def upload_workload(upload_size: int = 1 * MB, exchanges: int = 1) -> AppWorkload:
    """A client→server bulk upload (not in the paper's evaluation, but the
    workload that actually stresses the §4.2 second receive buffer)."""
    label = f"upload-{upload_size // MB}MB" if upload_size >= MB else f"upload-{upload_size}B"
    return AppWorkload(label, exchanges=exchanges, response_size=upload_size, upload=True)


#: The paper's bulk transfer sizes (Table 1 / Table 2 / Figure 6).
PAPER_BULK_SIZES = (1 * MB, 5 * MB, 20 * MB, 100 * MB)


#: One entry of a run's outcome ledger, ``{client, outcome, detail, at}``:
#: how one client session ended, and when.  ``outcome`` is ``completed``,
#: ``corrupt``, ``unfinished`` (still running when its run stopped waiting)
#: or the class name of the exception that ended the session.
Outcome = Dict[str, Any]
COMPLETED = "completed"


def session_outcome(
    client: str, at: float, error: Optional[str] = None, corrupt: str = "", finished: bool = True
) -> Outcome:
    """Classify one session.  ``error`` is ``"ClassName: message"`` of the
    exception that ended it, and outranks ``corrupt``, which names bytes
    that did not verify."""
    if not finished:
        outcome, detail = "unfinished", ""
    elif error is not None:
        outcome, _, detail = error.partition(": ")
    else:
        outcome, detail = ("corrupt", corrupt) if corrupt else (COMPLETED, "")
    return {"client": client, "outcome": outcome, "detail": detail, "at": at}


def failed_sessions(outcomes: Iterable[Outcome]) -> List[Outcome]:
    """The ledger entries of the sessions that did not complete."""
    return [entry for entry in outcomes if entry["outcome"] != COMPLETED]


def describe_outcome(entry: Outcome) -> str:
    """One entry as a verdict prints it: ``client: outcome[: detail] at T s``."""
    detail = f": {entry['detail']}" if entry["detail"] else ""
    return f"{entry['client']}: {entry['outcome']}{detail} at {entry['at']:.6f} s"


def write_bench_keys(record: Dict[str, Any]) -> None:
    """Restate ``record["outcomes"]`` in the pre-ledger keys the frozen
    ``bench/workloads.py`` reads.  Nothing else reads them; the next
    change to the benchmark drops them with this function."""
    failures = [describe_outcome(entry) for entry in failed_sessions(record["outcomes"])]
    if "pairs" not in record:  # a scale rung
        record.update(verified=not failures, failures=failures)
        return
    record.update(clients_verified=not failures, client_failures=failures)
    for pair, entry in zip(record["pairs"], record["outcomes"]):
        if pair["completed"]:
            pair["verified"] = entry["outcome"] == COMPLETED


@dataclasses.dataclass
class RunResult:
    """Outcome of one client run."""

    workload: AppWorkload
    start_time: float
    end_time: float
    exchanges_done: int
    bytes_received: int
    verified: bool
    bytes_sent: int = 0
    #: (time, cumulative response bytes) checkpoints for gap analysis.
    timeline: List[Tuple[float, int]] = dataclasses.field(default_factory=list)
    error: Optional[str] = None

    @property
    def total_time(self) -> float:
        return self.end_time - self.start_time

    @property
    def max_gap(self) -> float:
        """Longest interval between progress checkpoints — the
        client-visible service interruption."""
        if len(self.timeline) < 2:
            return 0.0
        return max(b[0] - a[0] for a, b in zip(self.timeline, self.timeline[1:]))

    def outcome(self, client: str) -> Outcome:
        """This session's outcome-ledger entry, under the name ``client``."""
        return session_outcome(client, self.end_time, self.error, "" if self.verified else "response")
