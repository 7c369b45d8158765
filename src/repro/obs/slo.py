"""Service-level indicators, and the one grade a run record gets.

An *SLI* is a number computed from a run record — the plain dict a
cluster scenario or a scale rung returns, fresh or read back from the
result store.  Held to an objective it yields a :class:`Verdict` with a
**burn rate**: the fraction of the error budget the run consumed (1.0 =
budget exactly spent, >1.0 = missed).  :data:`CLUSTER_SLOS` and
:data:`SCALE_SLOS` bind the SLIs to the objectives the ``cluster`` and
``scale`` verbs are held to, and :func:`grade_record` turns one record
into one grade:

=====  ==========================================================
grade  meaning
=====  ==========================================================
A      every SLO met, invariants hold, max burn rate < 0.5
B      every SLO met, invariants hold, but burn ≥ 0.5 (tight)
C      an SLO missed its objective, but no invariant violated
F      an invariant violated or a client session did not complete
=====  ==========================================================

The exactly-once SLI and the F grade read only the record's ``outcomes``
ledger.  A grade is computed when a record is printed and never stored
in it.  Everything here reads the record alone — no live simulator
objects and no ``obs → cluster`` import.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.apps.workload import describe_outcome, failed_sessions

Record = Dict[str, Any]

#: Burn-rate threshold separating a comfortable pass (A) from a tight
#: one (B): half the error budget consumed.
BURN_COMFORT = 0.5


class Verdict(NamedTuple):
    """One SLI measured against one objective."""

    value: Optional[float]
    burn: Optional[float]
    ok: bool
    detail: str


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not math.isnan(value)


def availability(
    record: Record, objective: float, window: Optional[float] = None
) -> Verdict:
    """``1 − gap/duration`` per pair, worst pair wins.  With ``window`` W
    the burn is the standard fast-burn form: the worst outage against the
    outage allowance of one W-second window, ``gap / ((1 − objective)·W)``;
    without it, whole-run availability against the objective."""
    pairs = [p for p in record.get("pairs", []) if p.get("completed") and _is_number(p.get("total_time"))]
    if not pairs:
        return Verdict(None, None, False, "no completed pairs to measure")
    worst_gap, worst_avail = 0.0, 1.0
    for pair in pairs:
        gap = pair.get("max_gap") or 0.0
        total = pair["total_time"]
        if total <= 0:
            continue
        worst_gap = max(worst_gap, gap)
        worst_avail = min(worst_avail, 1.0 - gap / total)
    error_budget = 1.0 - objective
    if window is not None:
        # An outage longer than the window spends that window's budget once.
        allowance = error_budget * window
        burn = (min(worst_gap, window) / allowance) if allowance > 0 else None
        detail = (
            f"worst outage {worst_gap * 1e3:.1f} ms vs "
            f"{allowance * 1e3:.1f} ms allowed per {window:g} s window"
        )
    else:
        burn = ((1.0 - worst_avail) / error_budget) if error_budget > 0 else None
        detail = f"worst pair availability {worst_avail:.6f} vs {objective:g}"
    ok = burn is not None and burn <= 1.0
    return Verdict(worst_avail, burn, ok, detail)


def takeover_latency(record: Record) -> Verdict:
    """Crash-to-takeover latency against the ``takeover_budget`` that
    :mod:`repro.cluster.invariants` embeds in a cluster record, or against
    1 s on a record with no invariants (a scale rung)."""
    if "invariants" in record:
        objective = (record["invariants"] or {}).get("takeover_budget")
        if not _is_number(objective):
            return Verdict(None, None, False, "record carries no takeover_budget")
    else:
        objective = 1.0
    value = record.get("takeover_latency")
    if not _is_number(value):
        return Verdict(None, None, False, "no takeover_latency observed")
    burn = value / objective if objective > 0 else None
    return Verdict(
        float(value),
        burn,
        burn is not None and burn <= 1.0,
        f"takeover_latency {value * 1e3:.1f} ms vs {objective * 1e3:.1f} ms",
    )


def exactly_once(record: Record) -> Verdict:
    """Fraction of the outcome ledger's client sessions that completed
    with every byte verified; any degraded connection zeroes it."""
    outcomes = record.get("outcomes") or []
    if not outcomes:
        return Verdict(None, None, False, "no client sessions recorded")
    degraded = record.get("degraded", 0) or 0
    completed = len(outcomes) - len(failed_sessions(outcomes))
    value = 0.0 if degraded else completed / len(outcomes)
    ok = value >= 1.0
    detail = f"{completed}/{len(outcomes)} sessions completed, {degraded} degraded"
    return Verdict(value, 0.0 if ok else None, ok, detail)


def resource_leaks(record: Record) -> Verdict:
    """Leftover TCBs and shadows after the run (scale records); none is
    allowed."""
    keys = ("leftover_shadows", "leftover_client_tcbs", "leftover_backup_tcbs")
    present = [k for k in keys if _is_number(record.get(k))]
    if not present:
        return Verdict(None, None, False, "no leak counters in record")
    leaked = float(sum(record[k] for k in present))
    return Verdict(leaked, leaked, leaked == 0, f"{leaked:g} leftover objects vs 0 allowed")


#: ``(name, SLI bound to its objective)`` pairs, in report order.
Objectives = Tuple[Tuple[str, Callable[[Record], Verdict]], ...]

#: What every ``cluster`` scenario is held to.  Scenario runs are short,
#: so one bounded takeover outage dominates whole-run availability; the
#: 2 s window asks the worst outage to fit that window's 500 ms allowance.
CLUSTER_SLOS: Objectives = (
    ("availability", partial(availability, objective=0.75)),
    ("availability-burn-2s", partial(availability, objective=0.75, window=2.0)),
    ("takeover-within-budget", takeover_latency),
    ("exactly-once", exactly_once),
)

#: What every ``scale`` rung is held to: the mass takeover inside 1 s,
#: every surviving flow exactly-once, nothing left behind after reaping.
SCALE_SLOS: Objectives = (
    ("takeover-under-1s", takeover_latency),
    ("exactly-once", exactly_once),
    ("no-leaks", resource_leaks),
)


class Grade(NamedTuple):
    """One record's grade, its worst burn, and why it is not an A or B:
    one line per violated invariant, failed client session or missed SLO."""

    letter: str
    burn: float
    faults: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.letter in ("A", "B")


def grade_record(record: Record, slos: Objectives) -> Grade:
    """Apply the grading ladder (see module docstring)."""
    faults: List[str] = [
        f"invariant {name} violated"
        for name, held in (record.get("invariants") or {}).items()
        if held is False and name != "all_hold"
    ]
    outcomes = record.get("outcomes") or []
    faults.extend(f"client {describe_outcome(entry)}" for entry in failed_sessions(outcomes))
    if not outcomes:
        faults.append("no client sessions recorded")
    broken = bool(faults)
    burns = []
    for name, sli in slos:
        verdict = sli(record)
        if verdict.burn is not None:
            burns.append(verdict.burn)
        if not verdict.ok:
            faults.append(f"SLO {name} missed: {verdict.detail}")
    burn = max(burns, default=0.0)
    if broken:
        letter = "F"
    elif faults:
        letter = "C"
    else:
        letter = "A" if burn < BURN_COMFORT else "B"
    return Grade(letter, burn, tuple(faults))

