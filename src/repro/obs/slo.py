"""Declarative SLO engine: JSON specs evaluated against run evidence.

An *SLI* (service-level indicator) is a number computed from a run
record — the JSON-able dict a cluster or scale run assembles.  An *SLO*
binds an SLI to an objective and yields a verdict with a **burn rate**:
the fraction of the error budget the run consumed (1.0 = budget exactly
spent, >1.0 = violated).  Specs are plain JSON under ``configs/slo/`` so
a scenario's service-level expectations are reviewable data, not code::

    {"name": "cluster", "slos": [
      {"name": "availability", "sli": "availability",
       "objective": 0.95, "window": 2.0},
      {"name": "takeover-p99", "sli": "takeover_latency",
       "objective": "budget"}]}

The objective ``"budget"`` resolves against the *scenario-derived*
bounds that :mod:`repro.cluster.invariants` computed and embedded into
``record["invariants"]`` (``takeover_budget``) — the engine reuses that
number rather than duplicating the formula, and deliberately reads it
from the record so it works on cached store records with no live
cluster objects (and no ``obs → cluster`` import).

Shipped SLIs
============

``availability``
    ``1 − gap/duration`` per pair, worst pair wins.  With ``window`` W
    the verdict is a windowed burn rate — the worst observed outage
    measured against the outage allowance of a W-second window
    (``gap / ((1 − objective) · W)``) — the standard fast-burn alert
    form; without it, whole-run availability against the objective.
``takeover_latency``
    Crash-to-takeover latency from the record; burn = value/objective.
``exactly_once``
    Fraction of client streams verified exactly-once (no gap, no
    duplicate, no corruption), degraded connections counted as failures.
    On a cluster record it restates an invariant, but scale records carry
    no invariants: there it is the only grader of ``degraded``.
``resource_leaks``
    Leftover TCBs/shadows after the run (scale records); burn is the
    leak count against an allowance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.errors import ConfigurationError

#: value, burn rate, ok, one-line human detail.
SLIVerdict = Tuple[Optional[float], Optional[float], bool, str]


# --------------------------------------------------------------------- spec
@dataclass(frozen=True)
class SLO:
    """One objective bound to one SLI."""

    name: str
    sli: str
    objective: Union[float, str]  # a number, or "budget"
    window: Optional[float] = None
    description: str = ""


@dataclass(frozen=True)
class SLOSpec:
    """A named set of SLOs (one JSON file under ``configs/slo/``)."""

    name: str
    slos: Tuple[SLO, ...]
    description: str = ""


_SLO_KEYS = {"name", "sli", "objective", "window", "description"}
_SPEC_KEYS = {"name", "slos", "description"}


def _require_keys(obj: Dict[str, Any], required: set, allowed: set, what: str) -> None:
    missing = required - set(obj)
    if missing:
        raise ConfigurationError(f"{what}: missing keys {sorted(missing)}")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigurationError(
            f"{what}: unknown keys {sorted(unknown)} (allowed: {sorted(allowed)})"
        )


def spec_from_dict(obj: Dict[str, Any], source: str = "<dict>") -> SLOSpec:
    """Build a spec from parsed JSON, validating loudly."""
    _require_keys(obj, {"name", "slos"}, _SPEC_KEYS, f"SLO spec {source}")
    if not isinstance(obj["slos"], list) or not obj["slos"]:
        raise ConfigurationError(f"SLO spec {source}: 'slos' must be a non-empty list")
    slos: List[SLO] = []
    for index, entry in enumerate(obj["slos"]):
        what = f"SLO spec {source} slos[{index}]"
        if not isinstance(entry, dict):
            raise ConfigurationError(f"{what}: must be an object")
        _require_keys(entry, {"name", "sli", "objective"}, _SLO_KEYS, what)
        if entry["sli"] not in SLI_FUNCTIONS:
            raise ConfigurationError(
                f"{what}: unknown sli {entry['sli']!r} "
                f"(available: {sorted(SLI_FUNCTIONS)})"
            )
        objective = entry["objective"]
        if not (isinstance(objective, (int, float)) or objective == "budget"):
            raise ConfigurationError(
                f"{what}: objective must be a number or \"budget\""
            )
        window = entry.get("window")
        if window is not None and (not isinstance(window, (int, float)) or window <= 0):
            raise ConfigurationError(f"{what}: window must be a positive number")
        slos.append(
            SLO(
                name=entry["name"],
                sli=entry["sli"],
                objective=objective,
                window=window,
                description=entry.get("description", ""),
            )
        )
    return SLOSpec(
        name=obj["name"], slos=tuple(slos), description=obj.get("description", "")
    )


#: Shipped specs live here; bare names and repo-relative paths resolve
#: against it so the CLI works from any working directory.
SLO_DIR = Path(__file__).resolve().parents[3] / "configs" / "slo"


def load_slo_spec(source: Union[str, Path, Dict[str, Any], SLOSpec]) -> SLOSpec:
    """Load a spec from a JSON file path, a parsed dict, or pass through.

    String sources resolve like scenario names: an existing path wins,
    otherwise a shipped spec under ``configs/slo/`` by name
    (``"cluster"`` → ``configs/slo/cluster.json``).
    """
    if isinstance(source, SLOSpec):
        return source
    if isinstance(source, dict):
        return spec_from_dict(source)
    path = Path(source)
    if not path.exists() and not path.is_absolute():
        shipped = SLO_DIR / f"{path.stem}.json"
        if shipped.exists():
            path = shipped
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"SLO spec {path}: invalid JSON ({exc})") from exc
    return spec_from_dict(obj, source=str(path))


# ------------------------------------------------------------------ verdicts
@dataclass
class SLOResult:
    """One SLO's verdict on one run record."""

    name: str
    sli: str
    objective: float
    value: Optional[float]
    burn_rate: Optional[float]
    ok: bool
    window: Optional[float] = None
    detail: str = ""

    def to_record(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "sli": self.sli,
            "objective": self.objective,
            "value": self.value,
            "burn_rate": self.burn_rate,
            "ok": self.ok,
            "window": self.window,
            "detail": self.detail,
        }


@dataclass
class SLOReport:
    """All verdicts of one spec against one run record."""

    spec_name: str
    results: List[SLOResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def failed(self) -> List[SLOResult]:
        return [result for result in self.results if not result.ok]

    @property
    def max_burn(self) -> float:
        burns = [r.burn_rate for r in self.results if r.burn_rate is not None]
        return max(burns) if burns else 0.0

    def to_record(self) -> Dict[str, Any]:
        return {
            "spec": self.spec_name,
            "ok": self.ok,
            "max_burn": self.max_burn,
            "slos": [result.to_record() for result in self.results],
        }


# ----------------------------------------------------------------------- SLIs
def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not math.isnan(value)


def _budget(record: Dict[str, Any], key: str) -> Optional[float]:
    invariants = record.get("invariants") or {}
    budget = invariants.get(key)
    return float(budget) if _is_number(budget) else None


def _sli_availability(
    record: Dict[str, Any], slo: SLO, objective: float
) -> SLIVerdict:
    pairs = [
        p
        for p in record.get("pairs", [])
        if p.get("completed") and _is_number(p.get("total_time"))
    ]
    if not pairs:
        return None, None, False, "no completed pairs to measure"
    worst_gap = 0.0
    worst_avail = 1.0
    for pair in pairs:
        gap = pair.get("max_gap") or 0.0
        total = pair["total_time"]
        if total <= 0:
            continue
        worst_gap = max(worst_gap, gap)
        worst_avail = min(worst_avail, 1.0 - gap / total)
    error_budget = 1.0 - objective
    if slo.window is not None:
        # Fast-burn form: the worst outage against the allowance of one
        # window (an outage longer than the window saturates at the
        # window itself — the budget of that window is fully gone).
        allowance = error_budget * slo.window
        burn = (min(worst_gap, slo.window) / allowance) if allowance > 0 else None
        detail = (
            f"worst outage {worst_gap * 1e3:.1f} ms vs "
            f"{allowance * 1e3:.1f} ms allowed per {slo.window:g} s window"
        )
    else:
        burn = ((1.0 - worst_avail) / error_budget) if error_budget > 0 else None
        detail = f"worst pair availability {worst_avail:.6f} vs {objective:g}"
    ok = burn is not None and burn <= 1.0
    return worst_avail, burn, ok, detail


def _sli_takeover_latency(
    record: Dict[str, Any], slo: SLO, objective: float
) -> SLIVerdict:
    value = record.get("takeover_latency")
    if not _is_number(value):
        return None, None, False, "no takeover_latency observed"
    burn = value / objective if objective > 0 else None
    ok = burn is not None and burn <= 1.0
    return (
        float(value),
        burn,
        ok,
        f"takeover_latency {value * 1e3:.1f} ms vs {objective * 1e3:.1f} ms",
    )


def _sli_exactly_once(
    record: Dict[str, Any], slo: SLO, objective: float
) -> SLIVerdict:
    degraded = record.get("degraded", 0) or 0
    pairs = [p for p in record.get("pairs", []) if p.get("completed") is not None]
    if pairs:
        verified = sum(1 for p in pairs if p.get("verified"))
        value = verified / len(pairs) if pairs else 0.0
        detail = f"{verified}/{len(pairs)} streams verified, {degraded} degraded"
    else:
        # Scale records carry a single aggregated verdict.
        verified_flag = record.get("verified", record.get("clients_verified"))
        if verified_flag is None:
            return None, None, False, "no verification evidence"
        value = 1.0 if verified_flag else 0.0
        detail = f"verified={bool(verified_flag)}, {degraded} degraded"
    if degraded:
        value = 0.0
    error_budget = 1.0 - objective
    if error_budget > 0:
        burn: Optional[float] = (1.0 - value) / error_budget
        ok = burn <= 1.0
    else:
        ok = value >= 1.0
        burn = 0.0 if ok else None
    return value, burn, ok, detail


def _sli_resource_leaks(
    record: Dict[str, Any], slo: SLO, objective: float
) -> SLIVerdict:
    keys = ("leftover_shadows", "leftover_client_tcbs", "leftover_backup_tcbs")
    present = [k for k in keys if _is_number(record.get(k))]
    if not present:
        return None, None, False, "no leak counters in record"
    leaked = float(sum(record[k] for k in present))
    allowance = max(objective, 1.0)
    burn = leaked / allowance
    ok = leaked <= objective
    return leaked, burn, ok, f"{leaked:g} leftover objects vs {objective:g} allowed"


SLIFunction = Callable[[Dict[str, Any], SLO, float], SLIVerdict]

SLI_FUNCTIONS: Dict[str, SLIFunction] = {
    "availability": _sli_availability,
    "takeover_latency": _sli_takeover_latency,
    "exactly_once": _sli_exactly_once,
    "resource_leaks": _sli_resource_leaks,
}

#: Which budget key the ``"budget"`` objective resolves to, per SLI.
_BUDGET_KEYS = {
    "takeover_latency": "takeover_budget",
}


# -------------------------------------------------------------- evaluation
def evaluate_slos(
    spec: Union[SLOSpec, Dict[str, Any], str, Path], record: Dict[str, Any]
) -> SLOReport:
    """Evaluate every SLO of ``spec`` against one run record."""
    spec = load_slo_spec(spec)
    report = SLOReport(spec_name=spec.name)
    for slo in spec.slos:
        if slo.objective == "budget":
            budget_key = _BUDGET_KEYS.get(slo.sli)
            objective = _budget(record, budget_key) if budget_key else None
            if objective is None:
                report.results.append(
                    SLOResult(
                        name=slo.name,
                        sli=slo.sli,
                        objective=float("nan"),
                        value=None,
                        burn_rate=None,
                        ok=False,
                        window=slo.window,
                        detail=(
                            f"objective 'budget' but record carries no "
                            f"{budget_key or 'budget'} (sli {slo.sli})"
                        ),
                    )
                )
                continue
        else:
            objective = float(slo.objective)
        value, burn, ok, detail = SLI_FUNCTIONS[slo.sli](record, slo, objective)
        report.results.append(
            SLOResult(
                name=slo.name,
                sli=slo.sli,
                objective=objective,
                value=value,
                burn_rate=burn,
                ok=ok,
                window=slo.window,
                detail=detail,
            )
        )
    return report


__all__ = [
    "SLI_FUNCTIONS",
    "SLO",
    "SLOReport",
    "SLOResult",
    "SLOSpec",
    "evaluate_slos",
    "load_slo_spec",
    "spec_from_dict",
]
