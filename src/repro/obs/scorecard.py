"""Health scorecards: per-scenario grades from SLO verdicts + evidence.

The scorecard is the publishable end of the telemetry stack: one
Markdown + JSON document that grades each scenario run, lists every SLO
verdict with its burn rate, breaks the takeover into phases, and shows
the worst-case causal chain — the artefact the ROADMAP's chaos campaign
publishes per run, and what ``repro health`` emits.

Grades:

=====  ==========================================================
grade  meaning
=====  ==========================================================
A      every SLO met, invariants hold, max burn rate < 0.5
B      every SLO met, invariants hold, but burn ≥ 0.5 (tight)
C      an SLO missed its objective, but no invariant violated
F      an invariant violated or a client stream failed
=====  ==========================================================

Everything here consumes plain run-record dicts (possibly read back
from the content-hashed result store) plus :class:`repro.obs.slo`
reports — no live simulator objects — so scorecards can be regenerated
from cached evidence alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.slo import SLOReport

#: Burn-rate threshold separating a comfortable pass (A) from a tight
#: one (B): half the error budget consumed.
BURN_COMFORT = 0.5


def grade_record(record: Dict[str, Any], slo_report: SLOReport) -> str:
    """Apply the grading ladder (see module docstring)."""
    invariants = record.get("invariants") or {}
    if "all_hold" in invariants:
        invariants_hold = bool(invariants["all_hold"])
    elif "ok" in record:
        invariants_hold = bool(record["ok"])
    else:
        # Scale records carry no invariant report; the client verdict
        # and the SLOs below are the whole story.
        invariants_hold = True
    clients_ok = bool(
        record.get("clients_verified", record.get("verified", False))
    )
    if not invariants_hold or not clients_ok:
        return "F"
    if not slo_report.ok:
        return "C"
    return "A" if slo_report.max_burn < BURN_COMFORT else "B"


@dataclass
class ScenarioScore:
    """One scenario's grade plus the evidence behind it."""

    name: str
    grade: str
    slo: Dict[str, Any]  # SLOReport.to_record()
    invariants: Dict[str, Any]
    takeover_latency: Optional[float]
    detection_latency: Optional[float]
    degraded: int
    cluster_phases: Optional[Dict[str, Any]] = None
    causal_chain: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.grade in ("A", "B")

    def to_record(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "grade": self.grade,
            "ok": self.ok,
            "slo": self.slo,
            "invariants": self.invariants,
            "takeover_latency": self.takeover_latency,
            "detection_latency": self.detection_latency,
            "degraded": self.degraded,
            "cluster_phases": self.cluster_phases,
            "causal_chain": self.causal_chain,
        }


def _number_or_none(value: Any) -> Optional[float]:
    if isinstance(value, (int, float)) and value == value:  # filters NaN
        return float(value)
    return None


def score_record(
    name: str, record: Dict[str, Any], slo_report: SLOReport
) -> ScenarioScore:
    """Grade one run record against its evaluated SLO report."""
    causal = record.get("causal") or {}
    return ScenarioScore(
        name=name,
        grade=grade_record(record, slo_report),
        slo=slo_report.to_record(),
        invariants=dict(record.get("invariants") or {}),
        takeover_latency=_number_or_none(record.get("takeover_latency")),
        detection_latency=_number_or_none(record.get("detection_latency")),
        degraded=int(record.get("degraded", 0) or 0),
        cluster_phases=record.get("cluster_phases"),
        causal_chain=list(causal.get("chain") or []),
    )


@dataclass
class Scorecard:
    """The published document: every scenario's score, one verdict."""

    title: str
    scores: List[ScenarioScore] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.scores) and all(score.ok for score in self.scores)

    def to_json(self) -> Dict[str, Any]:
        return {
            "title": self.title,
            "ok": self.ok,
            "scenarios": [score.to_record() for score in self.scores],
        }

    # ------------------------------------------------------------- markdown
    def render_markdown(self) -> str:
        lines: List[str] = [f"# {self.title}", ""]
        lines.append("| scenario | grade | SLOs met | max burn | takeover | degraded |")
        lines.append("|---|---|---|---|---|---|")
        for score in self.scores:
            slos = score.slo.get("slos", [])
            met = sum(1 for s in slos if s.get("ok"))
            takeover = (
                f"{score.takeover_latency * 1e3:.1f} ms"
                if score.takeover_latency is not None
                else "—"
            )
            lines.append(
                f"| {score.name} | **{score.grade}** | {met}/{len(slos)} "
                f"| {score.slo.get('max_burn', 0.0):.2f} | {takeover} "
                f"| {score.degraded} |"
            )
        lines.append("")
        for score in self.scores:
            lines.extend(self._scenario_section(score))
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(f"**Overall: {verdict}**")
        lines.append("")
        return "\n".join(lines)

    def _scenario_section(self, score: ScenarioScore) -> List[str]:
        lines = [f"## {score.name} — grade {score.grade}", ""]
        lines.append("| SLO | objective | value | burn | verdict | detail |")
        lines.append("|---|---|---|---|---|---|")
        for slo in score.slo.get("slos", []):
            objective = slo.get("objective")
            value = slo.get("value")
            burn = slo.get("burn_rate")
            lines.append(
                "| {name} | {obj} | {val} | {burn} | {verdict} | {detail} |".format(
                    name=slo.get("name"),
                    obj=_fmt(objective),
                    val=_fmt(value),
                    burn=_fmt(burn, "{:.2f}"),
                    verdict="ok" if slo.get("ok") else "**VIOLATED**",
                    detail=slo.get("detail", ""),
                )
            )
        lines.append("")
        phases = (score.cluster_phases or {}).get("phases") or {}
        if phases:
            lines.append("Phases: " + ", ".join(
                f"{name} {info['duration'] * 1e3:.1f} ms"
                for name, info in phases.items()
            ))
            lines.append("")
        if score.causal_chain:
            lines.append("Causal chain:")
            for node in score.causal_chain:
                if node.get("kind") == "span":
                    duration = node.get("duration")
                    timing = (
                        f"{node['begin']:.6f} +{duration * 1e3:.1f} ms"
                        if duration is not None
                        else f"{node['begin']:.6f} (open)"
                    )
                else:
                    timing = f"{node['time']:.6f}"
                lines.append(
                    f"- `{node.get('category')}/{node.get('name')}` {timing}"
                )
            lines.append("")
        return lines


def _fmt(value: Any, fmt: str = "{:g}") -> str:
    if value is None:
        return "—"
    if isinstance(value, float) and value != value:
        return "nan"
    if isinstance(value, (int, float)):
        return fmt.format(value)
    return str(value)


def write_scorecard(
    scorecard: Scorecard, out_dir: Path, basename: str = "scorecard"
) -> Tuple[Path, Path]:
    """Write ``<basename>.md`` and ``<basename>.json``; returns the paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    md_path = out_dir / f"{basename}.md"
    json_path = out_dir / f"{basename}.json"
    md_path.write_text(scorecard.render_markdown())
    json_path.write_text(json.dumps(scorecard.to_json(), indent=1, sort_keys=True) + "\n")
    return md_path, json_path


__all__ = [
    "BURN_COMFORT",
    "ScenarioScore",
    "Scorecard",
    "grade_record",
    "score_record",
    "write_scorecard",
]
