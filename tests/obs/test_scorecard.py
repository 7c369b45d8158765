"""Tests for health scorecards: grading ladder, rendering, publication."""

import json

import pytest

from repro.obs.scorecard import (
    Scorecard,
    grade_record,
    score_record,
    write_scorecard,
)
from repro.obs.slo import evaluate_slos, spec_from_dict

SPEC = spec_from_dict(
    {
        "name": "t",
        "slos": [
            {"name": "takeover", "sli": "takeover_latency", "objective": 0.5},
            {"name": "exactly-once", "sli": "exactly_once", "objective": 1.0},
        ],
    }
)


def _record(**overrides):
    record = {
        "takeover_latency": 0.1,
        "detection_latency": 0.09,
        "degraded": 0,
        "clients_verified": True,
        "pairs": [
            {
                "service": "s0",
                "completed": True,
                "verified": True,
                "total_time": 1.0,
                "max_gap": 0.1,
            }
        ],
        "invariants": {"all_hold": True, "no_dual_primary": True},
        "cluster_phases": {
            "phases": {"fence": {"start": 0.6, "end": 0.61, "duration": 0.01}},
            "events": [[0.61, "fenced"]],
        },
        "causal": {
            "flows": 1,
            "chain": [
                {
                    "kind": "span",
                    "category": "cluster",
                    "name": "fence",
                    "begin": 0.6,
                    "end": 0.61,
                    "duration": 0.01,
                },
                {
                    "kind": "event",
                    "category": "failover",
                    "name": "first_ack",
                    "time": 0.62,
                },
            ],
        },
    }
    record.update(overrides)
    return record


def _score(record):
    return score_record("smoke", record, evaluate_slos(SPEC, record))


class TestGrades:
    def test_grade_a_comfortable_pass(self):
        record = _record()  # burn 0.2, everything green
        assert grade_record(record, evaluate_slos(SPEC, record)) == "A"

    def test_grade_b_tight_pass(self):
        record = _record(takeover_latency=0.4)  # burn 0.8 ≥ comfort
        assert grade_record(record, evaluate_slos(SPEC, record)) == "B"

    def test_grade_c_slo_missed_invariants_hold(self):
        record = _record(takeover_latency=0.9)  # objective 0.5 missed
        assert grade_record(record, evaluate_slos(SPEC, record)) == "C"

    def test_grade_f_invariant_violated(self):
        record = _record()
        record["invariants"]["all_hold"] = False
        assert grade_record(record, evaluate_slos(SPEC, record)) == "F"

    def test_grade_f_client_failure(self):
        record = _record(clients_verified=False)
        assert grade_record(record, evaluate_slos(SPEC, record)) == "F"

    def test_scale_record_without_invariants_grades_on_slos(self):
        record = {
            "verified": True,
            "degraded": 0,
            "takeover_latency": 0.1,
            "leftover_shadows": 0,
        }
        report = evaluate_slos(SPEC, record)
        assert grade_record(record, report) == "A"
        record["verified"] = False
        assert grade_record(record, evaluate_slos(SPEC, record)) == "F"

    def test_scale_record_uses_verified_flag(self):
        record = {"verified": True, "ok": True, "takeover_latency": 0.1}
        report = evaluate_slos(SPEC, record)
        assert grade_record(record, report) in ("A", "B", "C")


class TestScore:
    def test_score_shape(self):
        score = _score(_record())
        assert score.name == "smoke" and score.ok
        assert score.takeover_latency == pytest.approx(0.1)
        assert len(score.causal_chain) == 2
        doc = score.to_record()
        assert doc["grade"] == "A" and doc["ok"] is True

    def test_nan_latency_becomes_none(self):
        score = _score(_record(takeover_latency=float("nan")))
        assert score.takeover_latency is None


class TestRendering:
    def test_markdown_sections(self):
        card = Scorecard(title="repro health", scores=[_score(_record())])
        md = card.render_markdown()
        assert md.startswith("# repro health")
        assert "| scenario | grade | SLOs met | max burn | takeover | degraded |" in md
        assert "| smoke | **A** | 2/2 " in md
        assert "## smoke — grade A" in md
        assert "Phases: fence 10.0 ms" in md
        assert "- `cluster/fence` 0.600000 +10.0 ms" in md
        assert "- `failover/first_ack` 0.620000" in md
        assert md.rstrip().endswith("**Overall: PASS**")

    def test_markdown_flags_violations(self):
        record = _record(takeover_latency=0.9)
        card = Scorecard(title="t", scores=[_score(record)])
        md = card.render_markdown()
        assert "**VIOLATED**" in md
        assert "**Overall: FAIL**" in md

    def test_empty_scorecard_fails(self):
        assert not Scorecard(title="t").ok


class TestPublication:
    def test_write_scorecard_round_trip(self, tmp_path):
        card = Scorecard(title="t", scores=[_score(_record())])
        md_path, json_path = write_scorecard(card, tmp_path / "out")
        assert md_path.read_text() == card.render_markdown()
        doc = json.loads(json_path.read_text())
        assert doc["ok"] is True
        assert doc["scenarios"][0]["name"] == "smoke"
        # Deterministic serialisation: keys sorted, trailing newline.
        assert json_path.read_text() == json.dumps(
            card.to_json(), indent=1, sort_keys=True
        ) + "\n"
