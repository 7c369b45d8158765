"""Tests for the grade a run record gets: the A/B/C/F ladder and its faults.

The file keeps the name of the health scorecard that used to apply this
ladder; ``repro.obs.slo.grade_record`` is now its only implementation.
"""

import pytest

from repro.obs.slo import exactly_once, grade_record, takeover_latency

SLOS = (
    ("takeover", takeover_latency),
    ("exactly-once", exactly_once),
)


def _entry(client, outcome="completed", detail="", at=1.1):
    return {"client": client, "outcome": outcome, "detail": detail, "at": at}


def _record(**overrides):
    record = {
        "takeover_latency": 0.1,
        "detection_latency": 0.09,
        "degraded": 0,
        "outcomes": [_entry("s0")],
        "pairs": [{"service": "s0", "completed": True, "total_time": 1.0, "max_gap": 0.1}],
        "invariants": {
            "all_hold": True,
            "no_dual_primary": True,
            "takeover_budget": 0.5,
        },
    }
    record.update(overrides)
    return record


class TestGrades:
    def test_grade_a_comfortable_pass(self):
        assert grade_record(_record(), SLOS).letter == "A"  # burn 0.2

    def test_grade_b_tight_pass(self):
        grade = grade_record(_record(takeover_latency=0.4), SLOS)  # burn 0.8
        assert grade.letter == "B" and grade.ok

    def test_grade_c_slo_missed_invariants_hold(self):
        grade = grade_record(_record(takeover_latency=0.9), SLOS)  # budget 0.5
        assert grade.letter == "C" and not grade.ok

    def test_grade_f_invariant_violated(self):
        record = _record()
        record["invariants"].update(all_hold=False, no_dual_primary=False)
        assert grade_record(record, SLOS).letter == "F"

    def test_grade_f_client_failure(self):
        record = _record(outcomes=[_entry("s0", "ConnectionReset", "connection reset by peer")])
        assert grade_record(record, SLOS).letter == "F"

    def test_scale_record_without_invariants_grades_on_slos(self):
        record = {
            "outcomes": [_entry("holder-0"), _entry("churner-0")],
            "degraded": 0,
            "takeover_latency": 0.1,
            "leftover_shadows": 0,
        }
        assert grade_record(record, SLOS).letter == "A"  # 0.1 s of 1 s
        record["outcomes"][0] = _entry("holder-0", "unfinished", at=120.5)
        assert grade_record(record, SLOS).letter == "F"

    def test_empty_record_fails(self):
        grade = grade_record({}, SLOS)
        assert grade.letter == "F"
        assert grade.faults[0] == "no client sessions recorded"

    def test_faults_name_every_miss(self):
        record = _record(
            takeover_latency=0.9,
            outcomes=[_entry("s0", "unfinished", at=20.0)],
        )
        record["invariants"]["no_dual_primary"] = False
        assert grade_record(record, SLOS).faults == (
            "invariant no_dual_primary violated",
            "client s0: unfinished at 20.000000 s",
            "SLO takeover missed: takeover_latency 900.0 ms vs 500.0 ms",
            "SLO exactly-once missed: 0/1 sessions completed, 0 degraded",
        )


class TestScore:
    def test_score_shape(self):
        grade = grade_record(_record(), SLOS)
        assert grade.ok and grade.faults == ()
        assert grade.burn == pytest.approx(0.2)

    def test_nan_latency_becomes_none(self):
        grade = grade_record(_record(takeover_latency=float("nan")), SLOS)
        assert grade.letter == "C"
        assert grade.faults == ("SLO takeover missed: no takeover_latency observed",)
