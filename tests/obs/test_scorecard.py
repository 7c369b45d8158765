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


def _record(**overrides):
    record = {
        "takeover_latency": 0.1,
        "detection_latency": 0.09,
        "degraded": 0,
        "clients_verified": True,
        "client_failures": [],
        "pairs": [
            {
                "service": "s0",
                "completed": True,
                "verified": True,
                "total_time": 1.0,
                "max_gap": 0.1,
            }
        ],
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
        record = _record(clients_verified=False, client_failures=["s0: reset"])
        assert grade_record(record, SLOS).letter == "F"

    def test_scale_record_without_invariants_grades_on_slos(self):
        record = {
            "verified": True,
            "degraded": 0,
            "takeover_latency": 0.1,
            "leftover_shadows": 0,
        }
        assert grade_record(record, SLOS).letter == "A"  # 0.1 s of 1 s
        record["verified"] = False
        assert grade_record(record, SLOS).letter == "F"

    def test_scale_record_uses_verified_flag(self):
        record = {"verified": True, "ok": True, "takeover_latency": 0.1}
        assert grade_record(record, SLOS).letter in ("A", "B", "C")

    def test_empty_record_fails(self):
        grade = grade_record({}, SLOS)
        assert grade.letter == "F"
        assert grade.faults[0] == "client not verified"

    def test_faults_name_every_miss(self):
        record = _record(
            takeover_latency=0.9,
            clients_verified=False,
            client_failures=["s0: client never finished"],
        )
        record["invariants"]["no_dual_primary"] = False
        assert grade_record(record, SLOS).faults == (
            "invariant no_dual_primary violated",
            "client s0: client never finished",
            "SLO takeover missed: takeover_latency 900.0 ms vs 500.0 ms",
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
