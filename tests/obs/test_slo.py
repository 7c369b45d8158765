"""Tests for the SLIs, their burn rates, and the cluster objectives."""

import pytest

from repro.obs.slo import (
    CLUSTER_SLOS,
    availability,
    exactly_once,
    grade_record,
    resource_leaks,
    takeover_latency,
)


def _entry(client, outcome="completed", at=1.1):
    return {"client": client, "outcome": outcome, "detail": "", "at": at}


def _record(**overrides):
    """A healthy two-pair cluster run record, overridable per test."""
    record = {
        "takeover_latency": 0.2,
        "degraded": 0,
        "outcomes": [_entry("s0"), _entry("s1")],
        "pairs": [
            {"service": "s0", "completed": True, "total_time": 1.0, "max_gap": 0.2},
            {"service": "s1", "completed": True, "total_time": 1.0, "max_gap": 0.01},
        ],
        "elections": [{"service": "s0", "unprotected": []}],
        "invariants": {
            "no_dual_primary": True,
            "takeover_budget": 0.4,
            "dual_primary": {"violation_count": 0},
        },
    }
    record.update(overrides)
    return record


class TestAvailability:
    def test_worst_pair_wins(self):
        result = availability(_record(), 0.75)
        assert result.value == pytest.approx(0.8)  # s0: 1 - 0.2/1.0
        assert result.burn == pytest.approx(0.8)  # 0.2 gap / 0.25 budget
        assert result.ok

    def test_windowed_burn(self):
        result = availability(_record(), 0.75, window=2.0)
        # 200ms outage vs 500ms allowance per 2s window.
        assert result.burn == pytest.approx(0.4)
        assert result.ok

    def test_outage_longer_than_window_saturates(self):
        record = _record()
        record["pairs"][0]["max_gap"] = 0.5  # outage dwarfs the window
        result = availability(record, 0.9, window=0.1)
        assert result.burn == pytest.approx(0.1 / 0.01)
        assert not result.ok

    def test_no_completed_pairs_fails(self):
        result = availability(_record(pairs=[{"completed": False}]), 0.9)
        assert not result.ok and result.value is None


class TestLatencies:
    def test_fixed_objective(self):
        """A record without invariants (a scale rung) is held to 1 s."""
        record = _record()
        del record["invariants"]
        result = takeover_latency(record)
        assert result.value == pytest.approx(0.2)
        assert result.burn == pytest.approx(0.2)
        assert result.ok
        assert not takeover_latency({**record, "takeover_latency": 1.2}).ok

    def test_budget_objective_resolves_from_invariants(self):
        result = takeover_latency(_record())
        assert result.burn == pytest.approx(0.5)  # 0.2 s of the 0.4 s budget
        assert result.ok

    def test_budget_objective_without_budget_fails_loudly(self):
        result = takeover_latency(_record(invariants={}))
        assert not result.ok and result.burn is None
        assert "takeover_budget" in result.detail

    def test_nan_latency_fails(self):
        result = takeover_latency(_record(takeover_latency=float("nan")))
        assert not result.ok and result.value is None


class TestExactlyOnce:
    def test_all_verified(self):
        result = exactly_once(_record())
        assert result.value == 1.0 and result.ok

    def test_degraded_connection_fails(self):
        result = exactly_once(_record(degraded=1))
        assert result.value == 0.0 and not result.ok

    def test_fraction_of_sessions_completed(self):
        result = exactly_once(_record(outcomes=[_entry("s0"), _entry("s1", "unfinished")]))
        assert result.value == 0.5 and not result.ok
        assert result.detail == "1/2 sessions completed, 0 degraded"

    def test_no_ledger_fails(self):
        result = exactly_once(_record(outcomes=[]))
        assert result.value is None and not result.ok


class TestIndicatorSLIs:
    def test_resource_leaks(self):
        record = {
            "leftover_shadows": 0,
            "leftover_client_tcbs": 0,
            "leftover_backup_tcbs": 0,
        }
        assert resource_leaks(record).ok
        record["leftover_shadows"] = 2
        result = resource_leaks(record)
        assert not result.ok and result.value == 2.0

    def test_resource_leaks_without_counters_fails(self):
        assert not resource_leaks({}).ok


class TestReport:
    def test_report_shape_and_max_burn(self):
        grade = grade_record(_record(), CLUSTER_SLOS)
        assert grade.ok and grade.faults == ()
        assert grade.burn == pytest.approx(0.8)  # availability burn
        assert [name for name, _ in CLUSTER_SLOS] == [
            "availability",
            "availability-burn-2s",
            "takeover-within-budget",
            "exactly-once",
        ]

    def test_failed_lists_only_misses(self):
        grade = grade_record(_record(degraded=3), CLUSTER_SLOS)
        assert grade.letter == "C"
        assert grade.faults == (
            "SLO exactly-once missed: 2/2 sessions completed, 3 degraded",
        )
