"""Tests for the declarative SLO engine: specs, SLIs, burn rates."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.obs.slo import (
    SLO_DIR,
    SLOSpec,
    evaluate_slos,
    load_slo_spec,
    spec_from_dict,
)


def _record(**overrides):
    """A healthy two-pair cluster run record, overridable per test."""
    record = {
        "takeover_latency": 0.2,
        "degraded": 0,
        "clients_verified": True,
        "pairs": [
            {
                "service": "s0",
                "completed": True,
                "verified": True,
                "total_time": 1.0,
                "max_gap": 0.2,
            },
            {
                "service": "s1",
                "completed": True,
                "verified": True,
                "total_time": 1.0,
                "max_gap": 0.01,
            },
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


def _spec(*slos):
    return spec_from_dict({"name": "t", "slos": list(slos)})


def _one(spec, record):
    report = evaluate_slos(spec, record)
    assert len(report.results) == 1
    return report.results[0]


class TestSpecLoading:
    def test_shipped_specs_load_by_name_and_path(self):
        by_name = load_slo_spec("cluster")
        by_path = load_slo_spec(SLO_DIR / "cluster.json")
        assert isinstance(by_name, SLOSpec)
        assert by_name.name == by_path.name == "cluster"
        assert load_slo_spec("configs/slo/scale.json").name == "scale"

    def test_spec_passthrough(self):
        spec = load_slo_spec("cluster")
        assert load_slo_spec(spec) is spec

    def test_missing_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="missing keys"):
            spec_from_dict({"name": "x"})
        with pytest.raises(ConfigurationError, match="missing keys"):
            _spec({"name": "a", "sli": "availability"})

    def test_unknown_keys_and_sli_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown keys"):
            spec_from_dict({"name": "x", "slos": [], "bogus": 1})
        with pytest.raises(ConfigurationError, match="unknown sli"):
            _spec({"name": "a", "sli": "nope", "objective": 1})
        with pytest.raises(ConfigurationError, match="unknown sli"):
            _spec({"name": "a", "sli": "election_sync_p99", "objective": "budget"})

    def test_bad_objective_and_window_rejected(self):
        with pytest.raises(ConfigurationError, match="objective"):
            _spec({"name": "a", "sli": "availability", "objective": "nope"})
        with pytest.raises(ConfigurationError, match="window"):
            _spec(
                {"name": "a", "sli": "availability", "objective": 0.9, "window": -1}
            )

    def test_empty_slos_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            spec_from_dict({"name": "x", "slos": []})


class TestAvailability:
    def test_worst_pair_wins(self):
        slo = {"name": "a", "sli": "availability", "objective": 0.75}
        result = _one(_spec(slo), _record())
        assert result.value == pytest.approx(0.8)  # s0: 1 - 0.2/1.0
        assert result.burn_rate == pytest.approx(0.8)  # 0.2 gap / 0.25 budget
        assert result.ok

    def test_windowed_burn(self):
        slo = {
            "name": "a",
            "sli": "availability",
            "objective": 0.75,
            "window": 2.0,
        }
        result = _one(_spec(slo), _record())
        # 200ms outage vs 500ms allowance per 2s window.
        assert result.burn_rate == pytest.approx(0.4)
        assert result.ok

    def test_outage_longer_than_window_saturates(self):
        slo = {
            "name": "a",
            "sli": "availability",
            "objective": 0.9,
            "window": 0.1,
        }
        record = _record()
        record["pairs"][0]["max_gap"] = 0.5  # outage dwarfs the window
        result = _one(_spec(slo), record)
        assert result.burn_rate == pytest.approx(0.1 / 0.01)
        assert not result.ok

    def test_no_completed_pairs_fails(self):
        slo = {"name": "a", "sli": "availability", "objective": 0.9}
        result = _one(_spec(slo), _record(pairs=[{"completed": False}]))
        assert not result.ok and result.value is None


class TestLatencies:
    def test_fixed_objective(self):
        slo = {"name": "t", "sli": "takeover_latency", "objective": 0.5}
        result = _one(_spec(slo), _record())
        assert result.value == pytest.approx(0.2)
        assert result.burn_rate == pytest.approx(0.4)
        assert result.ok

    def test_budget_objective_resolves_from_invariants(self):
        slo = {"name": "t", "sli": "takeover_latency", "objective": "budget"}
        result = _one(_spec(slo), _record())
        assert result.objective == pytest.approx(0.4)
        assert result.burn_rate == pytest.approx(0.5)
        assert result.ok

    def test_budget_objective_without_budget_fails_loudly(self):
        slo = {"name": "t", "sli": "takeover_latency", "objective": "budget"}
        result = _one(_spec(slo), _record(invariants={}))
        assert not result.ok
        assert math.isnan(result.objective)
        assert "budget" in result.detail

    def test_nan_latency_fails(self):
        slo = {"name": "t", "sli": "takeover_latency", "objective": 0.5}
        result = _one(_spec(slo), _record(takeover_latency=float("nan")))
        assert not result.ok and result.value is None


class TestExactlyOnce:
    def test_all_verified(self):
        slo = {"name": "x", "sli": "exactly_once", "objective": 1.0}
        result = _one(_spec(slo), _record())
        assert result.value == 1.0 and result.ok

    def test_degraded_connection_fails(self):
        slo = {"name": "x", "sli": "exactly_once", "objective": 1.0}
        result = _one(_spec(slo), _record(degraded=1))
        assert result.value == 0.0 and not result.ok

    def test_scale_record_flag(self):
        slo = {"name": "x", "sli": "exactly_once", "objective": 1.0}
        record = {"verified": True, "degraded": 0}
        assert _one(_spec(slo), record).ok
        record = {"verified": False, "degraded": 0}
        assert not _one(_spec(slo), record).ok


class TestIndicatorSLIs:
    def test_resource_leaks(self):
        slo = {"name": "l", "sli": "resource_leaks", "objective": 0}
        record = {
            "leftover_shadows": 0,
            "leftover_client_tcbs": 0,
            "leftover_backup_tcbs": 0,
        }
        assert _one(_spec(slo), record).ok
        record["leftover_shadows"] = 2
        result = _one(_spec(slo), record)
        assert not result.ok and result.value == 2.0

    def test_resource_leaks_without_counters_fails(self):
        slo = {"name": "l", "sli": "resource_leaks", "objective": 0}
        assert not _one(_spec(slo), {}).ok


class TestReport:
    def test_report_shape_and_max_burn(self):
        report = evaluate_slos("cluster", _record())
        assert report.ok
        assert report.max_burn == pytest.approx(0.8)  # availability burn
        doc = report.to_record()
        assert doc["spec"] == "cluster"
        assert doc["ok"] is True
        assert len(doc["slos"]) == 4
        assert all(
            set(s)
            >= {"name", "sli", "objective", "value", "burn_rate", "ok", "detail"}
            for s in doc["slos"]
        )

    def test_failed_lists_only_misses(self):
        record = _record(degraded=3)
        report = evaluate_slos("cluster", record)
        assert not report.ok
        assert [r.name for r in report.failed] == ["exactly-once"]
