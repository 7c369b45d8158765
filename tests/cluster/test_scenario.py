"""Scenario loading: schema validation fails loudly, round-trips cleanly."""

import dataclasses
import json

import pytest

from repro.cluster.scenario import load_scenario, spec_from_dict, spec_from_params
from repro.errors import ConfigurationError

MINIMAL = {"name": "t", "primaries": 2, "backups": 2}


def test_minimal_document_fills_defaults():
    spec = spec_from_dict(MINIMAL)
    assert spec.capacity == 1
    assert spec.service_names() == ["s0", "s1"]
    assert spec.backup_names() == ["pool0", "pool1"]
    assert spec.sttcp_config(1).channel_port == 39001


def test_params_round_trip():
    spec = spec_from_dict(
        {
            **MINIMAL,
            "capacity": 2,
            "sttcp": {"hb_interval": 0.04},
            "workload": {"exchanges": 50, "service_time": 0.01},
            "crash": {"primary": 1, "at": 0.3},
            "arbiter": {"actuation_delay": 0.02, "sabotaged": True},
        }
    )
    rebuilt = spec_from_params(json.loads(json.dumps(spec.params())))
    assert rebuilt == spec


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigurationError, match="unknown scenario key"):
        spec_from_dict({**MINIMAL, "primarys": 3})


def test_unknown_sttcp_key_rejected():
    with pytest.raises(ConfigurationError, match="unknown sttcp key"):
        spec_from_dict({**MINIMAL, "sttcp": {"hb_intervall": 0.1}})


def test_channel_port_not_scriptable():
    # Per-service ports are derived; a scenario overriding them could
    # alias two engines onto one socket.
    with pytest.raises(ConfigurationError):
        spec_from_dict({**MINIMAL, "sttcp": {"channel_port": 40000}})


def test_pool_must_fit():
    with pytest.raises(ConfigurationError, match="do not fit"):
        spec_from_dict({"name": "t", "primaries": 5, "backups": 2, "capacity": 2})


def test_crash_primary_in_range():
    with pytest.raises(ConfigurationError, match="crash.primary"):
        spec_from_dict({**MINIMAL, "crash": {"primary": 2}})


@pytest.mark.parametrize(
    "document, key",
    [
        ({"primaries": "two"}, "primaries"),
        ({"assignment": ["pool0"]}, "assignment"),
        ({"crash": {"at": "soon"}}, "crash.at"),
        ({"sttcp": {"hb_interval": "fast"}}, "sttcp.hb_interval"),
        ({"sttcp": {"hb_interval": -1.0}}, "hb_interval"),
        ({"workload": []}, "workload"),
        ({"arbiter": {"sabotaged": 1}}, "arbiter.sabotaged"),
        ({"seed": True}, "seed"),
    ],
)
def test_wrongly_typed_value_names_its_key(document, key):
    with pytest.raises(ConfigurationError, match=key):
        spec_from_dict({**MINIMAL, **document})


def test_unknown_profile_rejected():
    with pytest.raises(ConfigurationError, match="unknown profile"):
        spec_from_dict({**MINIMAL, "profile": "wan"})


class TestAssignmentValidation:
    BASE = {"name": "t", "primaries": 2, "backups": 2, "capacity": 2}

    def test_explicit_assignment_accepted(self):
        spec = spec_from_dict(
            {**self.BASE, "assignment": {"pool0": ["s0", "s1"], "pool1": []}}
        )
        assert spec.assignment == {"pool0": ["s0", "s1"], "pool1": []}

    def test_unknown_backup_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backup"):
            spec_from_dict({**self.BASE, "assignment": {"pool9": ["s0"]}})

    def test_unknown_service_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown service"):
            spec_from_dict(
                {**self.BASE, "assignment": {"pool0": ["s7"], "pool1": ["s0", "s1"]}}
            )

    def test_double_assignment_rejected(self):
        with pytest.raises(ConfigurationError, match="assigned twice"):
            spec_from_dict(
                {**self.BASE, "assignment": {"pool0": ["s0"], "pool1": ["s0", "s1"]}}
            )

    def test_overload_rejected(self):
        with pytest.raises(ConfigurationError, match="overloads"):
            spec_from_dict(
                {
                    "name": "t",
                    "primaries": 3,
                    "backups": 3,
                    "assignment": {"pool0": ["s0", "s1"], "pool1": ["s2"], "pool2": []},
                }
            )

    def test_unshadowed_service_rejected(self):
        with pytest.raises(ConfigurationError, match="unshadowed"):
            spec_from_dict({**self.BASE, "assignment": {"pool0": ["s0"], "pool1": []}})


def test_shipped_scenarios_load():
    from pathlib import Path

    shipped = Path(__file__).parent.parent.parent / "configs" / "cluster"
    names = sorted(p.stem for p in shipped.glob("*.json"))
    assert names == ["smoke", "storm", "trio"]
    for path in shipped.glob("*.json"):
        spec = load_scenario(path)
        assert spec.name == path.stem


def test_load_errors_carry_the_path(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigurationError, match="bad.json"):
        load_scenario(bad)
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"name": "x", "primaries": 1}))
    with pytest.raises(ConfigurationError, match="invalid.json"):
        load_scenario(invalid)


def test_spec_is_frozen():
    spec = spec_from_dict(MINIMAL)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.primaries = 9
