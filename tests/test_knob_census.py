"""Every config knob earns its place.

A field of ``TCPConfig``, ``STTCPConfig`` or ``NetworkProfile`` that no
keyword under ``src/repro`` or ``tools/`` sets, and no cluster scenario's
``sttcp`` section names, holds one value outside tests.  Each such field
is listed in ``tools/knob_census_allowlist.txt`` with the reason it
stays; a new one must be listed (or made a constant), and an entry whose
field is gone or is now set must go.
"""

from __future__ import annotations

import ast
import dataclasses
import json
from pathlib import Path

from repro.harness.calibrate import NetworkProfile
from repro.sttcp.config import STTCPConfig
from repro.tcp.config import TCPConfig

ROOT = Path(__file__).resolve().parent.parent
ALLOWLIST = ROOT / "tools" / "knob_census_allowlist.txt"
CONFIGS = (TCPConfig, STTCPConfig, NetworkProfile)


def keywords_set() -> set:
    """Every keyword argument name passed under src/repro and tools/,
    plus every cluster scenario's ``sttcp`` key."""
    names = set()
    for root in (ROOT / "src" / "repro", ROOT / "tools"):
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.keyword) and node.arg is not None:
                    names.add(node.arg)
    for path in sorted((ROOT / "configs" / "cluster").glob("*.json")):
        names.update(json.loads(path.read_text()).get("sttcp", {}))
    return names


def unset_fields() -> set:
    names = keywords_set()
    return {
        f"{config.__name__}.{field.name}"
        for config in CONFIGS
        for field in dataclasses.fields(config)
        if field.name not in names
    }


def read_allowlist() -> dict:
    entries = {}
    for line in ALLOWLIST.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, _, reason = line.partition(" ")
            entries[name] = reason.strip()
    return entries


def test_every_unset_knob_is_allowlisted_with_a_reason():
    allowlist = read_allowlist()
    assert sorted(unset_fields() - set(allowlist)) == []
    assert [name for name, reason in allowlist.items() if not reason] == []


def test_every_allowlist_entry_names_an_unset_field():
    assert sorted(set(read_allowlist()) - unset_fields()) == []


def test_a_new_knob_nobody_sets_fails_the_census(monkeypatch):
    @dataclasses.dataclass
    class Probe:
        hb_interval: float = 0.05
        never_set_by_anyone: int = 0

    monkeypatch.setitem(globals(), "CONFIGS", (Probe,))
    assert unset_fields() - set(read_allowlist()) == {"Probe.never_set_by_anyone"}
