"""The call-census allowlist names only functions that exist.

``tools/call_census.py`` needs a traced tier-1 run (minutes) to say which
functions are never entered; whether each allowlist entry still names a
function under ``src/repro`` needs only the source, so tier-1 checks it.
"""

from __future__ import annotations

from tools import call_census
from tools.call_census import defined_functions, read_allowlist


def test_every_allowlisted_function_is_defined():
    defined = set(defined_functions().values())
    assert sorted(set(read_allowlist()) - defined) == []


def test_census_fails_on_an_entry_for_a_deleted_function(monkeypatch, capsys):
    defined = defined_functions()
    # A traced run that entered everything, and an allowlist that still
    # names a function nobody defines.
    monkeypatch.setattr(call_census, "run_traced", lambda args: (0, set(defined)))
    monkeypatch.setattr(call_census, "read_allowlist", lambda: {"repro/sim/gone.py:Gone.run": "deleted"})
    assert call_census.main([]) == 1
    out = capsys.readouterr().out
    assert "ALLOWLISTED BUT NOT DEFINED, remove the entry: repro/sim/gone.py:Gone.run" in out
    assert "entered now" not in out
