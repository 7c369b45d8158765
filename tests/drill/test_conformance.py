"""The drill conformance corpus, surfaced as tier-1 tests.

Each script under ``tests/drill/scripts/`` becomes one pytest case, so a
stack regression names the exact behaviour it broke; each runs inside the
crash-silence check (``tools/crash_silence.py``), which matters for the
scripts that crash or fence a host (t24–t26, t28–t30).  A second pass runs
the whole corpus twice and asserts the reports are byte-identical — the
determinism guarantee CI relies on.
"""

from pathlib import Path

import pytest

from repro.drill import format_report, run_drill_file, run_drill_path

from tools.crash_silence import crash_silence

SCRIPTS_DIR = Path(__file__).parent / "scripts"
SCRIPTS = sorted(SCRIPTS_DIR.glob("t*.py"))


def test_corpus_is_populated():
    assert len(SCRIPTS) >= 20
    assert sum(1 for s in SCRIPTS if "sttcp" in s.name) >= 3


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_drill_script_passes(script):
    with crash_silence() as silence:
        result = run_drill_file(script)
    assert result.passed, f"\n{result.failure}"
    assert not silence.breaches, silence.report()


def test_corpus_report_is_deterministic():
    first = format_report(run_drill_path(SCRIPTS_DIR))
    second = format_report(run_drill_path(SCRIPTS_DIR))
    assert first == second
    assert f"{len(SCRIPTS)}/{len(SCRIPTS)} scripts passed" in first
