"""The TCP core stands alone: by vocabulary, and at run time.

``tools/check_import_cycles.py`` holds the static rules (no import from
``repro.tcp`` into the packages built on it; no line of the core names
them).  The run-time pin is stronger than the import graph: drills
t01–t22 exercise the plain TCP stack end to end in a fresh interpreter
that refuses to import the replication, cluster, FT-TCP and logger
packages at all.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from tools.check_import_cycles import vocabulary_violations

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
BLOCKED = ("repro.sttcp", "repro.cluster", "repro.ftcp", "repro.logger")

# Runs in the child: install the blocking finder, run the TCP drills,
# print what passed and which blocked modules got loaded anyway.
_CHILD = """
import importlib.abc, json, sys
from pathlib import Path

blocked, scripts = json.loads(sys.argv[1])


class Refuse(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if any(name == b or name.startswith(b + ".") for b in blocked):
            raise ImportError(f"{name} is not part of the TCP stack")
        return None


sys.meta_path.insert(0, Refuse())
from repro.drill import run_drill_file

results = [run_drill_file(Path(script)) for script in scripts]
print(json.dumps({
    "passed": sum(result.passed for result in results),
    "failures": [result.failure for result in results if not result.passed],
    "loaded": sorted(m for m in sys.modules if any(m.startswith(b) for b in blocked)),
}))
"""


def test_tcp_core_names_nothing_built_on_it():
    assert vocabulary_violations(SRC / "repro") == []


def test_vocabulary_breach_fails_and_names_the_line(tmp_path):
    root = tmp_path / "repro"
    shutil.copytree(SRC / "repro" / "tcp", root / "tcp")
    target = root / "tcp" / "layer.py"
    lines = target.read_text().splitlines()
    lines.insert(2, "# Nothing here knows about a Shadow.")
    target.write_text("\n".join(lines) + "\n")
    run = subprocess.run(
        [sys.executable, str(REPO / "tools" / "check_import_cycles.py"), "--root", str(root)],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 1
    assert f"{target}:3: # Nothing here knows about a Shadow." in run.stdout


def test_tcp_drills_pass_with_the_replication_packages_unimportable():
    scripts = sorted(str(p) for p in (REPO / "tests" / "drill" / "scripts").glob("t*.py"))[:22]
    assert Path(scripts[-1]).name.startswith("t22_")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps([BLOCKED, scripts])],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    assert report["failures"] == []
    assert report["passed"] == 22
    assert report["loaded"] == []
