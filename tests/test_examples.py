"""Every script under ``examples/`` runs to completion.

The examples are the API's first readers: each one runs in a fresh
interpreter, as a user would start it, and must exit 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


def test_the_examples_directory_is_populated():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs_to_completion(script):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    run = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=300
    )
    assert run.returncode == 0, run.stderr
