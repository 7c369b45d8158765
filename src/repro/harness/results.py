"""Resumable result store: append-only JSON lines keyed by content hash.

Every executed grid cell becomes one line::

    {"key": "<sha256>", "experiment": "table1", "cell_id": "...",
     "seed": 100, "params": {...}, "record": {...},
     "telemetry": {"wall_time": ..., "events": ..., ...},
     "code_version": "1.0.0", "created_at": 1754500000.0}

The ``key`` is a SHA-256 over the canonical JSON of (experiment,
cell_id, params, seed, code_version).  The calibration profile is part
of ``params``, so recalibrating the simulator — or bumping the package
version — invalidates old entries automatically rather than silently
serving stale numbers.  Re-running a grid against a warm store executes
only the cells whose keys are missing; everything else is read back.

Append-only means a killed run loses at most the in-flight cell.  A torn
final line (no closing newline) is skipped on load and left in place; the
first append after it starts with a newline, so the re-run's entries
land on lines of their own instead of being glued onto the fragment.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

import repro
from repro.harness.spec import GridCell

Entry = Dict[str, Any]

#: Default store location; override per-call or with ``REPRO_STORE``.
DEFAULT_STORE_PATH = "results/results.jsonl"


def code_version() -> str:
    """Version stamp folded into every cell key.

    ``REPRO_CODE_VERSION`` overrides the package version — useful to
    force re-execution after a behaviour-changing edit without a bump.
    """
    return os.environ.get("REPRO_CODE_VERSION", repro.__version__)


def canonical_json(value: Any) -> str:
    """Deterministic JSON used for hashing (sorted keys, no whitespace)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def cell_key(cell: GridCell, version: Optional[str] = None) -> str:
    """Content hash identifying one cell's result."""
    payload = {
        "experiment": cell.experiment,
        "cell_id": cell.cell_id,
        "params": cell.params,
        "seed": cell.seed,
        "code_version": version if version is not None else code_version(),
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def default_store_path() -> Path:
    return Path(os.environ.get("REPRO_STORE", DEFAULT_STORE_PATH))


class ResultStore:
    """Append-only JSONL store with an in-memory key index."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._by_key: Dict[str, Entry] = {}
        #: The file ends in a torn line: close it before the next append.
        self._torn_tail = False
        if self.path.exists():
            with self.path.open() as handle:
                raw = "\n"
                for raw in handle:
                    line = raw.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                    except json.JSONDecodeError:
                        continue  # torn tail of an interrupted run
                    if isinstance(entry, dict) and "key" in entry:
                        self._by_key[entry["key"]] = entry
                self._torn_tail = not raw.endswith("\n")

    def __len__(self) -> int:
        return len(self._by_key)

    def get(self, key: str) -> Optional[Entry]:
        return self._by_key.get(key)

    def append(
        self,
        cell: GridCell,
        record: Dict[str, Any],
        telemetry: Optional[Dict[str, Any]] = None,
        key: Optional[str] = None,
    ) -> Entry:
        """Persist one cell result; returns the stored entry."""
        entry: Entry = {
            "key": key if key is not None else cell_key(cell),
            "experiment": cell.experiment,
            "cell_id": cell.cell_id,
            "seed": cell.seed,
            "params": cell.params,
            "record": record,
            "telemetry": telemetry,
            "code_version": code_version(),
            "created_at": time.time(),
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as handle:
            if self._torn_tail:
                handle.write("\n")
                self._torn_tail = False
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._by_key[entry["key"]] = entry
        return entry
