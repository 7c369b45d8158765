"""Export experiment records to CSV/JSON and render quick summaries.

Experiment functions return lists of flat dicts; these helpers persist
them for external analysis (the CLI's ``--csv``/``--json`` flags).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Dict, List, Union

Record = Dict[str, Any]


def _normalise(value: Any) -> Any:
    """Make a cell JSON/CSV friendly."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        # Infinities appear for failed runs; keep them readable.
        if value == float("inf"):
            return "inf"
        return round(value, 9)
    return value


def records_to_json(records: List[Record], path: Union[str, Path]) -> Path:
    """Write records as a JSON array; returns the path written."""
    path = Path(path)
    payload = [
        {key: _normalise(value) for key, value in record.items()}
        for record in records
    ]
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def records_to_csv(records: List[Record], path: Union[str, Path]) -> Path:
    """Write records as CSV with a header union of all keys."""
    path = Path(path)
    if not records:
        path.write_text("")
        return path
    columns: List[str] = []
    for record in records:
        for key in record:
            if key not in columns:
                columns.append(key)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns, restval="")
        writer.writeheader()
        for record in records:
            writer.writerow({key: _normalise(value) for key, value in record.items()})
    return path
