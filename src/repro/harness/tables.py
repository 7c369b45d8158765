"""ASCII rendering of experiment results in the paper's table shapes."""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.obs.slo import Grade


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: Optional[str] = None,
    float_format: str = "{:.3f}",
) -> str:
    """Render an aligned text table."""
    def render(cell: Any) -> str:
        if isinstance(cell, float):
            return float_format.format(cell)
        return str(cell)

    rendered = [[render(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(
        header.ljust(widths[index]) for index, header in enumerate(headers)
    )
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in rendered:
        lines.append(
            "  ".join(cell.rjust(widths[index]) for index, cell in enumerate(row))
        )
    return "\n".join(lines)


def graded_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    names: Sequence[str],
    grades: Sequence[Grade],
    title: str,
) -> str:
    """A table whose last two columns are each record's grade and worst
    burn, then one line per fault of every record graded below B."""
    table = format_table(
        [*headers, "grade", "burn"],
        [[*row, grade.letter, f"{grade.burn:.2f}"] for row, grade in zip(rows, grades)],
        title=title,
    )
    faults = [
        f"{name}: {fault}"
        for name, grade in zip(names, grades)
        for fault in grade.faults
    ]
    return "\n".join([table, *faults])


def rows_from_records(
    records: List[Dict[str, Any]], columns: Sequence[str]
) -> List[List[Any]]:
    """Project a list of dicts onto ordered columns (missing → '-')."""
    return [[record.get(column, "-") for column in columns] for record in records]


def records_table(
    title: str, columns: Sequence[str]
) -> Callable[[List[Dict[str, Any]]], str]:
    """An ``ExperimentSpec.format``: ``columns`` of each record under ``title``."""
    return lambda records: format_table(
        columns, rows_from_records(records, columns), title=title
    )
