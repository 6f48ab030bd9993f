"""Plain-text rendering of benchmark results.

The paper presents its evaluation as plots; the benchmark harness prints the
same data as aligned text tables (one row per parameter combination, one
column per system) so the numbers behind every figure can be inspected; the
README's "Tests and benchmarks" section says how to print them.
"""

from __future__ import annotations

import os
from collections.abc import Sequence

from repro.bench.harness import ExperimentResult


def write_json(result: ExperimentResult, path: str) -> str:
    """Write ``result`` as a JSON artifact to ``path``; returns the path.

    Parent directories are created as needed.  The benchmark suite uses this
    (via ``benchmarks/conftest.save_artifact``) to emit the machine-readable
    ``BENCH_<fig>.json`` twins of the printed text tables.
    """
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(result.to_json())
        handle.write("\n")
    return path


def format_table(
    result: ExperimentResult, columns: Sequence[str] | None = None, title: str | None = None
) -> str:
    """Render an :class:`ExperimentResult` as an aligned text table."""
    if not result.rows:
        return f"{title or result.name}: <no data>"
    if columns is None:
        columns = list(result.rows[0].keys())
    widths = {column: len(column) for column in columns}
    rendered_rows = []
    for row in result.rows:
        rendered = {column: _render(row.get(column)) for column in columns}
        rendered_rows.append(rendered)
        for column in columns:
            widths[column] = max(widths[column], len(rendered[column]))
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(column.ljust(widths[column]) for column in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[column] for column in columns))
    for rendered in rendered_rows:
        lines.append(" | ".join(rendered[column].ljust(widths[column]) for column in columns))
    return "\n".join(lines)


def format_series(
    result: ExperimentResult,
    x_key: str,
    y_key: str,
    series_key: str = "system",
    title: str | None = None,
) -> str:
    """Render a figure-style series table: one row per x value, one column per series."""
    if not result.rows:
        return f"{title or result.name}: <no data>"
    x_values = []
    for row in result.rows:
        if row[x_key] not in x_values:
            x_values.append(row[x_key])
    series_names = []
    for row in result.rows:
        if row[series_key] not in series_names:
            series_names.append(row[series_key])
    pivot = ExperimentResult(result.name)
    for x_value in x_values:
        entry: dict[str, object] = {x_key: x_value}
        for series in series_names:
            matches = [
                row
                for row in result.rows
                if row[x_key] == x_value and row[series_key] == series
            ]
            entry[str(series)] = matches[0][y_key] if matches else None
        pivot.add(**entry)
    columns = [x_key, *[str(series) for series in series_names]]
    return format_table(pivot, columns=columns, title=title)


def _render(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value != 0 and abs(value) < 0.001:
            return f"{value:.2e}"
        return f"{value:.4f}"
    return str(value)
