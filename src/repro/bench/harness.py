"""The result rows shared by the benchmark suite.

Every ``benchmarks/test_fig*.py`` file regenerates one table or figure of the
paper: it builds the workload, runs IMP and its baselines, prints the series
the paper plots (seconds or memory against the swept parameter) and asserts
the shape on what each system read and processed -- counters, which do not
drift with the machine's speed.  :class:`ExperimentResult` holds those rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class ExperimentResult:
    """Rows of measurements for one experiment (one per parameter combination)."""

    name: str
    rows: list[dict[str, object]] = field(default_factory=list)

    def add(self, **values: object) -> None:
        """Append one measurement row."""
        self.rows.append(dict(values))

    def column(self, key: str) -> list[object]:
        """All values of one column, in insertion order."""
        return [row.get(key) for row in self.rows]

    def filter(self, **criteria: object) -> "ExperimentResult":
        """Rows matching all ``criteria`` (exact equality)."""
        matched = [
            row
            for row in self.rows
            if all(row.get(key) == value for key, value in criteria.items())
        ]
        return ExperimentResult(self.name, matched)

    def value(self, column: str, **criteria: object) -> object:
        """The single value of ``column`` among rows matching ``criteria``."""
        matched = self.filter(**criteria).rows
        if len(matched) != 1:
            raise ValueError(
                f"expected exactly one row for {criteria}, found {len(matched)}"
            )
        return matched[0][column]

    def to_json(self, indent: int = 2) -> str:
        """The experiment as a JSON document (name plus measurement rows).

        This is the payload of the ``BENCH_<fig>.json`` artifacts the
        benchmark suite uploads from CI; values without a native JSON form
        are rendered through ``str``.
        """
        payload = {"experiment": self.name, "rows": self.rows}
        return json.dumps(payload, indent=indent, default=str)

    def __len__(self) -> int:
        return len(self.rows)

