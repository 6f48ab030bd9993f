"""Benchmark harness: experiment results and paper-style reporting."""

from repro.bench.harness import ExperimentResult
from repro.bench.reporting import format_series, format_table, write_json

__all__ = ["ExperimentResult", "format_series", "format_table", "write_json"]
