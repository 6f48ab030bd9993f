"""Tests for the benchmark harness and reporting helpers."""

import json

import pytest

from repro.bench.harness import ExperimentResult
from repro.bench.reporting import format_series, format_table, write_json


class TestHarness:
    def test_experiment_result_accessors(self):
        result = ExperimentResult("demo")
        result.add(system="imp", delta=10, seconds=0.1)
        result.add(system="fm", delta=10, seconds=0.5)
        result.add(system="imp", delta=100, seconds=0.2)
        assert result.column("system") == ["imp", "fm", "imp"]
        assert len(result.filter(system="imp")) == 2
        assert result.value("seconds", system="fm", delta=10) == 0.5
        with pytest.raises(ValueError):
            result.value("seconds", system="imp")


class TestReporting:
    def test_format_table_aligns_columns(self):
        result = ExperimentResult("demo")
        result.add(system="imp", seconds=0.12345)
        result.add(system="full-maintenance", seconds=1.5)
        rendered = format_table(result, title="Demo")
        lines = rendered.splitlines()
        assert lines[0] == "Demo"
        assert "system" in lines[1]
        assert len({len(line) for line in lines[1:]}) <= 2  # header/sep/data align

    def test_format_table_handles_small_floats_and_none(self):
        result = ExperimentResult("demo")
        result.add(system="imp", seconds=0.00001, note=None)
        rendered = format_table(result)
        assert "e-05" in rendered
        assert "-" in rendered

    def test_format_series_pivots_by_system(self):
        result = ExperimentResult("demo")
        for delta in (10, 100):
            result.add(system="imp", delta=delta, seconds=delta / 1000)
            result.add(system="fm", delta=delta, seconds=delta / 100)
        rendered = format_series(result, x_key="delta", y_key="seconds", title="Series")
        lines = rendered.splitlines()
        assert "imp" in lines[1] and "fm" in lines[1]
        assert len(lines) == 5  # title + header + separator + 2 data rows

    def test_empty_results_render_placeholder(self):
        empty = ExperimentResult("empty")
        assert "<no data>" in format_table(empty)
        assert "<no data>" in format_series(empty, "x", "y")

    def test_to_json_roundtrips_rows(self):
        result = ExperimentResult("demo")
        result.add(system="imp", seconds=0.25, note=None)
        result.add(system="fm", seconds=1.5, extra=object())  # stringified
        payload = json.loads(result.to_json())
        assert payload["experiment"] == "demo"
        assert payload["rows"][0] == {"system": "imp", "seconds": 0.25, "note": None}
        assert isinstance(payload["rows"][1]["extra"], str)

    def test_write_json_creates_directories(self, tmp_path):
        result = ExperimentResult("demo")
        result.add(system="imp", seconds=0.25)
        path = tmp_path / "artifacts" / "BENCH_demo.json"
        written = write_json(result, str(path))
        assert written == str(path)
        payload = json.loads(path.read_text())
        assert payload["rows"] == [{"system": "imp", "seconds": 0.25}]
