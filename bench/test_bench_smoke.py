"""Smoke test of the benchmark itself (not part of tier 1).

Run as ``PYTHONPATH=src python -m pytest bench -q``.  Every workload runs once
untraced and once traced at ``--scale smoke`` (a few thousand rows, a handful
of cycles), in this process.
"""

from __future__ import annotations

import json
import os
import re

import pytest

import run as driver
from catalog import DETERMINISTIC_UNITS, END_TO_END, PER_LAYER
from spans import Tracer
from streams import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SMOKE_SECONDS = 1.0

with open(os.path.join(driver.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    CONTRACT = json.load(_handle)


@pytest.fixture(scope="module")
def records() -> dict[tuple[str, bool], dict]:
    return {
        (name, trace): driver.run_workload(name, 11, SMOKE_SECONDS, trace, scale="smoke")
        for name in WORKLOADS
        for trace in (False, True)
    }


def test_contract_names_match_catalogue_and_runs(records):
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    end_to_end = {name: (unit, better, bound) for name, unit, better, bound in END_TO_END}
    per_layer = {name: (unit, better) for name, unit, better in PER_LAYER}
    for metric in CONTRACT["end_to_end"]:
        assert end_to_end[metric["name"]] == (metric["unit"], metric["better"], metric["bound"])
    assert {m["name"]: (m["unit"], m["better"]) for m in CONTRACT["per_layer"]} == per_layer
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in CONTRACT[section]:
            assert NAME.match(entry["name"]), entry["name"]
    for name in WORKLOADS:
        assert set(end_to_end) == set(records[name, False]["metrics"])
        assert set(per_layer) == set(records[name, True]["metrics"])


def test_no_operation_fails_and_results_are_correct(records):
    for record in records.values():
        assert record["failed"] == 0, record["failure_messages"]
        assert record["correct"]
        assert record["attempted"] >= 1
    for name in WORKLOADS:
        assert records[name, True]["metrics"]["verify.mismatches"] == 0
        assert records[name, True]["metrics"]["verify.queries_checked"] > 0
    durable = records["durable_commit", False]["metrics"]
    assert durable["recovery_s"] > 0 and durable["wal_bytes_per_commit"] > 0


def test_span_patches_are_restored_and_self_times_fit_the_op_wall(records):
    assert Tracer.installed_patches() == []
    for name in WORKLOADS:
        traced = records[name, True]
        assert traced["unrestored_patches"] == []
        # Self times of one operation's spans add up to its wall, never more.
        assert traced["samples"]["max_self_sum_over_wall"] <= 1.0 + 1e-9
        assert traced["spans"], "spans are kept for writing out"


def test_layers_separate_as_the_workloads_intend(records):
    scan = records["scan_analytics", True]["metrics"]
    for name, unit, _better in PER_LAYER:
        if name.startswith(("imp.", "sketch.")) and unit == "s":
            assert scan[name] == 0, name
    for name in WORKLOADS:
        wal_time = sum(
            records[name, True]["metrics"][metric]
            for metric in ("storage.wal_append_s", "storage.wal_fsync_s", "storage.checkpoint_s")
        )
        assert (wal_time > 0) == (name == "durable_commit")


def test_same_seed_repeats_counters_and_another_seed_changes_the_stream(records):
    again = driver.run_workload("mixed_5u1q", 11, SMOKE_SECONDS, True, scale="smoke")
    first = records["mixed_5u1q", True]["metrics"]
    for name, unit, _better in PER_LAYER:
        if unit in DETERMINISTIC_UNITS:
            assert again["metrics"][name] == first[name], name
    workload = WORKLOADS["mixed_5u1q"]
    one = workload.inputs(11, "smoke", SMOKE_SECONDS)
    same = workload.inputs(11, "smoke", SMOKE_SECONDS)
    other = workload.inputs(12, "smoke", SMOKE_SECONDS)
    assert one.timed_ops == same.timed_ops
    assert one.timed_ops != other.timed_ops
