"""Persisting and restoring incremental maintenance state.

The paper's middleware can "persist the state that it maintains for its
incremental operators in the database.  This enables the system to continue
incremental maintenance from a consistent state, e.g., when the database is
restarted, or when we are running out of memory and need to evict the operator
states for a query" (Sec. 2).

This module implements that capability for the reproduction:

* :func:`dump_engine_state` / :func:`load_engine_state` serialise the state of
  every stateful operator of an :class:`~repro.imp.engine.IncrementalEngine`
  into plain JSON-compatible Python values and restore it into a freshly
  compiled engine (same plan, same partition) without re-running the capture
  query.
* :class:`StatePersistence` stores those payloads -- together with the sketch,
  the SQL text and the version the sketch is valid for -- in a regular table of
  the backend database, and rebuilds maintainers from it.

What a join keeps of its two sides -- Bloom filters, and the key index of a
side once it has been probed -- is intentionally *not* persisted: it is derived
from the database and only affects performance, never correctness.  A restored
join starts with neither and prunes nothing; the first delta on one side makes
it evaluate the other side once and keep it as a key index, exactly as a
filter hit does on a freshly captured engine.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.errors import StateError
from repro.imp.engine import IMPConfig, IncrementalEngine
from repro.imp.maintenance import IncrementalMaintainer
from repro.imp.operators import (
    IncrementalAggregation,
    IncrementalDistinct,
    IncrementalJoin,
    IncrementalOperator,
    IncrementalTopK,
    MergeOperator,
)
from repro.imp.state import AggregationState, MergeState, MinMaxAccumulator
from repro.relational.algebra import AggregateFunction
from repro.relational.schema import Schema
from repro.sketch.ranges import DatabasePartition, RangePartition
from repro.sketch.sketch import ProvenanceSketch
from repro.storage.database import Database

STATE_TABLE = "_imp_persisted_state"
"""Name of the backend table used to store persisted maintenance state."""


# ---------------------------------------------------------------------------
# Operator-tree serialisation
# ---------------------------------------------------------------------------

def _operators_in_order(root: IncrementalOperator) -> list[IncrementalOperator]:
    """Deterministic pre-order listing of the operator tree.

    Serialisation and deserialisation both compile the engine from the same
    logical plan, so walking the trees in the same order pairs up operators.
    """
    ordered: list[IncrementalOperator] = []
    stack = [root]
    while stack:
        operator = stack.pop()
        ordered.append(operator)
        stack.extend(reversed(list(operator.children())))
    return ordered


def _encode_value(value: Any) -> Any:
    """Encode a tuple/row value into a JSON-friendly structure."""
    if isinstance(value, tuple):
        return {"__tuple__": [_encode_value(item) for item in value]}
    return value


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict) and "__tuple__" in value:
        return tuple(_decode_value(item) for item in value["__tuple__"])
    if isinstance(value, list):
        return [_decode_value(item) for item in value]
    return value


def _groups_payload(state: AggregationState) -> list[dict[str, Any]]:
    """One dict per live group, in order of creation: the per-group payload
    format the state was persisted in before it became slot lists."""
    return [
        {
            "key": _encode_value(key),
            "total_count": state.total_count[slot],
            "fragment_counts": dict(state.fragment_counts[slot]),
            "accumulators": [
                _accumulator_payload(state, index, slot)
                for index in range(len(state.aggregates))
            ],
        }
        for key, slot in state.slots.items()
    ]


def _accumulator_payload(state: AggregationState, index: int, slot: int) -> dict[str, Any]:
    extremes = state.extremes[index]
    if extremes is not None:
        accumulator = extremes[slot]
        return {
            "kind": "min_max",
            "function": accumulator.function.value,
            "buffer_limit": accumulator.buffer_limit,
            "overflow_count": accumulator.overflow_count,
            "exhausted": accumulator.exhausted,
            "values": accumulator.items(),
        }
    star_count = state.total_count[slot]
    if state.aggregates[index].argument is None:
        return {
            "kind": "count_star",
            "function": "count",
            "total": 0.0,
            "non_null_count": star_count,
            "star_count": star_count,
        }
    totals = state.totals[index]
    payload = {
        "kind": "sum_count",
        "function": state.aggregates[index].function.value,
        "total": 0.0 if totals is None else totals[slot],
        "non_null_count": state.non_null[index][slot],
        "star_count": star_count,
    }
    non_finite = state.non_finite[index]
    if non_finite and slot in non_finite:
        # Written only when there are such values: other payloads keep the
        # format they had before the counts existed.
        payload["non_finite"] = list(non_finite[slot])
    return payload


def _load_groups(state: AggregationState, payloads: list[dict[str, Any]]) -> None:
    for payload in payloads:
        accumulators = payload["accumulators"]
        if len(accumulators) != len(state.aggregates):
            raise StateError(
                f"persisted group has {len(accumulators)} aggregates, "
                f"the operator {len(state.aggregates)}"
            )
        (slot,) = state.slot_ids([tuple(_decode_value(payload["key"]))])
        state.total_count[slot] = payload["total_count"]
        fragment_counts = {int(k): v for k, v in payload["fragment_counts"].items()}
        state.fragment_counts[slot] = fragment_counts
        state.mask[slot] = sum(1 << k for k, v in fragment_counts.items() if v > 0)
        for index, accumulator in enumerate(accumulators):
            extremes = state.extremes[index]
            if extremes is not None:
                restored = MinMaxAccumulator(
                    AggregateFunction(accumulator["function"]), accumulator["buffer_limit"]
                )
                restored.overflow_count = accumulator["overflow_count"]
                restored.exhausted = accumulator["exhausted"]
                for value, count in accumulator["values"]:
                    restored.hold(value, count)
                extremes[slot] = restored
                continue
            totals = state.totals[index]
            if totals is not None:
                totals[slot] = accumulator["total"]
            non_null = state.non_null[index]
            if non_null is not None:
                non_null[slot] = accumulator["non_null_count"]
            if "non_finite" in accumulator:
                state.non_finite[index][slot] = list(accumulator["non_finite"])


def _aggregation_payload(operator: IncrementalAggregation) -> dict[str, Any]:
    return {"kind": "aggregation", "groups": _groups_payload(operator.state)}


def _load_aggregation(operator: IncrementalAggregation, payload: dict[str, Any]) -> None:
    state = AggregationState(operator.aggregates, operator.min_max_buffer)
    _load_groups(state, payload["groups"])
    operator.state = state


def _distinct_payload(operator: IncrementalDistinct) -> dict[str, Any]:
    return {"kind": "distinct", "rows": _groups_payload(operator.state)}


def _load_distinct(operator: IncrementalDistinct, payload: dict[str, Any]) -> None:
    state = AggregationState()
    _load_groups(state, payload["rows"])
    operator.state = state


def _topk_payload(operator: IncrementalTopK) -> dict[str, Any]:
    entries = []
    for sort_key, bucket in operator.state.buckets.items():
        for (row, annotation), multiplicity in bucket.items():
            entries.append(
                {
                    "sort_key": _encode_value(sort_key),
                    "row": _encode_value(row),
                    "annotation": annotation,
                    "multiplicity": multiplicity,
                }
            )
    return {
        "kind": "topk",
        "buffer_limit": operator.state.buffer_limit,
        "overflow_count": operator.state.overflow_count,
        "exhausted": operator.state.exhausted,
        "entries": entries,
    }


def _load_topk(operator: IncrementalTopK, payload: dict[str, Any]) -> None:
    from repro.imp.state import TopKState

    state = TopKState(payload["buffer_limit"])
    for entry in payload["entries"]:
        state.add(
            _decode_value(entry["sort_key"]),
            _decode_value(entry["row"]),
            int(entry["annotation"]),
            entry["multiplicity"],
        )
    # ``add`` may evict when a buffer limit is set; restore the recorded
    # bookkeeping explicitly so the state matches what was saved.
    state.overflow_count = payload["overflow_count"]
    state.exhausted = payload["exhausted"]
    operator.state = state


def _merge_payload(operator: MergeOperator) -> dict[str, Any]:
    return {"kind": "merge", "counts": dict(operator.state.counts)}


def _load_merge(operator: MergeOperator, payload: dict[str, Any]) -> None:
    state = MergeState()
    state.counts = {int(key): value for key, value in payload["counts"].items()}
    operator.state = state


def dump_engine_state(engine: IncrementalEngine) -> dict[str, Any]:
    """Serialise all stateful operators of an initialised engine."""
    if not engine.is_initialized:
        raise StateError("cannot persist an engine that has not been initialized")
    payloads: list[dict[str, Any] | None] = []
    for operator in _operators_in_order(engine._merge):
        if isinstance(operator, IncrementalAggregation):
            payloads.append(_aggregation_payload(operator))
        elif isinstance(operator, IncrementalDistinct):
            payloads.append(_distinct_payload(operator))
        elif isinstance(operator, IncrementalTopK):
            payloads.append(_topk_payload(operator))
        elif isinstance(operator, MergeOperator):
            payloads.append(_merge_payload(operator))
        else:
            payloads.append(None)
    return {
        "version": engine.initialized_at_version,
        "operators": payloads,
    }


def load_engine_state(engine: IncrementalEngine, payload: dict[str, Any]) -> None:
    """Restore operator state into a freshly compiled (uninitialised) engine."""
    operators = _operators_in_order(engine._merge)
    saved = payload["operators"]
    if len(saved) != len(operators):
        raise StateError(
            "persisted state does not match the engine's operator tree "
            f"({len(saved)} saved vs {len(operators)} operators)"
        )
    for operator, operator_payload in zip(operators, saved):
        if operator_payload is None:
            if isinstance(operator, IncrementalJoin):
                # Filters and side indexes from another database version (the
                # engine was initialised before the load) must not survive it.
                operator.forget_sides()
            continue
        kind = operator_payload["kind"]
        if kind == "aggregation" and isinstance(operator, IncrementalAggregation):
            _load_aggregation(operator, operator_payload)
        elif kind == "distinct" and isinstance(operator, IncrementalDistinct):
            _load_distinct(operator, operator_payload)
        elif kind == "topk" and isinstance(operator, IncrementalTopK):
            _load_topk(operator, operator_payload)
        elif kind == "merge" and isinstance(operator, MergeOperator):
            _load_merge(operator, operator_payload)
        else:
            raise StateError(
                f"persisted operator kind {kind!r} does not match {operator.describe()}"
            )
    engine._initialized = True
    engine.initialized_at_version = payload["version"]


# ---------------------------------------------------------------------------
# Backend persistence of sketches + state
# ---------------------------------------------------------------------------

def _partition_payload(partition: DatabasePartition) -> list[dict[str, Any]]:
    return [
        {
            "table": table_partition.table,
            "attribute": table_partition.attribute,
            "boundaries": table_partition.boundaries,
        }
        for table_partition in partition
    ]


def _partition_from_payload(payload: list[dict[str, Any]]) -> DatabasePartition:
    return DatabasePartition(
        RangePartition(entry["table"], entry["attribute"], entry["boundaries"])
        for entry in payload
    )


class StatePersistence:
    """Stores maintainer state in a table of the backend database."""

    def __init__(self, database: Database) -> None:
        self.database = database
        if not database.has_table(STATE_TABLE):
            database.create_table(STATE_TABLE, ["entry_key", "payload"], primary_key="entry_key")

    # -- saving -----------------------------------------------------------------

    def save_maintainer(self, key: str, sql: str, maintainer: IncrementalMaintainer) -> None:
        """Persist a maintainer's sketch, partition, version and engine state."""
        if maintainer.sketch is None:
            raise StateError("cannot persist a maintainer before its first capture")
        payload = {
            "sql": sql,
            "partition": _partition_payload(maintainer.partition),
            "sketch_fragments": sorted(maintainer.sketch.fragment_ids()),
            "valid_at_version": maintainer.valid_at_version,
            "config": {
                "use_bloom_filters": maintainer.config.use_bloom_filters,
                "selection_pushdown": maintainer.config.selection_pushdown,
                "min_max_buffer": maintainer.config.min_max_buffer,
                "topk_buffer": maintainer.config.topk_buffer,
            },
            "engine_state": dump_engine_state(maintainer.engine),
        }
        serialised = json.dumps(payload)
        table = self.database.table(STATE_TABLE)
        existing = table.lookup_by_key(key)
        if existing is not None:
            self.database.delete_rows(STATE_TABLE, [existing])
        self.database.insert(STATE_TABLE, [(key, serialised)])

    # -- loading ----------------------------------------------------------------

    def saved_keys(self) -> list[str]:
        """Keys of all persisted maintainers."""
        return sorted(row[0] for row in self.database.table(STATE_TABLE).rows())

    def load_maintainer(self, key: str) -> tuple[str, IncrementalMaintainer]:
        """Rebuild a maintainer (and its engine state) from the backend.

        Every way the stored payload can be bad -- not JSON at all, not a
        JSON object, missing fields, wrong field shapes -- raises
        :class:`StateError` naming the key, never a raw ``KeyError`` /
        ``json.JSONDecodeError``: a persisted row survives process restarts
        (and, in durable mode, crashes), so by the time it is read back
        nothing about its producer can be assumed.
        """
        stored = self.database.table(STATE_TABLE).lookup_by_key(key)
        if stored is None:
            raise StateError(f"no persisted state for key {key!r}")
        try:
            payload = json.loads(stored[1])
        except (TypeError, json.JSONDecodeError) as exc:
            raise StateError(
                f"persisted state for key {key!r} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise StateError(
                f"persisted state for key {key!r} is not a JSON object "
                f"(found {type(payload).__name__})"
            )
        try:
            sql = payload["sql"]
            partition = _partition_from_payload(payload["partition"])
            # Reads exactly the keys save_maintainer writes: payloads from
            # earlier versions carry settings that no longer exist, and those
            # must not make a good entry unreadable.
            stored_config = payload["config"]
            config = IMPConfig(
                use_bloom_filters=stored_config["use_bloom_filters"],
                selection_pushdown=stored_config["selection_pushdown"],
                min_max_buffer=stored_config["min_max_buffer"],
                topk_buffer=stored_config["topk_buffer"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StateError(
                f"persisted state for key {key!r} is malformed: {exc!r}"
            ) from exc
        plan = self.database.plan(sql)
        maintainer = IncrementalMaintainer(self.database, plan, partition, config)
        try:
            load_engine_state(maintainer.engine, payload["engine_state"])
            sketch = ProvenanceSketch(partition, payload["sketch_fragments"])
            valid_at_version = int(payload["valid_at_version"])
        except StateError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise StateError(
                f"persisted state for key {key!r} is malformed: {exc!r}"
            ) from exc
        maintainer.sketch = sketch
        maintainer.valid_at_version = valid_at_version
        maintainer.sketch_versions.append((valid_at_version, sketch))
        return sql, maintainer

    def load_or_capture(self, key, capture):
        """Restore ``key``, or fall back to a fresh capture when it is bad.

        ``capture()`` must build the maintainer from scratch (compile, run the
        capture query) and return ``(sql, maintainer)``.  Returns
        ``(sql, maintainer, restored)`` where ``restored`` tells whether the
        persisted state was used.  A corrupt or missing entry is forgotten so
        the next :meth:`save_maintainer` writes a clean row -- persistence is
        an optimisation (skip re-capture), so a bad payload degrades to the
        cost of a capture, never to a crash.
        """
        try:
            sql, maintainer = self.load_maintainer(key)
            return sql, maintainer, True
        except StateError:
            self.forget(key)
            sql, maintainer = capture()
            return sql, maintainer, False

    def forget(self, key: str) -> None:
        """Drop a persisted entry (no error when absent)."""
        stored = self.database.table(STATE_TABLE).lookup_by_key(key)
        if stored is not None:
            self.database.delete_rows(STATE_TABLE, [stored])
