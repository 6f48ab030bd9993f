"""The canonical serialised view of an incremental engine's state.

:func:`dump_engine_state` writes the state of every stateful operator of an
initialised :class:`~repro.imp.engine.IncrementalEngine` as plain
JSON-compatible Python values, stamped ``"format": 2`` (the operators of the
pruned plan, in pre-order).  Tests compare engines by it: a shared round
against engines maintained one by one, maintained state against a fresh
capture, and SHA-256 pins of its bytes.

What a join keeps of its two sides -- Bloom filters, and the key index of a
side once it has been probed -- is not part of the view: it is derived from
the database and only affects performance, never correctness.

The paper's middleware also persists this state so that maintenance can
continue after a restart or an eviction (Sec. 2).  That is not implemented:
nothing reads a dump back, and a restarted system, like one that evicted an
entry, recaptures the sketch on its next query.
"""

from __future__ import annotations

from typing import Any

from repro.core.errors import StateError
from repro.imp.engine import IncrementalEngine
from repro.imp.operators import (
    IncrementalAggregation,
    IncrementalDistinct,
    IncrementalOperator,
    IncrementalShared,
    IncrementalTopK,
    MergeOperator,
)
from repro.imp.state import AggregationState

FORMAT = 2
"""Format of :func:`dump_engine_state`'s payload."""


def _operators_in_order(root: IncrementalOperator) -> list[IncrementalOperator]:
    """Deterministic pre-order listing of the operator tree; the view of a
    shared node is not listed (it holds no state), the node's operators are.
    Two engines compiled from the same plan list their operators in pairs."""
    ordered: list[IncrementalOperator] = []
    stack = [root]
    while stack:
        operator = stack.pop()
        if not isinstance(operator, IncrementalShared):
            ordered.append(operator)
        stack.extend(reversed(list(operator.children())))
    return ordered


def _encode_value(value: Any) -> Any:
    """Encode a tuple/row value into a JSON-friendly structure."""
    if isinstance(value, tuple):
        return {"__tuple__": [_encode_value(item) for item in value]}
    return value


def _groups_payload(state: AggregationState) -> list[dict[str, Any]]:
    """One dict per live group, in order of creation: per group, its key,
    counts and one accumulator per aggregate."""
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
        # Written only when there are such values, so a payload without
        # them reads as it did before the counts existed.
        payload["non_finite"] = list(non_finite[slot])
    return payload


def _aggregation_payload(operator: IncrementalAggregation) -> dict[str, Any]:
    return {"kind": "aggregation", "groups": _groups_payload(operator.state)}


def _distinct_payload(operator: IncrementalDistinct) -> dict[str, Any]:
    return {"kind": "distinct", "rows": _groups_payload(operator.state)}


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


def _merge_payload(operator: MergeOperator) -> dict[str, Any]:
    return {"kind": "merge", "counts": dict(operator.counts)}


def dump_engine_state(engine: IncrementalEngine) -> dict[str, Any]:
    """Serialise all stateful operators of an initialised engine."""
    if not engine.is_initialized:
        raise StateError("cannot dump an engine that has not been initialized")
    payloads: list[dict[str, Any] | None] = []
    for operator in _operators_in_order(engine._merge):
        if isinstance(operator, IncrementalDistinct):  # an aggregation too: test it first
            payloads.append(_distinct_payload(operator))
        elif isinstance(operator, IncrementalAggregation):
            payloads.append(_aggregation_payload(operator))
        elif isinstance(operator, IncrementalTopK):
            payloads.append(_topk_payload(operator))
        elif isinstance(operator, MergeOperator):
            payloads.append(_merge_payload(operator))
        else:
            payloads.append(None)
    return {
        "format": FORMAT,
        "version": engine.initialized_at_version,
        "operators": payloads,
    }
