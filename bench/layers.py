"""Per-layer metrics: names, units, and how each is derived from a traced run.

A layer is a module under ``src/repro`` (``sql``, ``relational``, ``sketch``,
``imp``, ``storage``).  Times come from the external spans of
:mod:`spans` and are **self times** (a span minus its direct children), so
within one run they add up -- together with ``trace.unattributed_s`` -- to the
traced wall time of the timed operations.  Counts come from the counters the
program already exposes (``Database.*_count``, ``scheduler.summary()``,
``store.statistics``, ``SystemStatistics``); they are read, not re-implemented.

Every metric covers the timed operations only, except ``sketch.capture_s``,
``sketch.captures`` and ``sketch.partition_s``, which cover set-up as well
(that is where sketches are captured).
"""

from __future__ import annotations

from spans import OP_QUERY, OP_UPDATE, Span, Tracer, aggregate

LAYERS = ("sql", "relational", "sketch", "imp", "storage")


def program_counters(system, database) -> dict[str, float]:
    """Snapshot of the counters the program itself keeps."""
    counters: dict[str, float] = {
        "version": database.version,
        "full_scans": database.scan_count,
        "index_scans": database.index_scan_count,
        "queries": system.statistics.queries,
        "sketch_hits": system.statistics.sketch_hits,
        "fallback_queries": system.statistics.fallback_queries,
    }
    scheduler = getattr(system, "scheduler", None)
    if scheduler is not None:
        summary = scheduler.summary()
        for key in ("rounds", "ensures", "delta_fetches", "fetched_tuples",
                    "compacted_tuples", "recaptures"):
            counters[key] = summary[key]
        store = system.store.statistics
        counters["store_hits"] = store.hits
        counters["store_misses"] = store.misses
        counters["store_evictions"] = store.evictions
    return counters


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def fragments_covered_ratio(system) -> float:
    """Mean share of partition fragments the stored sketches cover."""
    store = getattr(system, "store", None)
    if store is None:
        return 0.0
    shares = [
        len(entry.sketch) / entry.partition.total_fragments
        for entry in store.entries()
        if entry.sketch is not None
    ]
    return _ratio(sum(shares), len(shares))


def layer_metrics(
    tracer: Tracer,
    own: list[float],
    timed_first_span: int,
    before: dict[str, float],
    after: dict[str, float],
    system,
    database,
) -> dict[str, float]:
    """The span- and counter-derived per-layer metrics of one traced run
    (``own`` is ``self_times(tracer.spans)``)."""
    spans = tracer.spans
    timed = aggregate(spans, own, timed_first_span)
    everything = aggregate(spans, own)
    delta = {key: after[key] - before.get(key, 0) for key in after}

    def seconds(name: str, table=timed) -> float:
        return table.get(name, (0, 0.0))[1]

    def calls(name: str, table=timed) -> int:
        return table.get(name, (0, 0.0))[0]

    # fsyncs issued by WAL appends (the rest belong to checkpoints/rotation).
    wal_fsync_s = sum(
        own[index]
        for index in range(timed_first_span, len(spans))
        if spans[index][0] == "storage.fsync"
        and spans[index][3] >= 0
        and spans[spans[index][3]][0] == "storage.wal_append"
    )
    counters = tracer.counters
    rounds_and_ensures = delta.get("rounds", 0) + delta.get("ensures", 0)
    maintained_tuples = counters["imp.maintained_delta_tuples"]
    metrics = {
        "sql.parse_s": seconds("sql.parse"),
        "sql.parse_calls": calls("sql.parse"),
        "sql.translate_s": seconds("sql.translate"),
        "sql.template_s": seconds("sql.template"),
        "sql.parses_per_query": _ratio(calls("sql.parse"), delta["queries"]),
        "relational.optimize_s": seconds("relational.optimize"),
        "relational.optimize_calls": calls("relational.optimize"),
        "relational.evaluate_s": seconds("relational.evaluate"),
        "relational.kernel_filter_s": seconds("relational.kernel_filter"),
        "relational.kernel_project_s": seconds("relational.kernel_project"),
        "relational.kernel_join_s": seconds("relational.kernel_join"),
        "relational.kernel_aggregate_s": seconds("relational.kernel_aggregate"),
        "relational.kernel_distinct_s": seconds("relational.kernel_distinct"),
        "relational.rows_scanned": counters["relational.rows_scanned"],
        "relational.rows_returned": counters["relational.rows_returned"],
        "relational.rows_scanned_per_row_returned": _ratio(
            counters["relational.rows_scanned"], counters["relational.rows_returned"]
        ),
        "sketch.capture_s": seconds("sketch.capture", everything),
        "sketch.captures": calls("sketch.capture", everything),
        "sketch.partition_s": seconds("sketch.partition", everything),
        "sketch.instrument_s": seconds("sketch.instrument"),
        "sketch.instrument_calls": calls("sketch.instrument"),
        "sketch.instrument_cache_hit_ratio": (
            1.0 - _ratio(calls("sketch.instrument"), delta["sketch_hits"])
            if delta["sketch_hits"]
            else 0.0
        ),
        "sketch.fragments_covered_ratio": fragments_covered_ratio(system),
        "imp.ensure_s": seconds("imp.ensure"),
        "imp.ensure_calls": calls("imp.ensure"),
        "imp.round_s": seconds("imp.round"),
        "imp.rounds": delta.get("rounds", 0),
        "imp.maintain_s": seconds("imp.maintain"),
        "imp.maintain_calls": calls("imp.maintain"),
        "imp.restrict_s": seconds("imp.restrict"),
        "imp.delta_tuples_in": delta.get("fetched_tuples", 0),
        "imp.delta_tuples_compacted": delta.get("compacted_tuples", 0),
        "imp.compaction_ratio": _ratio(
            delta.get("compacted_tuples", 0), delta.get("fetched_tuples", 0)
        ),
        "imp.delta_fetches": delta.get("delta_fetches", 0),
        "imp.delta_fetches_per_round": _ratio(
            delta.get("delta_fetches", 0), rounds_and_ensures
        ),
        "imp.maintain_us_per_delta_tuple": _ratio(
            seconds("imp.maintain") * 1e6, maintained_tuples
        ),
        "imp.recaptures": delta.get("recaptures", 0),
        "imp.fallback_queries": delta["fallback_queries"],
        "imp.store_hit_ratio": _ratio(
            delta.get("store_hits", 0),
            delta.get("store_hits", 0) + delta.get("store_misses", 0),
        ),
        "imp.store_evictions": delta.get("store_evictions", 0),
        "storage.commit_s": seconds("storage.commit"),
        "storage.commits": delta["version"],
        "storage.delta_fetch_s": seconds("storage.delta_fetch"),
        "storage.delta_compact_s": seconds("storage.delta_compact"),
        "storage.audit_records": len(database.audit_log),
        "storage.index_scan_s": seconds("storage.index_scan"),
        "storage.index_scans": delta["index_scans"],
        "storage.full_scans": delta["full_scans"],
        "storage.row_scan_s": seconds("storage.row_scan"),
        "storage.column_batch_s": seconds("storage.column_batch"),
        "storage.column_batch_rebuilds": counters["storage.column_batch_rebuilds"],
        # Framing (CRC + length prefix) is part of the append.
        "storage.wal_append_s": seconds("storage.wal_append") + seconds("storage.wal_frame"),
        "storage.wal_fsync_s": wal_fsync_s,
        "storage.wal_records": calls("storage.wal_append"),
        "storage.wal_bytes": counters["storage.wal_bytes"],
        "storage.fsyncs": calls("storage.fsync"),
        # Checkpoint time includes its own fsyncs (everything but the WAL's).
        "storage.checkpoint_s": seconds("storage.checkpoint")
        + seconds("storage.fsync")
        - wal_fsync_s,
        "storage.checkpoints": calls("storage.checkpoint"),
        "storage.checkpoint_bytes": counters["storage.checkpoint_bytes"],
        "trace.unattributed_s": seconds(OP_QUERY) + seconds(OP_UPDATE),
    }
    return metrics


def layer_shares(spans: list[Span], own: list[float], first: int) -> dict[str, float]:
    """Share of the traced op wall in ``spans[first:]`` that each layer's self
    time accounts for (``unattributed`` is the op roots' own self time)."""
    totals = dict.fromkeys((*LAYERS, "unattributed"), 0.0)
    for name, (_calls, seconds) in aggregate(spans, own, first).items():
        layer = name.split(".", 1)[0]
        totals[layer if layer in totals else "unattributed"] += seconds
    wall = sum(totals.values())
    return {layer: _ratio(value, wall) for layer, value in totals.items()}


def op_walls_and_self_sums(
    spans: list[Span], own: list[float], first: int
) -> list[tuple[float, float]]:
    """Per operation in ``spans[first:]``: (root span wall, sum of self times
    of all its spans).  Used to check that self times never exceed the wall."""
    walls: dict[int, float] = {}
    sums: dict[int, float] = {}
    for index in range(first, len(spans)):
        name, start, end, parent, op_id = spans[index]
        if op_id < 0:
            continue
        sums[op_id] = sums.get(op_id, 0.0) + own[index]
        if parent < 0:
            walls[op_id] = end - start
    return [(walls[op_id], sums[op_id]) for op_id in sorted(walls)]
