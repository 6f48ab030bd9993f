"""The benchmark's metric catalogue: names, units, direction and bounds.

Kept free of imports so ``compare.py`` can read result files without the
program on the import path.  ``BENCHMARK.json`` repeats the end-to-end metrics
that exist (and are never 0) on every workload, and every per-layer metric;
``test_bench_smoke.py`` keeps the two in step.
"""

from __future__ import annotations

EXACT = "exact"

# (name, unit, better, bound).  ``bound`` is the share of the baseline median a
# metric may worsen by before it counts as a regression; EXACT metrics are
# deterministic for a given seed and must match to the digit.
END_TO_END: list[tuple[str, str, str, float | str]] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("query_p50_ms", "ms", "lower", 0.25),
    ("query_p90_ms", "ms", "lower", 0.25),
    ("update_p50_ms", "ms", "lower", 0.25),
    ("update_p90_ms", "ms", "lower", 0.25),
    ("failed_ops", "count", "lower", EXACT),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("sketch_state_mb", "MiB", "lower", EXACT),
    ("wal_bytes_per_commit", "B", "lower", EXACT),
    ("recovery_s", "s", "lower", 0.25),
]

# (name, unit, better).  Times are self times of the external spans in
# spans.py; see layers.py for how each metric is derived.
PER_LAYER: list[tuple[str, str, str]] = [
    ("sql.parse_s", "s", "lower"),
    ("sql.parse_calls", "count", "lower"),
    ("sql.translate_s", "s", "lower"),
    ("sql.template_s", "s", "lower"),
    ("sql.parses_per_query", "ratio", "lower"),
    ("relational.optimize_s", "s", "lower"),
    ("relational.optimize_calls", "count", "lower"),
    ("relational.evaluate_s", "s", "lower"),
    ("relational.kernel_filter_s", "s", "lower"),
    ("relational.kernel_project_s", "s", "lower"),
    ("relational.kernel_join_s", "s", "lower"),
    ("relational.kernel_aggregate_s", "s", "lower"),
    ("relational.kernel_distinct_s", "s", "lower"),
    ("relational.rows_scanned", "count", "lower"),
    ("relational.rows_returned", "count", "higher"),
    ("relational.rows_scanned_per_row_returned", "ratio", "lower"),
    ("sketch.capture_s", "s", "lower"),
    ("sketch.captures", "count", "lower"),
    ("sketch.partition_s", "s", "lower"),
    ("sketch.instrument_s", "s", "lower"),
    ("sketch.instrument_calls", "count", "lower"),
    ("sketch.instrument_cache_hit_ratio", "ratio", "higher"),
    ("sketch.fragments_covered_ratio", "ratio", "lower"),
    ("imp.ensure_s", "s", "lower"),
    ("imp.ensure_calls", "count", "lower"),
    ("imp.round_s", "s", "lower"),
    ("imp.rounds", "count", "lower"),
    ("imp.maintain_s", "s", "lower"),
    ("imp.maintain_calls", "count", "lower"),
    ("imp.restrict_s", "s", "lower"),
    ("imp.delta_tuples_in", "count", "lower"),
    ("imp.delta_tuples_compacted", "count", "lower"),
    ("imp.compaction_ratio", "ratio", "lower"),
    ("imp.delta_fetches", "count", "lower"),
    ("imp.delta_fetches_per_round", "ratio", "lower"),
    ("imp.maintain_us_per_delta_tuple", "us", "lower"),
    ("imp.recaptures", "count", "lower"),
    ("imp.fallback_queries", "count", "lower"),
    ("imp.store_hit_ratio", "ratio", "higher"),
    ("imp.store_evictions", "count", "lower"),
    ("storage.commit_s", "s", "lower"),
    ("storage.commits", "count", "lower"),
    ("storage.delta_fetch_s", "s", "lower"),
    ("storage.delta_compact_s", "s", "lower"),
    ("storage.audit_records", "count", "lower"),
    ("storage.index_scan_s", "s", "lower"),
    ("storage.index_scans", "count", "higher"),
    ("storage.full_scans", "count", "lower"),
    ("storage.row_scan_s", "s", "lower"),
    ("storage.column_batch_s", "s", "lower"),
    ("storage.column_batch_rebuilds", "count", "lower"),
    ("storage.wal_append_s", "s", "lower"),
    ("storage.wal_fsync_s", "s", "lower"),
    ("storage.wal_records", "count", "lower"),
    ("storage.wal_bytes", "B", "lower"),
    ("storage.fsyncs", "count", "lower"),
    ("storage.checkpoint_s", "s", "lower"),
    ("storage.checkpoints", "count", "lower"),
    ("storage.checkpoint_bytes", "B", "lower"),
    ("storage.recover_s", "s", "lower"),
    ("storage.recovered_commits_replayed", "count", "higher"),
    ("verify.queries_checked", "count", "higher"),
    ("verify.mismatches", "count", "lower"),
    ("verify.ns_query_p50_ms", "ms", "lower"),
    ("verify.sketch_speedup", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    # End-to-end metrics that exist on some workloads only (0 elsewhere) and
    # that tracing does not change; they ride along with the traced pass
    # because BENCHMARK.json's end-to-end list must hold on every workload.
    ("sketch_state_mb", "MiB", "lower"),
    ("wal_bytes_per_commit", "B", "lower"),
    ("recovery_s", "s", "lower"),
]

DETERMINISTIC_UNITS = ("count", "B")
"""Per-layer metrics in these units are counters: for a given seed and stream
length they must repeat exactly from run to run."""
