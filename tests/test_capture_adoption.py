"""A capture adopts the store's equal node and replays its result from state.

When a new template's engine would build the same stateful subplan over the
same partition as a node in the sketch store, and that node was built at the
version the capture runs at, the store hands the engine that node *before*
the capture (:meth:`~repro.imp.sketch_store.SketchStore.intern` with a
version), and the capture's from-scratch pass reads the node's output back
from its state (``replay()``) instead of scanning and folding the tables
again.  The cases pin:

(a) eight templates over one aggregation, captured through ``IMPSystem`` at
    one version, fold the table once, and every entry's sketch, ``μ`` counts
    and engine-state dump are those of an engine captured alone;
(b) ``replay()`` right after a from-scratch pass is that pass's output, entry
    for entry, for grouped and scalar aggregations, every aggregate, NULL,
    NaN, ±inf and DISTINCT;
(c) a commit or a round between two captures means no adoption;
(d) a writer that commits and a background round that runs while a capture
    adopts wait for it, and the new sketch is a fresh capture at its version.
"""

from __future__ import annotations

import math
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import StateError
from repro.imp.engine import IMPConfig, capture_sketch, compile_plan
from repro.imp.maintenance import IncrementalMaintainer
from repro.imp.middleware import IMPSystem
from repro.imp.operators import (
    IncrementalAggregation,
    IncrementalDistinct,
    Pass,
)
from repro.imp.persistence import dump_engine_state
from repro.relational.algebra import Aggregation, Distinct, walk_plan
from repro.sketch.ranges import DatabasePartition, RangePartition
from repro.storage.database import Database
from repro.workloads.mixed import multi_sketch_templates
from repro.workloads.synthetic import load_synthetic

TEMPLATES = multi_sketch_templates(8)


def _database() -> Database:
    database = Database()
    load_synthetic(database, num_rows=600, num_groups=40, seed=5)
    return database


class _ScratchFolds:
    """Counts the from-scratch passes ``IncrementalAggregation.process`` runs
    while installed."""

    def __init__(self) -> None:
        self.count = 0
        self._process = IncrementalAggregation.process

    def __enter__(self) -> "_ScratchFolds":
        process = self._process

        def counted(operator, run):
            self.count += run.from_scratch
            return process(operator, run)

        IncrementalAggregation.process = counted
        return self

    def __exit__(self, *exc_info) -> None:
        IncrementalAggregation.process = self._process


def _alone(database: Database, entry) -> IncrementalMaintainer:
    maintainer = IncrementalMaintainer(database, entry.plan, entry.partition, IMPConfig())
    maintainer.capture()
    return maintainer


def _assert_as_alone(database: Database, entries) -> None:
    for entry in entries:
        alone = _alone(database, entry)
        assert entry.sketch.mask == alone.sketch.mask, entry.sql
        assert list(entry.maintainer.engine._merge.counts.items()) == list(
            alone.engine._merge.counts.items()
        ), entry.sql
        assert dump_engine_state(entry.maintainer.engine) == dump_engine_state(alone.engine)


# -- (a) one fold for eight templates -------------------------------------------------


def test_eight_templates_at_one_version_fold_the_table_once():
    database = _database()
    system = IMPSystem(database, num_fragments=8)
    with _ScratchFolds() as folds:
        for sql in TEMPLATES:
            system.run_query(sql)
    entries = list(system.store.entries())
    assert len(entries) == 8 and system.store.statistics.captures == 8
    assert folds.count == 1
    assert len({id(entry.shared) for entry in entries}) == 1
    assert entries[0].shared.built_at == database.version
    _assert_as_alone(database, entries)
    # The adopted node is maintained for all eight like any shared node.
    system.apply_update("r", inserts=[(10_000 + i, i % 40, *[float(i)] * 9) for i in range(30)])
    for sql in TEMPLATES:
        system.run_query(sql)
    for entry in system.store.entries():
        assert entry.sketch.mask == capture_sketch(entry.plan, entry.partition, database).mask


# -- (b) replay is the from-scratch output ---------------------------------------------

VALUES = st.one_of(
    st.none(),
    st.integers(-4, 4),
    st.sampled_from([0.5, -2.25, math.nan, math.inf, -math.inf, 1e308]),
)
ROWS = st.lists(st.tuples(st.sampled_from([None, 0, 1, 3, 5, 7]), VALUES), max_size=25)
QUERIES = [
    "SELECT g, count(*) AS n, count(x) AS c, sum(x) AS s, avg(x) AS a, "
    "min(x) AS lo, max(x) AS hi FROM t GROUP BY g",
    "SELECT count(*) AS n, count(x) AS c, sum(x) AS s, avg(x) AS a, "
    "min(x) AS lo, max(x) AS hi FROM t",
    "SELECT sum(x) AS s, min(x) AS lo FROM t WHERE g > 100",
    "SELECT DISTINCT g, x FROM t",
    "SELECT DISTINCT g FROM t WHERE x > 0",
]


def _stateful_root(database: Database, sql: str):
    return next(
        node
        for node in walk_plan(database.plan(sql))
        if isinstance(node, (Aggregation, Distinct))
    )


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=ROWS, query=st.sampled_from(QUERIES))
def test_replay_is_the_from_scratch_output_entry_for_entry(rows, query):
    database = Database()
    database.create_table("t", ["id", "g", "x"], primary_key="id")
    if rows:
        database.insert("t", [(i, g, x) for i, (g, x) in enumerate(rows)])
    partition = DatabasePartition([RangePartition.from_boundaries("t", "g", [0, 2, 4, 8])])
    operator = compile_plan(_stateful_root(database, query), partition, database, IMPConfig())
    assert isinstance(operator, (IncrementalAggregation, IncrementalDistinct))
    built = operator.process(Pass.scratch(database.version))
    replayed = operator.replay()
    assert repr(replayed.rows()) == repr(built.rows())
    assert replayed.annotations == built.annotations
    assert replayed.multiplicities == built.multiplicities


def test_a_from_scratch_pass_over_a_node_built_at_another_version_raises():
    database = _database()
    system = IMPSystem(database, num_fragments=8)
    system.run_query(TEMPLATES[0])
    engine = next(system.store.entries()).maintainer.engine
    node = engine.shared
    system.apply_update("r", inserts=[(10_000, 1, *[1.0] * 9)])
    with pytest.raises(StateError):
        engine._merge.process_to_sketch_delta(Pass.scratch(database.version))
    assert node.built_at == database.version - 1


# -- (c) a commit or a round in between: no adoption ----------------------------------


def _update(system: IMPSystem, row_id: int) -> None:
    system.apply_update("r", inserts=[(row_id, row_id % 40, *[2.5] * 9)])


@pytest.mark.parametrize("with_round", [False, True])
def test_a_commit_or_a_round_between_captures_means_no_adoption(with_round):
    database = _database()
    system = IMPSystem(database, num_fragments=8)
    with _ScratchFolds() as folds:
        system.run_query(TEMPLATES[0])
        _update(system, 10_000)
        if with_round:
            # The round brings the first node to this version, but moves it:
            # its state is no longer what a capture here builds.
            system.scheduler.run_round()
            assert next(system.store.entries()).shared.built_at is None
        system.run_query(TEMPLATES[1])
    first, second = system.store.entries()
    assert folds.count == 2
    assert first.shared is not second.shared
    assert second.shared.built_at == database.version
    # A third capture at the second's version adopts the second's node.
    with _ScratchFolds() as folds:
        system.run_query(TEMPLATES[2])
    assert folds.count == 0
    assert list(system.store.entries())[2].shared is second.shared
    _assert_as_alone(database, list(system.store.entries())[1:])


# -- (d) commits and rounds wait for an adopting capture ------------------------------


def _copy_at(database: Database, version: int) -> Database:
    """A new database holding ``r`` as of ``version``."""
    copy = Database()
    stored = database.table("r")
    copy.create_table("r", list(stored.schema.attributes), primary_key="id")
    copy.insert("r", list(database.snapshot_relation("r", version).distinct_rows()))
    return copy


def test_a_commit_and_a_round_during_adoption_wait_for_the_capture():
    database = _database()
    system = IMPSystem(database, num_fragments=8)
    system.run_query(TEMPLATES[0])
    adopting, writer_started, committed = threading.Event(), threading.Event(), threading.Event()
    replay, put = IncrementalAggregation.replay, system.store.put
    registered = []

    def slow_replay(operator):
        adopting.set()
        assert writer_started.wait(timeout=5)
        # Long enough for the writer to block on the database lock and for
        # the background thread to try a round.
        committed.wait(timeout=0.2)
        return replay(operator)

    def recorded_put(entry):
        registered.append((entry.valid_at_version, entry.sketch))
        put(entry)

    def writer() -> None:
        assert adopting.wait(timeout=5)
        writer_started.set()
        _update(system, 20_000)
        committed.set()

    thread = threading.Thread(target=writer)
    thread.start()
    system.start_background_maintenance(interval=0.005)
    IncrementalAggregation.replay = slow_replay
    system.store.put = recorded_put
    try:
        version = database.version
        system.run_query(TEMPLATES[1])
    finally:
        IncrementalAggregation.replay = replay
        thread.join(timeout=10)
    assert not thread.is_alive()
    system.stop_background_maintenance(drain=True)
    first, second = system.store.entries()
    assert adopting.is_set() and committed.is_set()
    # The capture adopted the first node and ran wholly before the commit.
    assert second.shared is first.shared
    assert database.version == version + 1
    [(valid_at, sketch)] = registered
    assert valid_at == version
    fresh = capture_sketch(second.plan, second.partition, _copy_at(database, valid_at))
    assert sketch.mask == fresh.mask
    # The rounds since moved the node on for both consumers.
    for entry in (first, second):
        assert entry.valid_at_version == database.version
        assert entry.sketch.mask == capture_sketch(entry.plan, entry.partition, database).mask
