"""The five benchmark workloads: seeded inputs and the system each one drives.

Everything a run feeds the system under test is made here, from ``--seed``
alone and *before* any timing starts: base table rows, the query templates and
one fixed, pre-materialised operation stream (warm-up cycles followed by the
timed cycles).  The system only ever sees the generated
:class:`~repro.workloads.mixed.Operation` objects.

Two rules keep the streams replayable on a freshly loaded database, any number
of times:

* every query template keeps **fixed constants** (see the known defect in
  ``bench/README.md``: the middleware looks sketches up by constant-free
  template but evaluates the stored plan, so varying constants would return
  another query's rows);
* within one update, deletes are drawn from the live rows **before** the
  inserts are generated, so an update never deletes a row it inserts itself.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass

from repro.imp.middleware import IMPSystem, NoSketchSystem, WorkloadSystem
from repro.imp.strategies import EagerStrategy
from repro.relational.schema import Row
from repro.storage.database import Database
from repro.workloads.mixed import Operation, multi_sketch_templates
from repro.workloads.queries import q_endtoend, q_join, q_selpd
from repro.workloads.synthetic import (
    SyntheticTable,
    generate_rows,
    load_join_helper,
)
from repro.workloads.tpch import (
    CUSTOMER_COLUMNS,
    LINEITEM_COLUMNS,
    NATION_COLUMNS,
    ORDERS_COLUMNS,
    TPCH_QUERIES,
    TPCHData,
    load_tpch,
)

DATA_SEED = 7
"""The base tables are the same for every ``--seed``; the seed draws the
operation stream (which rows each update deletes, the rows it inserts).
Seeding the base data too moved query latencies by ~10% from seed to seed
(sketch coverage follows the data), which is variation of the input, not of
the program."""

EPOCHS = 6
"""The timed stream is cut into this many equal epochs (``ops_per_s`` is the
median epoch rate), so timed cycle counts are always a multiple of it and every
epoch holds the same mix of operations."""


@dataclass
class TableData:
    """One base table as loaded at the start of every set-up."""

    name: str
    columns: list[str]
    primary_key: str | None
    rows: list[Row]


@dataclass
class Inputs:
    """Everything one run of one workload feeds the system."""

    tables: list[TableData]
    templates: list[str]
    warm_ops: list[Operation]
    timed_ops: list[Operation]


@dataclass
class Size:
    """Data and stream size of a workload at one ``--scale``."""

    rows: int
    groups: int
    # Timed ratio cycles per second of lap time, calibrated on the build box so
    # one replay of the timed stream lasts about the lap time asked for.  The
    # count is fixed *before* the run (never "loop until the clock says
    # stop"), so every counter repeats exactly for a given seed.
    cycles_per_second: float
    warm_cycles: int = 1


@dataclass
class Workload:
    """A named workload: how to make its inputs and build its system."""

    name: str
    why: str
    updates_per_cycle: int
    queries_per_cycle: int
    delta_size: int
    sizes: dict[str, Size]
    make_data: Callable[[Size, int], tuple[list[TableData], list[str], "UpdateSource"]]
    make_system: Callable[[Database], WorkloadSystem]
    durable: bool = False

    def timed_cycles(self, scale: str, lap_seconds: float) -> int:
        """Number of timed ratio cycles, a positive multiple of :data:`EPOCHS`."""
        wanted = self.sizes[scale].cycles_per_second * lap_seconds
        return max(1, round(wanted / EPOCHS)) * EPOCHS

    def inputs(self, seed: int, scale: str, lap_seconds: float) -> Inputs:
        """Generate this workload's tables, templates and operation stream."""
        size = self.sizes[scale]
        tables, templates, source = self.make_data(size, seed)
        position = 0

        def cycles(count: int) -> list[Operation]:
            nonlocal position
            ops: list[Operation] = []
            for _ in range(count):
                for _ in range(self.updates_per_cycle):
                    ops.append(source.next_update(self.delta_size))
                for _ in range(self.queries_per_cycle):
                    ops.append(
                        Operation(kind="query", sql=templates[position % len(templates)])
                    )
                    position += 1
            return ops

        warm_ops = cycles(size.warm_cycles)
        timed_ops = cycles(self.timed_cycles(scale, lap_seconds))
        return Inputs(tables, templates, warm_ops, timed_ops)


@dataclass
class UpdateSource:
    """Draws the updates of one table: uniform deletes over the live rows plus
    fresh inserts from the dataset's own generator."""

    table: str
    live: list[Row]
    make_inserts: Callable[[int], list[Row]]
    rng: random.Random
    insert_fraction: float = 0.5

    def next_update(self, delta_size: int) -> Operation:
        insert_count = int(round(delta_size * self.insert_fraction))
        # Deletes first: victims come from rows that exist before this update.
        deletes = [self._pop_random() for _ in range(delta_size - insert_count)]
        inserts = self.make_inserts(insert_count)
        self.live.extend(inserts)
        return Operation(kind="update", table=self.table, inserts=inserts, deletes=deletes)

    def _pop_random(self) -> Row:
        # Swap-remove keeps each draw O(1); the dataset helpers' own
        # ``pick_deletes`` rebuild the whole row list per update.
        live = self.live
        index = self.rng.randrange(len(live))
        live[index], live[-1] = live[-1], live[index]
        return live.pop()


# -- data makers --------------------------------------------------------------------


def _synthetic_data(size: Size, seed: int) -> tuple[list[TableData], UpdateSource]:
    rows = list(generate_rows(size.rows, size.groups, seed=DATA_SEED))
    # The handle only generates inserts (fresh ids, same distribution); it
    # gets its own copy of the rows because make_inserts appends to it.
    handle = SyntheticTable(
        name="r", rows=list(rows), num_groups=size.groups, value_range=2_000, seed=seed
    )
    helper_rows = load_join_helper(Database(), join_domain=size.groups, seed=DATA_SEED + 1)
    tables = [
        TableData("r", handle.columns, "id", rows),
        TableData("tjoinhelp", ["hid", "ttid", "w"], "hid", helper_rows),
    ]
    source = UpdateSource("r", list(rows), handle.make_inserts, random.Random(seed + 2))
    return tables, source


def _mixed_1u5q_data(size: Size, seed: int):
    tables, source = _synthetic_data(size, seed)
    templates = [
        q_endtoend(low=800, high=900),
        q_selpd(where_threshold=400, having_threshold=300),
        q_join(filter_threshold=600, having_threshold=300),
    ]
    return tables, templates, source


def _mixed_5u1q_data(size: Size, seed: int):
    tables, source = _synthetic_data(size, seed)
    return tables, multi_sketch_templates(8), source


def _scan_analytics_data(size: Size, seed: int):
    tables, source = _synthetic_data(size, seed)
    templates = [
        "SELECT id, a, b, c FROM r WHERE b < 900",
        "SELECT a, sum(b) AS sb, avg(c) AS ac, count(*) AS n FROM r GROUP BY a",
        "SELECT DISTINCT a FROM r WHERE b < 500",
        "SELECT a, sum(w) AS sw FROM r JOIN tjoinhelp ON (a = ttid) GROUP BY a",
        # TopK has no batch kernel: the LIMIT runs on the row engine.
        "SELECT id, b FROM r WHERE b < 200 ORDER BY b, id LIMIT 10",
    ]
    return tables, templates, source


def _durable_commit_data(size: Size, seed: int):
    tables, source = _synthetic_data(size, seed)
    return tables[:1], [q_endtoend(low=800, high=900)], source


def _tpch_data(size: Size, seed: int):
    # ``rows`` is the lineitem count; load_tpch takes a scale factor.
    base = load_tpch(Database(), scale=size.rows / 60_000, seed=DATA_SEED)
    # Same tables, insert generator seeded by the run's seed.
    data = TPCHData(
        scale=base.scale,
        seed=seed,
        customers=base.customers,
        orders=base.orders,
        lineitems=list(base.lineitems),
        nations=base.nations,
    )
    tables = [
        TableData("nation", NATION_COLUMNS, "n_nationkey", data.nations),
        TableData("customer", CUSTOMER_COLUMNS, "c_custkey", data.customers),
        TableData("orders", ORDERS_COLUMNS, "o_orderkey", data.orders),
        TableData("lineitem", LINEITEM_COLUMNS, None, base.lineitems),
    ]
    source = UpdateSource(
        "lineitem",
        list(data.lineitems),
        data.make_lineitem_inserts,
        random.Random(seed + 2),
    )
    return tables, list(TPCH_QUERIES.values()), source


# -- system makers ------------------------------------------------------------------


def _lazy_imp(database: Database) -> WorkloadSystem:
    return IMPSystem(database, num_fragments=100)


def _eager_imp(database: Database) -> WorkloadSystem:
    return IMPSystem(database, num_fragments=100, strategy=EagerStrategy(batch_size=5))


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in [
        Workload(
            name="mixed_1u5q",
            why="The paper's headline mix: sketch use dominates (parse, template, "
            "lazy ensure, instrument, optimizer, index-scan batch evaluation).",
            updates_per_cycle=1,
            queries_per_cycle=5,
            delta_size=20,
            sizes={
                "full": Size(rows=30_000, groups=1_000, cycles_per_second=10.5),
                "smoke": Size(rows=1_000, groups=500, cycles_per_second=6.0),
            },
            make_data=_mixed_1u5q_data,
            make_system=_lazy_imp,
        ),
        Workload(
            name="mixed_5u1q",
            why="Update-heavy twin: eager shared-delta rounds in the update path "
            "(imp.scheduler/operators + storage commit/audit/delta do the work).",
            updates_per_cycle=5,
            queries_per_cycle=1,
            delta_size=40,
            sizes={
                "full": Size(rows=8_000, groups=200, cycles_per_second=25.5, warm_cycles=2),
                "smoke": Size(rows=1_000, groups=500, cycles_per_second=6.0),
            },
            make_data=_mixed_5u1q_data,
            make_system=_eager_imp,
        ),
        Workload(
            name="tpch_1u1q",
            why="Multi-way join state, Bloom pruning and top-k over three tables "
            "per sketch; the honest case where sketch use is slower than no sketch.",
            updates_per_cycle=1,
            queries_per_cycle=1,
            delta_size=50,
            sizes={
                "full": Size(rows=8_000, groups=0, cycles_per_second=25.5, warm_cycles=3),
                "smoke": Size(rows=1_500, groups=0, cycles_per_second=6.0, warm_cycles=3),
            },
            make_data=_tpch_data,
            make_system=_lazy_imp,
        ),
        Workload(
            name="scan_analytics",
            why="No sketches, no maintenance: vectorized kernels, batch expressions "
            "and the per-version ColumnBatch cache beside rare writes.",
            updates_per_cycle=1,
            queries_per_cycle=10,
            delta_size=20,
            sizes={
                "full": Size(rows=25_000, groups=500, cycles_per_second=3.0),
                "smoke": Size(rows=1_000, groups=500, cycles_per_second=1.0),
            },
            make_data=_scan_analytics_data,
            make_system=NoSketchSystem,
        ),
        Workload(
            name="durable_commit",
            why="The only workload with a data directory: WAL encode/append/fsync "
            "per commit, checkpoint stalls and a timed recovery of the WAL tail.",
            updates_per_cycle=20,
            queries_per_cycle=1,
            delta_size=20,
            sizes={
                "full": Size(rows=10_000, groups=1_000, cycles_per_second=36.0),
                "smoke": Size(rows=500, groups=250, cycles_per_second=6.0),
            },
            make_data=_durable_commit_data,
            make_system=_lazy_imp,
            durable=True,
        ),
    ]
}
