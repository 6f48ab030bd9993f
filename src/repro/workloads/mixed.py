"""Mixed query/update workloads (Sec. 8.1).

A mixed workload is a sequence of operations, each either a SQL query or an
update of a table, generated according to a *query-update ratio* such as
``1U5Q`` (one update per five queries) or ``5U1Q`` (five updates per query) and
a *delta size* (tuples affected per update).  The runner executes the workload
against any :class:`~repro.imp.middleware.WorkloadSystem` -- IMP, full
maintenance or the no-sketch baseline -- and reports the end-to-end runtime,
which is exactly what Fig. 8 plots.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field

from repro.imp.middleware import WorkloadSystem
from repro.relational.schema import Row
from repro.workloads.synthetic import DEFAULT_ATTRIBUTES, SyntheticTable


@dataclass
class Operation:
    """One operation of a mixed workload."""

    kind: str  # "query" or "update"
    sql: str | None = None
    table: str | None = None
    inserts: list[Row] = field(default_factory=list)
    deletes: list[Row] = field(default_factory=list)

    @property
    def delta_size(self) -> int:
        """Number of tuples affected by an update operation."""
        return len(self.inserts) + len(self.deletes)


def parse_ratio(ratio: str) -> tuple[int, int]:
    """Parse a query-update ratio such as ``"1U5Q"`` into ``(updates, queries)``."""
    ratio = ratio.upper().strip()
    if "U" not in ratio or "Q" not in ratio:
        raise ValueError(f"malformed ratio {ratio!r}; expected e.g. '1U5Q'")
    updates_part, queries_part = ratio.split("U", 1)
    queries_part = queries_part.rstrip("Q")
    return int(updates_part), int(queries_part)


def multi_sketch_templates(
    count: int, table: str = "r", threshold: float = 1000.0
) -> list[str]:
    """``count`` structurally distinct group-by/HAVING queries over one table.

    The multi-tenant scenario of the shared-delta maintenance scheduler:
    dozens of query templates (distinct aggregate/HAVING attribute pairs, so
    each gets its own sketch-store entry) all referencing the *same* base
    table.  Every update to the table makes every registered sketch stale at
    once, which is exactly the situation where per-sketch maintenance degrades
    to N identical audit-log extractions.
    """
    attributes = [name for name in DEFAULT_ATTRIBUTES if name != "a"]
    templates: list[str] = []
    for index in range(count):
        agg = attributes[index % len(attributes)]
        having = attributes[(index // len(attributes)) % len(attributes)]
        # The projection alias carries the index, so every query is a distinct
        # template (thresholds alone are parameterised away, Sec. 7.1) while
        # the attribute pairs keep the per-sketch maintenance work varied.
        templates.append(
            f"SELECT a, avg({agg}) AS v{index} FROM {table} "
            f"GROUP BY a HAVING avg({having}) < {threshold + index}"
        )
    return templates


class MixedWorkload:
    """Generates an interleaved sequence of queries and updates."""

    def __init__(
        self,
        table: SyntheticTable,
        query_factory: Callable[[random.Random], str],
        ratio: str = "1U1Q",
        delta_size: int = 20,
        num_operations: int = 100,
        insert_fraction: float = 0.5,
        seed: int = 42,
    ) -> None:
        self.table = table
        self.query_factory = query_factory
        self.updates_per_cycle, self.queries_per_cycle = parse_ratio(ratio)
        self.ratio = ratio
        self.delta_size = delta_size
        self.num_operations = num_operations
        self.insert_fraction = insert_fraction
        self.seed = seed

    def operations(self) -> Iterator[Operation]:
        """Yield the workload's operations in order.

        Note: update operations mutate the underlying :class:`SyntheticTable`
        handle as they are generated, so the workload must be generated and
        executed in lockstep (which :class:`WorkloadRunner` does).
        """
        rng = random.Random(self.seed)
        emitted = 0
        while emitted < self.num_operations:
            for _ in range(self.updates_per_cycle):
                if emitted >= self.num_operations:
                    return
                yield self._make_update(rng)
                emitted += 1
            for _ in range(self.queries_per_cycle):
                if emitted >= self.num_operations:
                    return
                yield Operation(kind="query", sql=self.query_factory(rng))
                emitted += 1

    def _make_update(self, rng: random.Random) -> Operation:
        insert_count = int(round(self.delta_size * self.insert_fraction))
        delete_count = self.delta_size - insert_count
        # Deletions are drawn before the new rows are generated so an update
        # never deletes a row it inserts itself (updates are applied as one
        # commit with deletions first, mirroring the backend's semantics).
        deletes = self.table.pick_deletes(delete_count) if delete_count else []
        inserts = self.table.make_inserts(insert_count) if insert_count else []
        return Operation(
            kind="update", table=self.table.name, inserts=inserts, deletes=deletes
        )


@dataclass
class WorkloadReport:
    """Result of running a workload against one system."""

    system: str
    ratio: str
    delta_size: int
    operations: int
    queries: int
    updates: int
    total_seconds: float
    query_seconds: float
    update_seconds: float

    def row(self) -> dict[str, object]:
        """Flat representation for the benchmark tables."""
        return {
            "system": self.system,
            "ratio": self.ratio,
            "delta": self.delta_size,
            "operations": self.operations,
            "total_seconds": round(self.total_seconds, 4),
        }


class WorkloadRunner:
    """Executes a mixed workload against a system and measures runtime."""

    def __init__(self, system: WorkloadSystem) -> None:
        self.system = system

    def run(self, workload: MixedWorkload) -> WorkloadReport:
        """Run every operation of ``workload`` and return a timing report."""
        queries = updates = 0
        query_seconds = update_seconds = 0.0
        started = time.perf_counter()
        for operation in workload.operations():
            if operation.kind == "query":
                assert operation.sql is not None
                op_started = time.perf_counter()
                self.system.run_query(operation.sql)
                query_seconds += time.perf_counter() - op_started
                queries += 1
            else:
                assert operation.table is not None
                op_started = time.perf_counter()
                self.system.apply_update(
                    operation.table, operation.inserts, operation.deletes
                )
                update_seconds += time.perf_counter() - op_started
                updates += 1
        total = time.perf_counter() - started
        return WorkloadReport(
            system=self.system.name,
            ratio=workload.ratio,
            delta_size=workload.delta_size,
            operations=queries + updates,
            queries=queries,
            updates=updates,
            total_seconds=total,
            query_seconds=query_seconds,
            update_seconds=update_seconds,
        )

    def run_operations(self, operations: Sequence[Operation]) -> WorkloadReport:
        """Run a pre-materialised operation list (used when comparing systems
        on byte-identical workloads)."""
        queries = updates = 0
        query_seconds = update_seconds = 0.0
        started = time.perf_counter()
        for operation in operations:
            if operation.kind == "query":
                assert operation.sql is not None
                op_started = time.perf_counter()
                self.system.run_query(operation.sql)
                query_seconds += time.perf_counter() - op_started
                queries += 1
            else:
                assert operation.table is not None
                op_started = time.perf_counter()
                self.system.apply_update(
                    operation.table, operation.inserts, operation.deletes
                )
                update_seconds += time.perf_counter() - op_started
                updates += 1
        total = time.perf_counter() - started
        return WorkloadReport(
            system=self.system.name,
            ratio="custom",
            delta_size=0,
            operations=queries + updates,
            queries=queries,
            updates=updates,
            total_seconds=total,
            query_seconds=query_seconds,
            update_seconds=update_seconds,
        )
