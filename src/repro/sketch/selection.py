"""Heuristic selection of sketch attributes and ranges.

Paper Sec. 7.4: IMP first identifies safe attributes, then prefers attributes
that are "important" for the query -- group-by attributes or attributes with an
efficient access path -- and derives ranges from the bounds of equi-depth
histograms so that data is spread evenly across fragments; equi-depth is the
only partitioning.  The histogram is built over the attribute's orderable
values (NULL and NaN sit in the table's outside fragment).  Ranges cover the
whole attribute domain, not only the active domain, so newly inserted values
still fall into some fragment.
"""

from __future__ import annotations

from repro.core.errors import SketchError
from repro.relational.algebra import Aggregation, PlanNode, walk_plan
from repro.relational.expressions import ColumnRef
from repro.relational.schema import Schema
from repro.sketch.ranges import DatabasePartition, RangePartition
from repro.sketch.safety import SafetyAnalyzer
from repro.storage.database import Database


def choose_sketch_attribute(
    plan: PlanNode, database: Database, table: str
) -> str | None:
    """Pick a sketch attribute of ``table`` for ``plan`` (None when unsafe).

    Preference order: numeric group-by attributes (in plan order), then any
    numeric safe attribute (in table order).  The search stops at the first
    hit, so column statistics are computed only for the attributes it tests
    up to that one.
    """
    analyzer = SafetyAnalyzer(plan, database)
    safe = analyzer.safe_attributes(table)
    if not safe:
        return None
    schema = database.schema_of(table)
    table_attributes = [Schema.bare_name(name) for name in schema]

    def numeric(attribute: str) -> bool:
        statistics = database.column_statistics(table, attribute)
        return isinstance(statistics.minimum, (int, float)) and not isinstance(
            statistics.minimum, bool
        )

    for node in walk_plan(plan):
        if isinstance(node, Aggregation):
            for expression in node.group_by:
                if isinstance(expression, ColumnRef):
                    attribute = Schema.bare_name(expression.name)
                    if attribute in safe and attribute in table_attributes and numeric(attribute):
                        return attribute
    for attribute in table_attributes:
        if attribute in safe and numeric(attribute):
            return attribute
    # Range partitions are defined over ordered numeric domains; a table whose
    # only safe attributes are non-numeric is left unpartitioned.
    return None


def build_partition(
    database: Database,
    table: str,
    attribute: str,
    num_fragments: int,
) -> RangePartition:
    """Build an equi-depth range partition for ``table.attribute`` from the
    bounds of its histogram, ignoring NULL and NaN (they sit in the table's
    outside fragment)."""
    if num_fragments <= 0:
        raise SketchError("num_fragments must be positive")
    try:
        boundaries = database.equi_depth_ranges(table, attribute, num_fragments)
    except ValueError as exc:
        raise SketchError(
            f"cannot partition empty column {table}.{attribute}; load data first"
        ) from exc
    except OverflowError as exc:
        raise SketchError(
            f"cannot partition {table}.{attribute}: a value is out of float range"
        ) from exc
    return RangePartition.from_boundaries(table, attribute, boundaries)


def build_database_partition(
    database: Database,
    plan: PlanNode,
    num_fragments: int,
) -> DatabasePartition:
    """Build partitions for every referenced table with a safe attribute.

    Tables without a safe attribute are left unpartitioned, which the paper
    models as a single range covering the whole domain -- equivalently, the
    sketch never filters those tables.
    """
    partition = DatabasePartition()
    for table in sorted(plan.referenced_tables()):
        attribute = choose_sketch_attribute(plan, database, table)
        if attribute is None:
            continue
        partition.add(build_partition(database, table, attribute, num_fragments))
    if not partition.tables():
        raise SketchError("no referenced table has a safe sketch attribute")
    return partition
