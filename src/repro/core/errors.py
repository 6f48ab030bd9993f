"""Exception hierarchy for the IMP reproduction library.

Every error raised by the library derives from :class:`IMPError` so callers can
catch a single base class.  Subclasses group errors by subsystem which keeps
error handling in applications explicit without forcing them to know about
internal modules.
"""

from __future__ import annotations


class IMPError(Exception):
    """Base class of all exceptions raised by the ``repro`` library."""


class SchemaError(IMPError):
    """Raised when a schema is malformed or an attribute reference is invalid."""


class ParseError(IMPError):
    """Raised by the SQL lexer/parser on malformed input.

    The error message contains the offending token and, when available, the
    position in the input string, so applications can surface useful feedback.
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class PlanError(IMPError):
    """Raised when a logical plan cannot be built or compiled.

    Examples: translating a SQL AST that references unknown tables, or
    compiling an incremental plan for an operator IMP does not support.
    """


class StorageError(IMPError):
    """Raised by the in-memory backend database.

    Covers unknown tables, schema mismatches on insert, invalid snapshot
    identifiers, and attempts to mutate a database through a closed session.
    """


class SketchError(IMPError):
    """Raised for invalid sketch operations.

    Examples: building a sketch against a partition of a different table,
    merging sketches defined over different range partitions, or using a
    sketch whose attribute is not safe for the target query.
    """


class AggregateError(IMPError):
    """Raised when an aggregate meets a value it cannot aggregate.

    ``sum``/``avg`` over a non-numeric value (text) or ``min``/``max`` over
    values that do not compare.  The batch engine, the reference oracle and
    the incremental engine raise it alike, naming the aggregate.
    """


class StateError(IMPError):
    """Raised when incremental operator state is missing or inconsistent.

    The most common cause is feeding a delta into an engine whose state was
    built for a different database version, or evicting state that is later
    required without re-initialisation.
    """


class UnsupportedOperationError(IMPError):
    """Raised for operations the engine intentionally does not support.

    The paper's engine supports selection, projection, join/cross product,
    aggregation (sum/count/avg/min/max), HAVING, duplicate elimination and
    top-k.  Set operations, outer joins and recursive queries raise this error
    so callers can fall back to full maintenance.
    """
