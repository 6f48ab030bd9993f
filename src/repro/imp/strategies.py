"""Maintenance strategies: eager (with batching) and lazy.

The paper supports two primitives (Sec. 2, evaluated in Sec. 8.5):

* **Eager** maintenance maintains every sketch that may be affected by an
  update right after the update (optionally batching several update
  statements before triggering maintenance; Fig. 16's batching benchmark
  drives the maintainers itself).
* **Lazy** maintenance passes updates straight to the database and only
  maintains a sketch when it is needed to answer a query.

More advanced policies can be composed from these two; the classes below make
the decision points explicit so the middleware stays strategy-agnostic.  A
strategy decides *when*; what a round did is the scheduler's to count.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class MaintenanceStrategy:
    """Decides when sketches affected by updates are maintained."""

    name = "abstract"

    def register_update(self, table: str, delta_tuples: int) -> None:
        """Record that ``table`` received an update of ``delta_tuples`` tuples."""
        raise NotImplementedError

    def tables_to_maintain(self) -> set[str]:
        """Tables whose sketches should be maintained *now* (eagerly)."""
        raise NotImplementedError

    def acknowledge_maintenance(self, tables: set[str]) -> None:
        """Tell the strategy that the given tables' sketches were maintained."""
        raise NotImplementedError

    def describe(self) -> str:
        """Readable description used in benchmark reports."""
        return self.name


@dataclass
class LazyStrategy(MaintenanceStrategy):
    """Never maintain on updates; maintenance happens on first use."""

    name = "lazy"

    def register_update(self, table: str, delta_tuples: int) -> None:  # noqa: D401
        return None

    def tables_to_maintain(self) -> set[str]:
        return set()

    def acknowledge_maintenance(self, tables: set[str]) -> None:
        return None


@dataclass
class EagerStrategy(MaintenanceStrategy):
    """Maintain affected sketches after every ``batch_size`` update
    statements."""

    batch_size: int = 1
    name = "eager"
    _pending: dict[str, int] = field(default_factory=dict, init=False)

    def register_update(self, table: str, delta_tuples: int) -> None:
        self._pending[table.lower()] = self._pending.get(table.lower(), 0) + 1

    def tables_to_maintain(self) -> set[str]:
        return {
            table for table, pending in self._pending.items() if pending >= self.batch_size
        }

    def acknowledge_maintenance(self, tables: set[str]) -> None:
        for table in tables:
            self._pending.pop(table.lower(), None)

    def pending(self, table: str) -> int:
        """Pending update statements recorded for ``table``."""
        return self._pending.get(table.lower(), 0)

    def describe(self) -> str:
        return f"eager(batch={self.batch_size} updates)"
