"""In-memory versioned backend database.

This package is the substitute for the Postgres backend used in the paper's
experiments.  It provides exactly the services IMP needs from a backend
(paper Sec. 2 and 7):

* storing base tables and answering relational algebra / SQL queries
  (:class:`repro.storage.database.Database`),
* tracking database versions via snapshot identifiers and extracting the
  delta between two versions from an audit log
  (:class:`repro.storage.snapshots.AuditLog`),
* evaluating join deltas ``ΔR ⋈ S`` that IMP outsources to the backend,
* equi-depth histogram statistics used to pick sketch ranges
  (:mod:`repro.storage.statistics`), and
* optional durability: a write-ahead log, checkpoints and crash recovery
  behind ``Database(data_dir=...)`` (:mod:`repro.storage.wal`,
  :mod:`repro.storage.recovery`), with a fault-injection harness
  (:mod:`repro.storage.faults`) proving every I/O prefix recovers.
"""

from repro.storage.database import Database
from repro.storage.delta import Delta, DatabaseDelta
from repro.storage.faults import CrashError, FaultInjector, count_io_points
from repro.storage.recovery import (
    DurabilityManager,
    RecoveryReport,
    recover_database,
    state_fingerprint,
)
from repro.storage.sessions import Session, SessionRegistry, SnapshotView
from repro.storage.snapshots import AuditLog, AuditRecord
from repro.storage.statistics import equi_depth_boundaries
from repro.storage.table import StoredTable
from repro.storage.wal import (
    FSYNC_ALWAYS,
    FSYNC_BATCH,
    FSYNC_OFF,
    FSYNC_POLICIES,
    WriteAheadLog,
    scan_wal,
)

__all__ = [
    "AuditLog",
    "AuditRecord",
    "CrashError",
    "Database",
    "DatabaseDelta",
    "Delta",
    "DurabilityManager",
    "FaultInjector",
    "FSYNC_ALWAYS",
    "FSYNC_BATCH",
    "FSYNC_OFF",
    "FSYNC_POLICIES",
    "RecoveryReport",
    "Session",
    "SessionRegistry",
    "SnapshotView",
    "StoredTable",
    "WriteAheadLog",
    "count_io_points",
    "equi_depth_boundaries",
    "recover_database",
    "scan_wal",
    "state_fingerprint",
]
