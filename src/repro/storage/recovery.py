"""Checkpointing and crash recovery for the durable backend.

A durable data directory holds two kinds of files::

    <data_dir>/wal.log                   the write-ahead log (repro.storage.wal)
    <data_dir>/checkpoint-<version>.ckpt full snapshots, newest wins

A *checkpoint* is one framed (length + CRC32) document holding the whole
database: catalog (schemas, primary keys, secondary-index attributes), every
table's rows in the live table's entry order (``StoredTable.items()``, the
order its column batch and float aggregates follow, so a restart answers
with the live bits), the version, and the LSN of the newest WAL record the
snapshot already contains.  It is encoded like a
WAL record (:func:`~repro.storage.wal.encode_record`, marshal version 2,
about 15% larger than the canonical JSON it replaced and written in about
half the time) and carries ``"format": 3``, the log's format; format-2
(marshal, same content) and format-1 (JSON) checkpoints are still read.  A
checkpointed table exists from the checkpoint's version on, which is as far
back as a recovered database can be pinned.  Opening a directory whose log
or newest checkpoint is an older format replays it, then checkpoints it,
and the rotation restarts the log in format 3: from then on nothing is
written in an older format.  Incremental-maintenance
state is not part of either file: a system over a recovered database starts
with an empty sketch store and captures each template again on its first
query.

Checkpoints are written crash-safely (tmp file -> fsync -> atomic rename ->
directory fsync) and only then is the WAL rotated, so every instant of the
sequence recovers: before the rename the old checkpoint plus the full log
apply; after it the new checkpoint skips the already-contained log prefix by
LSN.  The two newest checkpoints are retained so a bit-rotten newest file
degrades to the previous one instead of to nothing (with the documented
limit that the log may no longer reach back that far -- recovery then fails
*loudly* rather than serving a silently truncated history).

Recovery (:meth:`DurabilityManager.attach`, or :func:`recover_database` for
the offline CLI path) loads the newest valid checkpoint, replays the WAL
tail -- verifying that the versions of its commit and table DDL records
chain exactly ``+1`` from the checkpoint -- truncates any torn trailing
record, rebuilds secondary indexes from the recovered rows, and seeds the
audit log with the replayed deltas so MVCC sessions and incremental sketch
maintenance resume where they left off.
The recovered state is bit-identical to replaying the audit log serially;
``tests/test_crash_recovery.py`` proves it at every injectable I/O point.
"""

from __future__ import annotations

import hashlib
import os
import re
import zlib
from contextlib import suppress
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.errors import StorageError
from repro.relational.schema import Schema
from repro.storage.table import StoredTable, canonical_items
from repro.storage.wal import (
    FSYNC_ALWAYS,
    LEGACY_FORMAT,
    MARSHAL_FORMATS,
    RECORD_FORMAT,
    FileFactory,
    WriteAheadLog,
    decode_delta,
    decode_record,
    encode_delta,
    encode_record,
    encode_rows,
    frame,
    payload_format,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.storage.database import Database

WAL_FILE = "wal.log"
"""Name of the write-ahead log inside a data directory."""

_CHECKPOINT_PATTERN = re.compile(r"^checkpoint-(\d{12})\.ckpt$")
_CHECKPOINTS_KEPT = 2


def _checkpoint_name(version: int) -> str:
    return f"checkpoint-{version:012d}.ckpt"


@dataclass
class RecoveryReport:
    """What recovery found and did, for logs, tests and the CLI report."""

    data_dir: str
    fresh: bool = False
    checkpoint_path: str | None = None
    checkpoint_version: int = 0
    corrupt_checkpoints: list[str] = field(default_factory=list)
    wal_records_seen: int = 0
    wal_records_skipped: int = 0
    commits_replayed: int = 0
    ddl_replayed: int = 0
    torn_bytes_truncated: int = 0
    wal_notes: list[str] = field(default_factory=list)
    recovered_version: int = 0
    tables: dict[str, int] = field(default_factory=dict)

    def lines(self) -> list[str]:
        """Human-readable integrity report (printed by ``repro recover``)."""
        out = [f"data dir: {self.data_dir}"]
        if self.fresh:
            out.append("fresh data directory: nothing to recover")
        if self.checkpoint_path:
            out.append(
                f"checkpoint: {os.path.basename(self.checkpoint_path)} "
                f"(version {self.checkpoint_version})"
            )
        else:
            out.append("checkpoint: none (full WAL replay)")
        for path in self.corrupt_checkpoints:
            out.append(f"corrupt checkpoint skipped: {os.path.basename(path)}")
        out.append(
            f"wal: {self.wal_records_seen} records, "
            f"{self.wal_records_skipped} already in checkpoint, "
            f"{self.commits_replayed} commits + {self.ddl_replayed} DDL replayed"
        )
        if self.torn_bytes_truncated:
            notes = f" ({'; '.join(self.wal_notes)})" if self.wal_notes else ""
            out.append(f"torn tail truncated: {self.torn_bytes_truncated} bytes{notes}")
        else:
            out.append("torn tail: none")
        out.append(f"recovered version: {self.recovered_version}")
        for table, rows in sorted(self.tables.items()):
            out.append(f"table {table}: {rows} rows")
        return out


# ---------------------------------------------------------------------------
# Checkpoint encoding
# ---------------------------------------------------------------------------

def _checkpoint_payload(db: "Database", wal_lsn: int) -> dict:
    tables = []
    for name in db.table_names():
        stored = db.table(name)
        tables.append(
            {
                "name": stored.name,
                "attributes": list(stored.schema),
                "primary_key": stored.primary_key,
                "indexes": stored.indexed_attributes(),
                "last_modified": stored.last_modified_version,
                "rows": encode_rows(list(stored.items())),
            }
        )
    return {
        "format": RECORD_FORMAT,
        "database": db.name,
        "version": db.version,
        "wal_lsn": wal_lsn,
        "tables": tables,
    }


def load_checkpoint(path: str) -> dict:
    """Read and validate one checkpoint file.

    Raises :class:`StorageError` on any problem (truncated frame, checksum
    mismatch, a payload that does not decode, a document without its
    version, LSN and table list); recovery treats that as "this checkpoint
    does not exist" and falls back to the next-older one.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise StorageError(f"cannot read checkpoint {path!r}: {exc}") from exc
    if len(data) < 8:
        raise StorageError(f"checkpoint {path!r} is truncated")
    length = int.from_bytes(data[0:4], "big")
    crc = int.from_bytes(data[4:8], "big")
    payload = data[8 : 8 + length]
    if len(payload) != length:
        raise StorageError(f"checkpoint {path!r} is truncated")
    if zlib.crc32(payload) != crc:
        raise StorageError(f"checkpoint {path!r} failed its checksum")
    encoding = payload_format(payload)
    try:
        document = decode_record(payload, encoding)
    except StorageError as exc:
        raise StorageError(f"checkpoint {path!r}: {exc}") from exc
    formats = MARSHAL_FORMATS if encoding == RECORD_FORMAT else (LEGACY_FORMAT,)
    if not isinstance(document, dict) or document.get("format") not in formats:
        raise StorageError(f"checkpoint {path!r} has an unsupported format")
    if not _has_shape(document, _CHECKPOINT_SHAPE):
        raise StorageError(f"checkpoint {path!r} is malformed")
    return document


# The shape of every decoded document recovery reads: field -> check.  A
# record or checkpoint that decodes (its CRC held) but fails its shape is
# refused as malformed instead of failing deep inside the apply.
def _is_int(value) -> bool:
    return type(value) is int


def _is_name(value) -> bool:
    return type(value) is str


def _is_names(value) -> bool:
    return type(value) is list and all(type(name) is str for name in value)


def _is_key(value) -> bool:
    return value is None or type(value) is str


def _is_list(value) -> bool:
    return type(value) is list


def _is_table_map(value) -> bool:
    return type(value) is dict and all(type(name) is str for name in value)


_CHECKPOINT_SHAPE = {"version": _is_int, "wal_lsn": _is_int, "tables": _is_list}
_TABLE_SHAPE = {
    "name": _is_name,
    "attributes": _is_names,
    "primary_key": _is_key,
    "indexes": _is_names,
    "last_modified": _is_int,
    "rows": _is_list,
}
_RECORD_SHAPES = {
    "commit": {"version": _is_int, "tables": _is_table_map},
    "create_table": {
        "version": _is_int,
        "name": _is_name,
        "attributes": _is_names,
        "primary_key": _is_key,
    },
    "drop_table": {"version": _is_int, "name": _is_name},
    "create_index": {"table": _is_name, "attribute": _is_name},
}
# The DDL records that commit a version of their own.
_VERSIONED_DDL = ("create_table", "drop_table")


def _has_shape(document, shape: dict) -> bool:
    return type(document) is dict and all(
        check(document.get(name)) for name, check in shape.items()
    )


def state_fingerprint(db: "Database") -> dict:
    """A content fingerprint of a database's durable state.

    Rows are hashed in canonical order, so two databases fingerprint equal
    exactly when their versions, catalogs and table contents (as bags) are
    identical -- the equivalence the crash harness and the ``repro recover``
    integrity report rely on.
    """
    tables = {}
    for name in db.table_names():
        stored = db.table(name)
        body = encode_record(
            {
                "attributes": list(stored.schema),
                "primary_key": stored.primary_key,
                "rows": encode_rows(canonical_items(stored.items())),
            }
        )
        tables[name] = {
            "rows": len(stored),
            "indexes": stored.indexed_attributes(),
            "sha256": hashlib.sha256(body).hexdigest(),
        }
    return {"version": db.version, "tables": tables}


# ---------------------------------------------------------------------------
# The durability manager
# ---------------------------------------------------------------------------

class DurabilityManager:
    """Owns one data directory: its WAL, its checkpoints, its recovery.

    Created by :class:`~repro.storage.database.Database` when ``data_dir`` is
    passed; all calls happen under the database's write lock (commits, DDL
    and checkpoints are already serialized there), so the manager needs no
    locking of its own.
    """

    def __init__(
        self,
        data_dir: str,
        fsync: str = FSYNC_ALWAYS,
        batch_interval: int = 32,
        checkpoint_interval: int | None = None,
        files: FileFactory | None = None,
    ) -> None:
        if checkpoint_interval is not None and checkpoint_interval <= 0:
            raise StorageError("checkpoint_interval must be positive")
        self.data_dir = data_dir
        self.checkpoint_interval = checkpoint_interval
        self._files = files or FileFactory()
        self._wal = WriteAheadLog(
            os.path.join(data_dir, WAL_FILE),
            fsync=fsync,
            batch_interval=batch_interval,
            files=self._files,
        )
        self._checkpoint_version = 0
        self._commits_since_checkpoint = 0
        self.last_checkpoint_error: str | None = None

    # -- properties --------------------------------------------------------------

    @property
    def checkpoint_version(self) -> int:
        """Version of the last durable checkpoint (0 when none exists)."""
        return self._checkpoint_version

    @property
    def wal(self) -> WriteAheadLog:
        return self._wal

    # -- recovery ----------------------------------------------------------------

    def attach(self, db: "Database") -> RecoveryReport:
        """Recover the directory's state into ``db`` and open the WAL.

        ``db`` must be freshly constructed (no tables, version 0); existing
        directories are replayed into it, fresh ones leave it empty.  A
        directory whose log or newest checkpoint is an older format is
        checkpointed once replayed, which restarts its log in the current
        format.
        """
        try:
            os.makedirs(self.data_dir, exist_ok=True)
        except OSError as exc:
            raise StorageError(
                f"cannot create data directory {self.data_dir!r}: {exc}"
            ) from exc
        report = RecoveryReport(data_dir=self.data_dir)
        checkpoint = self._load_latest_checkpoint(report)
        if checkpoint is not None:
            self._apply_checkpoint(db, checkpoint, report)
        skip_lsn = checkpoint["wal_lsn"] if checkpoint is not None else -1
        try:
            scan = self._wal.open(first_lsn=skip_lsn + 1)
        except OSError as exc:
            raise StorageError(
                f"cannot open write-ahead log in {self.data_dir!r}: {exc}"
            ) from exc
        report.wal_records_seen = len(scan.records)
        report.torn_bytes_truncated = scan.torn_bytes
        report.wal_notes = list(scan.notes)
        try:
            # Formats 1 and 2 logged a DDL record without the version it
            # commits: such a record takes the next version, and each later
            # commit record of the log is that many versions behind.
            unversioned = 0
            for record in scan.records:
                if record["lsn"] <= skip_lsn:
                    report.wal_records_skipped += 1
                    continue
                if (
                    scan.format != RECORD_FORMAT
                    and record.get("type") in _VERSIONED_DDL
                    and "version" not in record
                ):
                    record = {**record, "version": db.version + 1}
                    unversioned += 1
                self._replay_record(db, record, unversioned, report)
            report.fresh = (
                checkpoint is None and not scan.existed and not scan.records
            )
            if scan.format != RECORD_FORMAT or (
                checkpoint is not None and checkpoint["format"] != RECORD_FORMAT
            ):
                self.checkpoint(db)
        except BaseException:
            # A refused record or a failed format checkpoint leaves no open
            # log behind; the error that refused the directory is reported.
            with suppress(OSError):
                self._wal.close()
            raise
        report.recovered_version = db.version
        report.tables = {name: len(db.table(name)) for name in db.table_names()}
        return report

    def _load_latest_checkpoint(self, report: RecoveryReport) -> dict | None:
        candidates = []
        if os.path.isdir(self.data_dir):
            for entry in os.listdir(self.data_dir):
                match = _CHECKPOINT_PATTERN.match(entry)
                if match:
                    candidates.append((int(match.group(1)), entry))
        for _version, entry in sorted(candidates, reverse=True):
            path = os.path.join(self.data_dir, entry)
            try:
                checkpoint = load_checkpoint(path)
            except StorageError:
                report.corrupt_checkpoints.append(path)
                continue
            report.checkpoint_path = path
            report.checkpoint_version = checkpoint["version"]
            return checkpoint
        return None

    def _apply_checkpoint(
        self, db: "Database", checkpoint: dict, report: RecoveryReport
    ) -> None:
        try:
            tables = []
            for entry in checkpoint["tables"]:
                if not _has_shape(entry, _TABLE_SHAPE):
                    raise StorageError(
                        f"checkpoint {report.checkpoint_path!r} is malformed"
                    )
                stored = StoredTable(
                    entry["name"], Schema(entry["attributes"]), entry["primary_key"]
                )
                # A checkpointed table loads as the one delta inserting its rows.
                rows = decode_delta({"inserts": entry["rows"], "deletes": []}, stored.schema)
                stored.check_delta(rows)
                stored.apply_delta(rows)
                for attribute in entry["indexes"]:
                    stored.create_index(attribute)
                if entry["last_modified"]:
                    stored.record_modified(entry["last_modified"])
                tables.append(stored)
            db._restore(checkpoint["version"], tables)
        except (KeyError, TypeError, ValueError) as exc:
            raise StorageError(
                f"checkpoint {report.checkpoint_path!r} is malformed: {exc!r}"
            ) from exc
        self._checkpoint_version = checkpoint["version"]

    def _replay_record(
        self, db: "Database", record: dict, unversioned: int, report: RecoveryReport
    ) -> None:
        """Apply one WAL record.  A commit or table DDL record must commit
        ``db.version + 1``; a commit record's version is ``unversioned``
        behind that in a log whose DDL records carried none."""
        try:
            kind = record["type"]
            shape = _RECORD_SHAPES.get(kind)
            if shape is None:
                raise StorageError(f"unknown WAL record type {kind!r}")
            if not _has_shape(record, shape):
                raise StorageError(f"WAL record lsn={record['lsn']} is malformed")
            if "version" in shape:
                version = record["version"] + (unversioned if kind == "commit" else 0)
                if version != db.version + 1:
                    raise StorageError(
                        f"WAL replay expected {kind} version {db.version + 1} "
                        f"but found {version} (history gap -- the log does not "
                        f"chain onto the recovered checkpoint)"
                    )
            if kind == "commit":
                deltas = {}
                for table, payload in record["tables"].items():
                    deltas[table] = decode_delta(payload, db.table(table).schema)
                db._commit(deltas)
                report.commits_replayed += 1
            elif kind == "create_table":
                db.create_table(
                    record["name"], Schema(record["attributes"]), record["primary_key"]
                )
                report.ddl_replayed += 1
            elif kind == "drop_table":
                db.drop_table(record["name"])
                report.ddl_replayed += 1
            else:  # create_index
                db.create_index(record["table"], record["attribute"])
                report.ddl_replayed += 1
        except StorageError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise StorageError(
                f"WAL record lsn={record.get('lsn')} is malformed: {exc!r}"
            ) from exc

    # -- logging (called by Database under its write lock) -----------------------

    def log_commit(self, version: int, deltas: dict) -> None:
        """Append a commit record; raises without side effects on failure."""
        self._wal.append(
            {
                "type": "commit",
                "version": version,
                "tables": {table: encode_delta(delta) for table, delta in deltas.items()},
            }
        )
        self._commits_since_checkpoint += 1

    def log_create_table(
        self, name: str, schema: Schema, primary_key: str | None, version: int
    ) -> None:
        self._wal.append(
            {
                "type": "create_table",
                "version": version,
                "name": name,
                "attributes": list(schema),
                "primary_key": primary_key,
            }
        )

    def log_drop_table(self, name: str, version: int) -> None:
        self._wal.append({"type": "drop_table", "version": version, "name": name})

    def log_create_index(self, table: str, attribute: str) -> None:
        self._wal.append({"type": "create_index", "table": table, "attribute": attribute})

    def auto_checkpoint_due(self) -> bool:
        """Whether the configured commit interval has elapsed."""
        return (
            self.checkpoint_interval is not None
            and self._commits_since_checkpoint >= self.checkpoint_interval
        )

    # -- checkpointing -----------------------------------------------------------

    def checkpoint(self, db: "Database") -> str:
        """Write a full snapshot, rotate the WAL, prune old checkpoints.

        Crash-safe at every step: the snapshot becomes visible only through
        an atomic rename of a fully synced temp file, the WAL is rotated only
        after the rename is durable (records made redundant in between are
        skipped by LSN on replay), and stray temp files or extra old
        checkpoints left by a crash are simply ignored or re-pruned later.
        """
        final_path = os.path.join(self.data_dir, _checkpoint_name(db.version))
        tmp_path = final_path + ".tmp"
        try:
            self._wal.sync()
            payload = encode_record(_checkpoint_payload(db, self._wal.last_lsn))
            handle = self._files.open(tmp_path)
            try:
                handle.write(frame(payload))
                handle.sync()
            finally:
                handle.close()
            self._files.replace(tmp_path, final_path)
            self._files.sync_dir(self.data_dir)
        except OSError as exc:
            self.last_checkpoint_error = str(exc)
            raise StorageError(f"checkpoint failed ({exc}); previous state intact") from exc
        self._checkpoint_version = db.version
        self._commits_since_checkpoint = 0
        self.last_checkpoint_error = None
        try:
            self._wal.rotate()
        except OSError as exc:
            # The checkpoint itself is durable; an unrotated (stale) log
            # prefix is merely skipped by LSN on the next recovery.
            self.last_checkpoint_error = str(exc)
            raise StorageError(
                f"log rotation after checkpoint failed ({exc}); the checkpoint "
                "is durable and recovery skips the stale log prefix"
            ) from exc
        self._prune_checkpoints(keep=final_path)
        return final_path

    def _prune_checkpoints(self, keep: str) -> None:
        entries = []
        for entry in os.listdir(self.data_dir):
            if _CHECKPOINT_PATTERN.match(entry):
                entries.append(entry)
        for entry in sorted(entries, reverse=True)[_CHECKPOINTS_KEPT:]:
            path = os.path.join(self.data_dir, entry)
            if path == keep:  # pragma: no cover - defensive, keep is newest
                continue
            try:
                self._files.remove(path)
            except OSError:  # pragma: no cover - pruning is best-effort
                pass

    def close(self) -> None:
        """Flush and close the WAL (the data directory stays recoverable)."""
        self._wal.close()


def recover_database(
    data_dir: str, files: FileFactory | None = None
) -> tuple["Database", "RecoveryReport"]:
    """Offline recovery: open ``data_dir`` and return the database + report.

    This is the ``repro recover`` code path; it performs exactly what
    constructing ``Database(data_dir=...)`` does (including truncating a torn
    WAL tail) and hands back the report for the integrity printout.
    """
    from repro.storage.database import Database

    db = Database(os.path.basename(os.path.normpath(data_dir)) or "recovered",
                  data_dir=data_dir, files=files)
    return db, db.recovery_report
