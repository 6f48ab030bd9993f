"""Tests for the durability layer: WAL format, checkpoints, recovery.

These are the deterministic, targeted tests of the durable backend: on-disk
framing and torn-tail handling, checkpoint atomicity and fallback, WAL/version
chaining, dirty-shutdown edge cases (ENOSPC mid-append, failing fsync,
zero-length and garbage log files), the retention-safety interaction between
audit pruning and checkpoints, and the recovered database behaving as a
first-class citizen (sessions, snapshot reads, persisted IMP state).  The
exhaustive every-I/O-point crash sweep lives in ``test_crash_recovery.py``.
"""

from __future__ import annotations

import decimal
import enum
import errno
import os
import random
import struct

import pytest

from repro.core.errors import StorageError
from repro.imp.engine import capture_sketch
from repro.imp.middleware import IMPSystem
from repro.storage.database import Database
from repro.storage.delta import DatabaseDelta, Delta
from repro.storage.faults import FaultInjector
from repro.storage.recovery import (
    WAL_FILE,
    load_checkpoint,
    recover_database,
    state_fingerprint,
)
from repro.storage.wal import (
    FSYNC_ALWAYS,
    FSYNC_BATCH,
    FSYNC_OFF,
    WAL_MAGIC,
    WriteAheadLog,
    encode_record,
    frame,
    scan_wal,
)
from repro.workloads.queries import q_groups
from repro.workloads.synthetic import load_synthetic
from tests.legacy_format import frame_v1, legacy_records, write_v1_log
from tests.reference import answer


class Color(enum.IntEnum):
    RED = 1


def wal_path(tmp_path) -> str:
    return str(tmp_path / "wal.log")


def build_sample_db(data_dir: str, **kwargs) -> Database:
    """A small durable database with DDL, an index and three commits."""
    db = Database("sample", data_dir=data_dir, **kwargs)
    db.create_table("r", ["id", "a", "v"], primary_key="id")
    db.create_index("r", "a")
    db.insert("r", [(1, 10, 1.5), (2, 20, 2.5), (3, 10, 3.25)])
    db.insert("r", [(4, 30, 4.0)])
    db.delete_rows("r", [(2, 20, 2.5)])
    return db


class TestWalFormat:
    def test_append_scan_round_trip(self, tmp_path):
        log = WriteAheadLog(wal_path(tmp_path))
        log.open()
        assert log.append({"type": "commit", "version": 1}) == 0
        assert log.append({"type": "commit", "version": 2}) == 1
        log.close()
        scan = scan_wal(wal_path(tmp_path))
        assert [r["version"] for r in scan.records] == [1, 2]
        assert [r["lsn"] for r in scan.records] == [0, 1]
        assert scan.torn_bytes == 0

    def test_fresh_file_gets_magic(self, tmp_path):
        log = WriteAheadLog(wal_path(tmp_path))
        scan = log.open()
        log.close()
        assert not scan.existed
        with open(wal_path(tmp_path), "rb") as handle:
            assert handle.read() == WAL_MAGIC

    def test_every_truncation_point_recovers_the_prefix(self, tmp_path):
        """Chop the file at every byte length: the scan must always return
        exactly the records whose frames are fully intact."""
        path = wal_path(tmp_path)
        log = WriteAheadLog(path)
        log.open()
        boundaries = [len(WAL_MAGIC)]
        for version in (1, 2, 3):
            log.append({"type": "commit", "version": version, "pad": "x" * 20})
            boundaries.append(log.size_bytes)
        log.close()
        blob = open(path, "rb").read()
        for cut in range(len(blob) + 1):
            with open(path, "wb") as handle:
                handle.write(blob[:cut])
            scan = scan_wal(path)
            expected = sum(1 for b in boundaries[1:] if b <= cut)
            assert len(scan.records) == expected, f"cut at {cut}"
            if cut < len(WAL_MAGIC):
                # The magic itself is torn: the whole file is the tear.
                assert scan.torn_bytes == cut
            else:
                assert scan.torn_bytes == cut - boundaries[expected]

    def test_reopen_truncates_torn_tail_and_appends(self, tmp_path):
        path = wal_path(tmp_path)
        log = WriteAheadLog(path)
        log.open()
        log.append({"type": "commit", "version": 1})
        end = log.size_bytes
        log.close()
        with open(path, "ab") as handle:
            handle.write(b"\x00\x00\x00\x10partial")  # torn frame
        log = WriteAheadLog(path)
        scan = log.open()
        assert len(scan.records) == 1 and scan.torn_bytes > 0
        assert os.path.getsize(path) == end
        log.append({"type": "commit", "version": 2})
        log.close()
        final = scan_wal(path)
        assert [r["version"] for r in final.records] == [1, 2]
        assert [r["lsn"] for r in final.records] == [0, 1]
        assert final.torn_bytes == 0

    def test_corrupted_payload_byte_stops_the_scan(self, tmp_path):
        path = wal_path(tmp_path)
        log = WriteAheadLog(path)
        log.open()
        log.append({"type": "commit", "version": 1})
        log.append({"type": "commit", "version": 2})
        log.close()
        blob = bytearray(open(path, "rb").read())
        blob[-2] ^= 0xFF  # flip a byte inside the last record's payload
        open(path, "wb").write(bytes(blob))
        scan = scan_wal(path)
        assert [r["version"] for r in scan.records] == [1]
        assert "checksum" in " ".join(scan.notes)

    def test_garbage_file_is_rejected_loudly(self, tmp_path):
        path = wal_path(tmp_path)
        open(path, "wb").write(b"definitely not a wal file")
        with pytest.raises(StorageError, match="not a repro write-ahead log"):
            scan_wal(path)

    def test_zero_length_and_torn_magic_are_fresh(self, tmp_path):
        path = wal_path(tmp_path)
        open(path, "wb").close()
        assert scan_wal(path).records == []
        open(path, "wb").write(WAL_MAGIC[:4])
        scan = scan_wal(path)
        assert scan.records == [] and scan.torn_bytes == 4
        log = WriteAheadLog(path)
        log.open()
        log.append({"type": "commit", "version": 1})
        log.close()
        assert len(scan_wal(path).records) == 1

    def test_rotation_keeps_lsns_increasing(self, tmp_path):
        path = wal_path(tmp_path)
        log = WriteAheadLog(path)
        log.open()
        log.append({"v": 1})
        log.append({"v": 2})
        log.rotate()
        assert log.append({"v": 3}) == 2
        log.close()
        assert [r["lsn"] for r in scan_wal(path).records] == [2]

    def test_unknown_fsync_policy_is_rejected(self, tmp_path):
        with pytest.raises(StorageError, match="fsync policy"):
            WriteAheadLog(wal_path(tmp_path), fsync="sometimes")
        with pytest.raises(StorageError, match="batch_interval"):
            WriteAheadLog(wal_path(tmp_path), fsync=FSYNC_BATCH, batch_interval=0)

    def test_unserializable_record_is_a_storage_error(self, tmp_path):
        log = WriteAheadLog(wal_path(tmp_path))
        log.open()
        for bad in (object(), Color.RED, decimal.Decimal("1.5")):
            with pytest.raises(StorageError, match="not serializable"):
                log.append({"bad": [bad]})
        assert log.size_bytes == len(WAL_MAGIC)
        log.close()

    def test_unserializable_value_leaves_memory_and_log_untouched(self, tmp_path):
        db = build_sample_db(str(tmp_path / "d"))
        before = state_fingerprint(db)
        wal_size = db._durability.wal.size_bytes
        for bad in (Color.RED, decimal.Decimal("1.5")):
            with pytest.raises(StorageError, match="not serializable"):
                db.insert("r", [(50, 5, bad)])
        assert state_fingerprint(db) == before
        assert db._durability.wal.size_bytes == wal_size
        assert os.path.getsize(tmp_path / "d" / WAL_FILE) == wal_size
        db.close()
        recovered, _report = recover_database(str(tmp_path / "d"))
        assert state_fingerprint(recovered) == before

    def test_values_round_trip_exactly(self, tmp_path):
        """bytes, -0.0, a NaN with payload bits and ints above 2**63 come
        back with their type and bits, through the log and a checkpoint."""
        odd_nan = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0123))[0]
        rows = [
            (1, b"\x00\xffraw", -0.0),
            (2, 2**70, odd_nan),
            (3, -(2**70), True),
            (4, None, "t\u00e9xt"),
        ]

        def bits(row):
            return tuple(
                (type(value), struct.pack("<d", value) if type(value) is float else value)
                for value in row
            )

        expected = sorted(bits(row) for row in rows)
        for checkpoint in (False, True):
            data_dir = str(tmp_path / f"d{checkpoint}")
            db = Database("exact", data_dir=data_dir)
            db.create_table("t", ["id", "x", "y"], primary_key="id")
            db.insert("t", rows)
            if checkpoint:
                db.checkpoint()
            db.close()
            recovered, report = recover_database(data_dir)
            assert report.checkpoint_version == (2 if checkpoint else 0)
            got = sorted(bits(row) for row, _count in recovered.table("t").items())
            assert got == expected


class TestDurableDatabase:
    def test_round_trip_is_bit_identical(self, tmp_path):
        db = build_sample_db(str(tmp_path / "d"))
        before = state_fingerprint(db)
        db.close()
        recovered, report = recover_database(str(tmp_path / "d"))
        assert state_fingerprint(recovered) == before
        assert report.commits_replayed == 3 and report.ddl_replayed == 2
        assert recovered.has_index("r", "a")
        assert recovered.table("r").last_modified_version == 4

    def test_recovery_without_close_models_a_kill(self, tmp_path):
        # The WAL file is unbuffered, so simply abandoning the object (no
        # close, no flush) must lose nothing -- like a process kill.
        db = build_sample_db(str(tmp_path / "d"))
        before = state_fingerprint(db)
        recovered, _report = recover_database(str(tmp_path / "d"))
        assert state_fingerprint(recovered) == before

    def test_checkpoint_rotates_and_recovery_replays_the_tail(self, tmp_path):
        db = build_sample_db(str(tmp_path / "d"))
        path = db.checkpoint()
        assert os.path.basename(path) == "checkpoint-000000000004.ckpt"
        assert db.last_checkpoint_version == 4
        db.insert("r", [(5, 40, 5.5)])
        before = state_fingerprint(db)
        db.close()
        recovered, report = recover_database(str(tmp_path / "d"))
        assert state_fingerprint(recovered) == before
        assert report.checkpoint_version == 4
        assert report.commits_replayed == 1  # only the post-checkpoint commit

    @pytest.mark.parametrize("tail", [False, True])
    def test_a_restart_answers_as_the_live_database(self, tmp_path, tail):
        """A checkpoint writes rows in the live entry order, so a reopened
        database sums wide-range floats and cuts LIMIT ties as the live one
        did, by ``repr``: right after the checkpoint and with a WAL tail."""
        rng = random.Random(20)
        data_dir = str(tmp_path / "d")
        db = Database("floats", data_dir=data_dir)
        db.create_table("t", ["id", "g", "k", "x"])
        rows = [
            (i, i % 7, 0, rng.uniform(-1, 1) * 10 ** rng.randrange(-6, 16)) for i in range(3000)
        ]
        db.insert("t", rows[:2000])
        db.insert("t", rows[2000:])
        moved = rows[::40]
        db.delete_rows("t", moved)
        db.insert("t", moved[::-1])  # deleted and re-inserted in another order
        db.checkpoint()
        if tail:
            db.delete_rows("t", rows[1::90])
            db.insert("t", rows[1::90][::-1] + [(3000, 1, 0, 1e15 / 7)])
        queries = [
            "SELECT g, sum(x) AS s FROM t GROUP BY g",
            "SELECT id, k FROM t ORDER BY k LIMIT 2",
        ]
        live = [answer(db.query(sql)) for sql in queries]
        db.close()
        reopened = Database("floats", data_dir=data_dir)
        assert [answer(reopened.query(sql)) for sql in queries] == live
        reopened.close()

    def test_crash_between_checkpoint_and_rotation_is_skipped_by_lsn(self, tmp_path):
        db = build_sample_db(str(tmp_path / "d"))
        db.checkpoint()
        # Simulate the crash window by re-appending the pre-checkpoint
        # history: records whose LSN the checkpoint already covers must be
        # skipped, not replayed (replaying would double-apply).
        checkpoint = load_checkpoint(
            str(tmp_path / "d" / "checkpoint-000000000004.ckpt")
        )
        assert checkpoint["wal_lsn"] == 4  # 2 DDL + 3 commits
        recovered, report = recover_database(str(tmp_path / "d"))
        assert report.wal_records_skipped == 0  # rotation emptied the log
        assert state_fingerprint(recovered)["version"] == 4

    def test_corrupt_checkpoint_without_full_log_fails_loudly(self, tmp_path):
        db = build_sample_db(str(tmp_path / "d"))
        db.checkpoint()
        db.insert("r", [(6, 60, 6.0)])
        db.close()
        ckpt = tmp_path / "d" / "checkpoint-000000000004.ckpt"
        blob = bytearray(ckpt.read_bytes())
        blob[-1] ^= 0xFF
        ckpt.write_bytes(bytes(blob))
        # The only checkpoint is bad and the rotated WAL no longer reaches
        # back to version 0: recovery must refuse rather than serve a
        # silently truncated history.
        with pytest.raises(StorageError, match="history gap|does not chain"):
            recover_database(str(tmp_path / "d"))

    def test_older_checkpoint_is_used_when_newest_is_corrupt(self, tmp_path):
        db = build_sample_db(str(tmp_path / "d"))
        db.checkpoint()  # version 4
        db.checkpoint()  # version 4 again -- same version, same file name
        db.insert("r", [(7, 70, 7.0)])
        before = state_fingerprint(db)
        db.close()
        # Write a bogus *newer* checkpoint; recovery must skip it, fall back
        # to the valid one, and still replay the commit from the log.
        bogus = tmp_path / "d" / "checkpoint-000000000099.ckpt"
        bogus.write_bytes(b"\x00\x01\x02garbage")
        recovered, report = recover_database(str(tmp_path / "d"))
        assert [os.path.basename(p) for p in report.corrupt_checkpoints] == [
            "checkpoint-000000000099.ckpt"
        ]
        assert report.checkpoint_version == 4
        assert state_fingerprint(recovered) == before

    def test_checkpoints_are_pruned_to_the_newest_two(self, tmp_path):
        db = Database("p", data_dir=str(tmp_path / "d"))
        db.create_table("r", ["id"], primary_key="id")
        for i in range(4):
            db.insert("r", [(i,)])
            db.checkpoint()
        names = sorted(
            entry
            for entry in os.listdir(tmp_path / "d")
            if entry.startswith("checkpoint-")
        )
        assert names == [
            "checkpoint-000000000004.ckpt",
            "checkpoint-000000000005.ckpt",
        ]
        db.close()

    def test_auto_checkpoint_interval(self, tmp_path):
        db = Database("a", data_dir=str(tmp_path / "d"), checkpoint_interval=2)
        db.create_table("r", ["id"], primary_key="id")
        db.insert("r", [(1,)])
        assert db.last_checkpoint_version == 0
        db.insert("r", [(2,)])
        assert db.last_checkpoint_version == 3
        db.insert("r", [(3,)])
        db.insert("r", [(4,)])
        assert db.last_checkpoint_version == 5
        db.close()

    def test_multi_table_commit_replays_atomically(self, tmp_path):
        db = Database("m", data_dir=str(tmp_path / "d"))
        db.create_table("r", ["id", "a"], primary_key="id")
        db.create_table("s", ["id", "b"], primary_key="id")
        db.insert("r", [(1, 10)])
        db.insert("s", [(1, 99)])
        delta = DatabaseDelta()
        delta.set_delta("r", Delta.from_rows(db.schema_of("r"), inserts=[(2, 20)]))
        delta.set_delta("s", Delta.from_rows(db.schema_of("s"), deletes=[(1, 99)]))
        db.apply_database_delta(delta)
        before = state_fingerprint(db)
        db.close()
        recovered, report = recover_database(str(tmp_path / "d"))
        assert state_fingerprint(recovered) == before
        assert recovered.version == 5
        # Both tables moved in one version step, exactly as committed.
        assert recovered.tables_changed_since(4) == {"r", "s"}

    def test_drop_table_is_durable(self, tmp_path):
        db = Database("dd", data_dir=str(tmp_path / "d"))
        db.create_table("gone", ["id"], primary_key="id")
        db.create_table("kept", ["id"], primary_key="id")
        db.insert("gone", [(1,)])
        db.drop_table("gone")
        db.close()
        recovered, _report = recover_database(str(tmp_path / "d"))
        assert recovered.table_names() == ["kept"]

    def test_in_memory_default_is_unchanged(self, tmp_path):
        db = Database()
        assert not db.is_durable and db.data_dir is None
        assert db.recovery_report is None
        with pytest.raises(StorageError, match="data_dir"):
            db.checkpoint()
        db.close()  # a no-op, must not raise
        assert not list(tmp_path.iterdir())

    def test_fsync_policies_all_recover(self, tmp_path):
        for policy in ("always", "batch", "off"):
            data_dir = str(tmp_path / policy)
            db = build_sample_db(data_dir, fsync=policy, batch_interval=2)
            before = state_fingerprint(db)
            db.close()
            recovered, _report = recover_database(data_dir)
            assert state_fingerprint(recovered) == before, policy

    def test_each_fsync_policy_syncs_as_specified(self, tmp_path):
        """Over N commits, ``always`` issues one more sync per commit than
        ``off`` and ``batch`` one per ``batch_interval`` commits -- counted
        at the I/O layer, not timed."""
        commits, interval = 12, 4

        def syncs(policy: str) -> int:
            injector = FaultInjector()
            db = Database(
                "s", data_dir=str(tmp_path / policy), fsync=policy,
                batch_interval=interval, files=injector.files(),
            )
            db.create_table("r", ["id"], primary_key="id")
            before = len(injector.log)
            for i in range(commits):
                db.insert("r", [(i,)])
            window = injector.log[before:]
            db.close()
            return sum(point.split(":", 1)[1].startswith("sync(") for point in window)

        off = syncs(FSYNC_OFF)
        assert syncs(FSYNC_ALWAYS) - off == commits
        assert syncs(FSYNC_BATCH) - off == commits // interval

    def test_wal_version_gap_fails_loudly(self, tmp_path):
        db = build_sample_db(str(tmp_path / "d"))
        db.close()
        # Surgically remove the middle commit record from the log: replay
        # must refuse the resulting version gap instead of applying commit 3
        # on top of version 1.
        path = str(tmp_path / "d" / WAL_FILE)
        records = scan_wal(path).records
        with open(path, "wb") as handle:
            handle.write(WAL_MAGIC)
            for record in records:
                if record.get("version") != 2:
                    handle.write(frame(encode_record(record)))
        with pytest.raises(StorageError, match="expected commit version 2"):
            recover_database(str(tmp_path / "d"))

    def test_wal_version_gap_fails_loudly_in_a_format_1_log(self, tmp_path):
        db = build_sample_db(str(tmp_path / "d"))
        db.close()
        path = str(tmp_path / "d" / WAL_FILE)
        # Format 1 numbered commits only: the CREATE TABLE (version 1) took
        # no version, so the log's commits are 1, 2, 3; the first is lost.
        records = legacy_records(scan_wal(path).records, [1])
        write_v1_log(path, [r for r in records if r.get("version") != 1])
        with pytest.raises(StorageError, match="expected commit version 2 but found 3"):
            recover_database(str(tmp_path / "d"))

    def test_reopened_directory_keeps_lsns_past_its_checkpoint(self, tmp_path):
        """Regression test: a log rotated by a checkpoint and reopened used
        to number new records from 0 again, at or below the checkpoint's
        LSN, so the next recovery skipped them as already checkpointed."""
        data_dir = str(tmp_path / "d")
        db = build_sample_db(data_dir)
        db.checkpoint()
        db.close()
        db = Database("sample", data_dir=data_dir)
        db.insert("r", [(8, 80, 8.5)])
        before = state_fingerprint(db)
        db.close()
        recovered, report = recover_database(data_dir)
        assert state_fingerprint(recovered) == before
        assert report.commits_replayed == 1 and report.wal_records_skipped == 0
        assert [r["lsn"] for r in scan_wal(str(tmp_path / "d" / WAL_FILE)).records] == [5]


class TestMalformedRecords:
    """A record whose CRC holds but whose shape is wrong is refused as
    malformed: recovery raises StorageError, never a raw exception from
    deep inside the apply."""

    @pytest.mark.parametrize(
        "record",
        [
            {"type": "commit", "version": 4, "tables": ["r"]},
            {"type": "commit", "version": 4, "tables": "r"},
            {"type": "commit", "version": "4", "tables": {}},
            {"type": "commit", "version": 4, "tables": {7: {}}},
            {"type": "create_table", "name": None, "attributes": ["x"], "primary_key": None},
            {"type": "create_table", "name": "t", "attributes": [1], "primary_key": None},
            {"type": "create_table", "name": "t", "attributes": "xy", "primary_key": None},
            {"type": "create_table", "name": "t", "attributes": ["x"], "primary_key": 0},
            {"type": "drop_table", "name": ["r"]},
            {"type": "create_index", "table": "r", "attribute": None},
            {"type": ["commit"]},
        ],
    )
    def test_malformed_record_is_a_storage_error(self, tmp_path, record):
        data_dir = str(tmp_path / "d")
        build_sample_db(data_dir).close()
        log = WriteAheadLog(os.path.join(data_dir, WAL_FILE))
        log.open()
        log.append(record)
        log.close()
        with pytest.raises(StorageError, match=r"WAL record lsn=5 is malformed"):
            recover_database(data_dir)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("name", None),
            ("attributes", ["id", 2, "v"]),
            ("primary_key", 1),
            ("indexes", "a"),
            ("last_modified", "3"),
            ("rows", {"not": "a list"}),
        ],
    )
    def test_malformed_checkpoint_table_is_a_storage_error(self, tmp_path, field, value):
        data_dir = str(tmp_path / "d")
        db = build_sample_db(data_dir)
        path = db.checkpoint()
        db.close()
        document = load_checkpoint(path)
        document["tables"][0][field] = value
        with open(path, "wb") as handle:
            handle.write(frame(encode_record(document)))
        with pytest.raises(StorageError, match="is malformed"):
            recover_database(data_dir)

    @pytest.mark.parametrize("field", ["version", "wal_lsn", "tables"])
    def test_checkpoint_missing_a_header_field_counts_as_corrupt(self, tmp_path, field):
        data_dir = str(tmp_path / "d")
        db = build_sample_db(data_dir)
        path = db.checkpoint()
        db.insert("r", [(6, 60, 6.0)])
        db.close()
        document = load_checkpoint(path)
        del document[field]
        with open(path, "wb") as handle:
            handle.write(frame(encode_record(document)))
        with pytest.raises(StorageError, match="is malformed"):
            load_checkpoint(path)
        # The only checkpoint is skipped and the rotated log starts at
        # version 4: recovery refuses the gap.
        with pytest.raises(StorageError, match="history gap"):
            recover_database(data_dir)


class TestDirtyShutdownEdges:
    def test_enospc_mid_append_aborts_the_commit_cleanly(self, tmp_path):
        data_dir = str(tmp_path / "d")
        db = Database("e", data_dir=data_dir)
        db.create_table("r", ["id"], primary_key="id")
        db.insert("r", [(1,)])
        injector = FaultInjector(
            error_at=0, error=OSError(errno.ENOSPC, "no space left on device")
        )
        db._durability._wal._file = injector.files().open(
            os.path.join(data_dir, WAL_FILE)
        )
        db._durability._wal._file.seek(db._durability._wal.size_bytes)
        with pytest.raises(StorageError, match="commit aborted"):
            db.insert("r", [(2,)])
        # Memory did not move and the log matches it.
        assert db.version == 2 and db.row_count("r") == 1
        db.insert("r", [(3,)])  # the fault fires once; the next commit lands
        before = state_fingerprint(db)
        db.close()
        recovered, _report = recover_database(data_dir)
        assert state_fingerprint(recovered) == before

    def test_enospc_partial_write_is_rolled_back(self, tmp_path):
        data_dir = str(tmp_path / "d")
        db = Database("e", data_dir=data_dir)
        db.create_table("r", ["id"], primary_key="id")
        size_before = db._durability.wal.size_bytes
        injector = FaultInjector(
            error_at=0,
            partial_bytes=5,
            error=OSError(errno.ENOSPC, "no space left on device"),
        )
        db._durability._wal._file = injector.files().open(
            os.path.join(data_dir, WAL_FILE)
        )
        db._durability._wal._file.seek(size_before)
        with pytest.raises(StorageError, match="commit aborted"):
            db.insert("r", [(1,)])
        # The five torn bytes were truncated away by the rollback.
        assert os.path.getsize(os.path.join(data_dir, WAL_FILE)) == size_before
        db.close()
        recovered, report = recover_database(data_dir)
        assert recovered.version == 1 and recovered.row_count("r") == 0
        assert report.torn_bytes_truncated == 0

    def test_failing_fsync_aborts_the_commit(self, tmp_path):
        data_dir = str(tmp_path / "d")
        db = Database("f", data_dir=data_dir)
        db.create_table("r", ["id"], primary_key="id")
        injector = FaultInjector(
            error_at=1, error=OSError(errno.EIO, "fsync: I/O error")
        )
        db._durability._wal._file = injector.files().open(
            os.path.join(data_dir, WAL_FILE)
        )
        db._durability._wal._file.seek(db._durability.wal.size_bytes)
        with pytest.raises(StorageError, match="commit aborted"):
            db.insert("r", [(1,)])
        assert db.version == 1
        db.close()
        recovered, _report = recover_database(data_dir)
        assert recovered.version == 1 and recovered.row_count("r") == 0

    def test_failed_checkpoint_leaves_previous_state_intact(self, tmp_path):
        data_dir = str(tmp_path / "d")
        db = build_sample_db(data_dir)
        before = state_fingerprint(db)
        injector = FaultInjector(
            error_at=2, error=OSError(errno.ENOSPC, "no space left on device")
        )
        db._durability._files = injector.files()
        with pytest.raises(StorageError, match="checkpoint failed"):
            db.checkpoint()
        assert db.last_checkpoint_version == 0
        assert db._durability.last_checkpoint_error is not None
        db._durability._files = type(injector.files()).__bases__[0]()
        db.close()
        recovered, report = recover_database(data_dir)
        assert state_fingerprint(recovered) == before
        # The aborted attempt left at most a stray .tmp file, which recovery
        # ignores and the next successful checkpoint overwrites.
        assert report.checkpoint_version == 0

    def test_garbage_wal_file_fails_loudly_on_open(self, tmp_path):
        data_dir = tmp_path / "d"
        data_dir.mkdir()
        (data_dir / WAL_FILE).write_bytes(b"this is not a log")
        with pytest.raises(StorageError, match="not a repro write-ahead log"):
            Database("g", data_dir=str(data_dir))

    def test_zero_length_wal_recovers_to_an_empty_database(self, tmp_path):
        data_dir = tmp_path / "d"
        data_dir.mkdir()
        (data_dir / WAL_FILE).write_bytes(b"")
        recovered, report = recover_database(str(data_dir))
        assert recovered.version == 0 and recovered.table_names() == []
        assert not report.fresh  # the file existed, even if empty

    def test_fresh_data_dir_reports_fresh(self, tmp_path):
        db = Database("fresh", data_dir=str(tmp_path / "new"))
        assert db.recovery_report.fresh
        assert db.version == 0
        db.close()


class TestRetentionSafety:
    def test_audit_prune_is_clamped_to_the_checkpoint(self, tmp_path):
        """Regression test: pruning audit history past the last durable
        checkpoint would make the in-memory history shorter than the WAL
        tail -- a crash right after would "recover" commits the live process
        had already forgotten about."""
        db = Database("ret", data_dir=str(tmp_path / "d"))
        db.create_table("r", ["id"], primary_key="id")
        for i in range(5):
            db.insert("r", [(i,)])
        db.checkpoint()  # durable floor at version 6 (1 DDL + 5 commits)
        checkpoint_version = db.last_checkpoint_version
        for i in range(5, 10):
            db.insert("r", [(i,)])
        report = db.prune_history(prune_audit=True)
        # No session is open, so the requested floor is the current version
        # (11) -- but the clamp must hold the line at the checkpoint.
        assert report["floor"] == checkpoint_version
        assert db.audit_floor == checkpoint_version
        # Every post-checkpoint delta is still answerable...
        delta = db.delta_since("r", checkpoint_version)
        assert len(list(delta.inserts())) == 5
        # ...and the recovered state still matches the live one exactly.
        before = state_fingerprint(db)
        db.close()
        recovered, _report = recover_database(str(tmp_path / "d"))
        assert state_fingerprint(recovered) == before

    def test_checkpoint_advances_the_prune_floor(self, tmp_path):
        db = Database("ret2", data_dir=str(tmp_path / "d"))
        db.create_table("r", ["id"], primary_key="id")
        for i in range(4):
            db.insert("r", [(i,)])
        db.checkpoint()
        db.prune_history(prune_audit=True)
        assert db.audit_floor == db.last_checkpoint_version == db.version
        with pytest.raises(StorageError, match="pruned"):
            db.delta_since("r", 0)
        db.close()

    def test_in_memory_databases_prune_unclamped(self):
        db = Database()
        db.create_table("r", ["id"], primary_key="id")
        for i in range(3):
            db.insert("r", [(i,)])
        report = db.prune_history(prune_audit=True)
        assert report["floor"] == 4 and report["audit_records"] == 3


class TestRecoveredDatabaseIsFirstClass:
    def test_sessions_and_snapshots_work_after_recovery(self, tmp_path):
        db = build_sample_db(str(tmp_path / "d"))
        db.close()
        recovered, _report = recover_database(str(tmp_path / "d"))
        session = recovered.connect()
        assert session.pinned_version == 4
        baseline = session.query("SELECT id FROM r").to_sorted_list()
        recovered.insert("r", [(9, 90, 9.0)])
        # Snapshot isolation holds across the recovery boundary: the pinned
        # read rolls back through the *replayed* audit records.
        assert session.query("SELECT id FROM r").to_sorted_list() == baseline
        assert session.refresh() == 5
        assert (9,) in session.query("SELECT id FROM r").to_sorted_list()
        session.close()
        recovered.close()

    def test_statistics_and_queries_match_after_recovery(self, tmp_path):
        data_dir = str(tmp_path / "d")
        db = Database("stats", data_dir=data_dir)
        load_synthetic(db, num_rows=400, num_groups=20, seed=13)
        live_stats = db.column_statistics("r", "a")
        live_hist = db.equi_depth_ranges("r", "c", 8)
        live_rows = db.query("SELECT a, SUM(c) AS s FROM r GROUP BY a").to_sorted_list()
        db.close()
        recovered, _report = recover_database(data_dir)
        assert recovered.column_statistics("r", "a") == live_stats
        assert recovered.equi_depth_ranges("r", "c", 8) == live_hist
        assert (
            recovered.query("SELECT a, SUM(c) AS s FROM r GROUP BY a").to_sorted_list()
            == live_rows
        )

    def test_imp_over_a_recovered_database_captures_afresh(self, tmp_path):
        """Engine state is in neither the WAL nor a checkpoint: an IMP system
        over the recovered database captures the template on its first query
        and maintains it from there like any capture."""
        data_dir = str(tmp_path / "d")
        db = Database("imp", data_dir=data_dir)
        load_synthetic(db, num_rows=600, num_groups=30, seed=17)
        sql = q_groups(threshold=900)
        IMPSystem(db, num_fragments=16).run_query(sql)
        expected = db.query(sql).to_sorted_list()
        db.close()

        recovered, _report = recover_database(data_dir)
        system = IMPSystem(recovered, num_fragments=16)
        assert system.run_query(sql).to_sorted_list() == expected
        assert system.statistics.sketch_captures == 1
        system.apply_update(
            "r", inserts=[(100_000, 5, 100.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)]
        )
        assert system.run_query(sql) == recovered.query(sql)
        assert system.statistics.sketch_captures == 1
        (entry,) = system.store.entries()
        fresh = capture_sketch(entry.plan, entry.partition, recovered)
        assert entry.maintainer.sketch == fresh
        recovered.close()


class TestUnorderableIndexedValue:
    """A value the index cannot order is refused before its record reaches
    the WAL, so the directory still opens at the previous version."""

    def test_a_refused_insert_leaves_the_directory_readable(self, tmp_path):
        db = build_sample_db(str(tmp_path / "d"))
        before = state_fingerprint(db)
        with pytest.raises(StorageError, match="does not order"):
            db.insert("r", [(100, 1, 1.0), (101, "x", 2.0)])
        assert state_fingerprint(db) == before
        db.close()
        recovered, _report = recover_database(str(tmp_path / "d"))
        assert state_fingerprint(recovered) == before
        assert recovered.version == 4
        recovered.close()

    def test_a_refused_create_index_leaves_the_directory_readable(self, tmp_path):
        db = build_sample_db(str(tmp_path / "d"))
        db.create_table("t", ["id", "c"])
        db.insert("t", [(1, 1), (2, "x")])
        before = state_fingerprint(db)
        with pytest.raises(StorageError, match="does not order"):
            db.create_index("t", "c")
        db.close()
        recovered, _report = recover_database(str(tmp_path / "d"))
        assert state_fingerprint(recovered) == before
        assert not recovered.has_index("t", "c")
        recovered.close()
