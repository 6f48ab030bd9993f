"""Exhaustive crash-recovery proof: every I/O prefix recovers consistently.

The durability contract is *prefix consistency*: kill the process at any
point of its I/O stream -- even mid-write, with only some bytes of a record
landed -- and recovery must produce a state equal to some prefix of the
logical operation sequence, including at least every operation that was
acknowledged before the kill (under ``fsync="always"``).  Nothing in between
operations, nothing torn, nothing silently dropped.

Two mechanisms enforce it here:

* an exhaustive sweep: a fixed workload (DDL, commits, deletes, checkpoints)
  is dry-run once to count its I/O points, then re-run once per point with a
  simulated kill -- optionally a torn write -- injected exactly there, and
  once per point with an injected I/O error (ENOSPC) instead of a kill;
* a Hypothesis fuzz: random workloads crossed with random crash points and
  torn-write lengths.

"Equal" means equal :func:`~repro.storage.recovery.state_fingerprint`: the
version and a content hash over every table's schema, primary key, indexes
and rows in canonical order -- the recovered database is bit-identical to
replaying the operation prefix in memory, floats included.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import StorageError
from repro.storage.database import Database
from repro.storage.faults import CrashError, FaultInjector, count_io_points
from repro.storage.recovery import (
    WAL_FILE,
    load_checkpoint,
    recover_database,
    state_fingerprint,
)
from repro.storage.wal import FSYNC_ALWAYS, RECORD_FORMAT, scan_wal
from tests.legacy_format import TABLE_DDL, downgrade


def fingerprint_key(db: Database) -> str:
    return json.dumps(state_fingerprint(db), sort_keys=True)


# One fixed workload covering every kind of WAL record plus checkpoints.
SCRIPT = [
    ("create_table", "r", ["id", "a", "v"], "id"),
    ("insert", "r", [(1, 10, 1.5), (2, 20, 2.25)]),
    ("create_index", "r", "a"),
    ("insert", "r", [(3, 10, 3.5)]),
    ("checkpoint",),
    ("delete", "r", [(2, 20, 2.25)]),
    ("create_table", "s", ["id", "b"], "id"),
    ("insert", "s", [(1, 7), (2, 9)]),
    ("checkpoint",),
    ("drop_table", "s"),
    ("insert", "r", [(4, 30, 4.75), (5, 30, 5.125)]),
]


def apply_op(db: Database, op: tuple) -> None:
    kind = op[0]
    if kind == "create_table":
        db.create_table(op[1], op[2], primary_key=op[3])
    elif kind == "create_index":
        db.create_index(op[1], op[2])
    elif kind == "insert":
        db.insert(op[1], [tuple(row) for row in op[2]])
    elif kind == "delete":
        db.delete_rows(op[1], [tuple(row) for row in op[2]])
    elif kind == "drop_table":
        db.drop_table(op[1])
    elif kind == "checkpoint":
        if db.is_durable:
            db.checkpoint()
    else:  # pragma: no cover - guards against typos in scripts
        raise AssertionError(f"unknown op {kind!r}")


def reference_fingerprints(script) -> list[str]:
    """``fps[i]`` = fingerprint after the first ``i`` operations, in memory.

    Checkpoints do not change logical state, so their entry duplicates the
    previous one; recovery after a crash *inside* a checkpoint must land on
    that same state.
    """
    db = Database("reference")
    fps = [fingerprint_key(db)]
    for op in script:
        apply_op(db, op)
        fps.append(fingerprint_key(db))
    return fps


def script_versions(script) -> tuple[list[int], list[int]]:
    """The versions ``script``'s table DDL commits and those its checkpoints
    are taken at, run in memory."""
    db = Database("reference")
    ddl, checkpoints = [], []
    for op in script:
        apply_op(db, op)
        if op[0] in TABLE_DDL:
            ddl.append(db.version)
        elif op[0] == "checkpoint":
            checkpoints.append(db.version)
    return ddl, checkpoints


def lowered(key: str, by: int) -> str:
    """The fingerprint ``key`` with its version ``by`` lower."""
    state = json.loads(key)
    state["version"] -= by
    return json.dumps(state, sort_keys=True)


def run_until_crash(data_dir: str, files, script) -> int:
    """Run the script durably until an injected fault stops it.

    Returns the number of operations acknowledged (fully returned) before
    the crash.  The crashed database object is simply abandoned, like the
    memory of a killed process.
    """
    acked = 0
    try:
        db = Database("crash", data_dir=data_dir, fsync=FSYNC_ALWAYS, files=files)
        for op in script:
            apply_op(db, op)
            acked += 1
    except CrashError:
        pass
    return acked


def assert_recovers_to_acked_prefix(data_dir: str, fps: list[str], acked: int) -> None:
    recovered, _report = recover_database(data_dir)
    key = fingerprint_key(recovered)
    assert key in fps, "recovered state is not any prefix of the workload"
    # The newest matching prefix (duplicates come from checkpoints) must
    # include everything that was acknowledged before the crash.
    newest = len(fps) - 1 - fps[::-1].index(key)
    assert newest >= acked, (
        f"recovery lost acknowledged operations: state matches prefix "
        f"{newest} but {acked} operations were acknowledged"
    )


class TestCrashPointSweep:
    def test_kill_at_every_io_point_recovers_an_acked_prefix(self, tmp_path):
        fps = reference_fingerprints(SCRIPT)
        total = count_io_points(
            lambda files: run_until_crash(str(tmp_path / "dry"), files, SCRIPT)
        )
        assert total > 30  # the sweep actually covers the whole workload
        for point in range(total):
            for partial in (0, 1, 7):
                data_dir = str(tmp_path / f"kill_{point}_{partial}")
                injector = FaultInjector(crash_at=point, partial_bytes=partial)
                acked = run_until_crash(data_dir, injector.files(), SCRIPT)
                assert_recovers_to_acked_prefix(data_dir, fps, acked)

    def test_io_error_at_every_point_leaves_a_consistent_database(self, tmp_path):
        """ENOSPC (or any OSError) at any I/O point must surface as a clean
        StorageError, leave the live database consistent with its log, and
        keep the directory recoverable."""
        fps = reference_fingerprints(SCRIPT)
        total = count_io_points(
            lambda files: run_until_crash(str(tmp_path / "dry"), files, SCRIPT)
        )
        for point in range(total):
            data_dir = str(tmp_path / f"err_{point}")
            injector = FaultInjector(error_at=point)
            live_key = None
            try:
                db = Database(
                    "err", data_dir=data_dir, fsync=FSYNC_ALWAYS, files=injector.files()
                )
                for op in SCRIPT:
                    try:
                        apply_op(db, op)
                    except StorageError:
                        pass  # that operation was cleanly refused
                live_key = fingerprint_key(db)
            except StorageError:
                pass  # the database could not even open -- loud, not silent
            recovered, _report = recover_database(data_dir)
            if live_key is not None:
                # Whatever the live process believed after the error is
                # exactly what a restart reads back.
                assert fingerprint_key(recovered) == live_key, f"point {point}"
            else:
                assert fingerprint_key(recovered) == fps[0]


class TestFormatOneUpgradeSweep:
    """Opening a format-1 directory replays it (truncating a torn tail),
    checkpoints it and rotates its log into the current format.  A kill or
    an I/O error at any point of that sequence leaves a directory that
    recovers to the same state, and the next successful open finishes the
    upgrade."""

    @staticmethod
    def format_one_directory(path: str) -> str:
        """SCRIPT's directory in format 1 with a torn tail; returns the
        fingerprint it recovers to."""
        db = Database("crash", data_dir=path)
        for op in SCRIPT:
            apply_op(db, op)
        expected = fingerprint_key(db)
        db.close()
        # Its checkpoint does not count the table DDL before it.
        shift = downgrade(path, 1, script_versions(SCRIPT)[0])
        with open(os.path.join(path, WAL_FILE), "ab") as handle:
            handle.write(b"\x00\x00\x00\x40torn")  # a crash mid-append
        return lowered(expected, shift)

    @staticmethod
    def assert_recovers_in_current_format(data_dir: str, expected: str) -> None:
        recovered, _report = recover_database(data_dir)
        assert fingerprint_key(recovered) == expected
        recovered.close()
        assert scan_wal(os.path.join(data_dir, WAL_FILE)).format == RECORD_FORMAT
        newest = max(entry for entry in os.listdir(data_dir) if entry.endswith(".ckpt"))
        assert load_checkpoint(os.path.join(data_dir, newest))["format"] == RECORD_FORMAT

    def open_copy(self, source: str, data_dir: str, files) -> None:
        shutil.copytree(source, data_dir)
        Database("crash", data_dir=data_dir, fsync=FSYNC_ALWAYS, files=files)

    def test_kill_at_every_io_point_of_the_upgrade(self, tmp_path):
        source = str(tmp_path / "v1")
        expected = self.format_one_directory(source)
        total = count_io_points(
            lambda files: self.open_copy(source, str(tmp_path / "dry"), files)
        )
        # torn-tail truncate + sync, checkpoint (4), rotation (3), prune
        assert total >= 10
        for point in range(total):
            for partial in (0, 1, 7):
                data_dir = str(tmp_path / f"kill_{point}_{partial}")
                injector = FaultInjector(crash_at=point, partial_bytes=partial)
                try:
                    self.open_copy(source, data_dir, injector.files())
                except CrashError:
                    pass
                self.assert_recovers_in_current_format(data_dir, expected)

    def test_io_error_at_every_point_of_the_upgrade(self, tmp_path):
        source = str(tmp_path / "v1")
        expected = self.format_one_directory(source)
        total = count_io_points(
            lambda files: self.open_copy(source, str(tmp_path / "dry"), files)
        )
        for point in range(total):
            data_dir = str(tmp_path / f"err_{point}")
            try:
                self.open_copy(source, data_dir, FaultInjector(error_at=point).files())
            except StorageError:
                pass  # the directory could not be opened -- loud, not silent
            self.assert_recovers_in_current_format(data_dir, expected)


# ---------------------------------------------------------------------------
# Hypothesis fuzz: random workload x random crash point x torn-write length
# ---------------------------------------------------------------------------

def build_script(actions) -> list[tuple]:
    """Deterministically expand drawn actions into a valid workload script."""
    script: list[tuple] = [("create_table", "r", ["id", "a", "v"], "id")]
    live_rows: list[tuple] = []
    next_id = 0
    for action, value in actions:
        if action == "insert":
            rows = []
            for offset in range(1 + value % 3):
                row = (next_id, (value + offset) % 10, round(value * 0.1875, 4))
                rows.append(row)
                next_id += 1
            live_rows.extend(rows)
            script.append(("insert", "r", rows))
        elif action == "delete" and live_rows:
            victim = live_rows.pop(value % len(live_rows))
            script.append(("delete", "r", [victim]))
        elif action == "index":
            script.append(("create_index", "r", "a"))
        elif action == "checkpoint":
            script.append(("checkpoint",))
    return script


class TestCrashFuzz:
    @given(
        actions=st.lists(
            st.tuples(
                st.sampled_from(["insert", "insert", "delete", "index", "checkpoint"]),
                st.integers(min_value=0, max_value=999),
            ),
            min_size=1,
            max_size=10,
        ),
        crash_at=st.integers(min_value=0, max_value=120),
        partial_bytes=st.integers(min_value=0, max_value=9),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_workload_random_crash_recovers_an_acked_prefix(
        self, actions, crash_at, partial_bytes
    ):
        script = build_script(actions)
        fps = reference_fingerprints(script)
        data_dir = tempfile.mkdtemp(prefix="repro-crash-fuzz-")
        try:
            injector = FaultInjector(crash_at=crash_at, partial_bytes=partial_bytes)
            acked = run_until_crash(data_dir, injector.files(), script)
            assert_recovers_to_acked_prefix(data_dir, fps, acked)
        finally:
            shutil.rmtree(data_dir, ignore_errors=True)
