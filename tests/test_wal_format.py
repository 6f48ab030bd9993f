"""The on-disk format: format-1 directories, decoder fuzz, the batch window.

* A data directory written in format 1 (a ``REPROWAL1`` log of canonical
  JSON and ``"format": 1`` checkpoints, versions counting commits only)
  recovers to the state that wrote it, and opening it rewrites it in the
  current format once.
* Hypothesis fuzzes the storage decoders over format-1, format-2 and
  current logs and checkpoints: byte flips, truncations, junk, CRC-valid
  frames around random bytes and well-framed records of random shape.
  Opening the directory ends in a recovered prefix of the workload or an
  ``IMPError``, nothing else.
* A power loss under ``fsync="batch"`` keeps exactly the synced batches.
"""

from __future__ import annotations

import functools
import os
import shutil
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import IMPError, StorageError
from repro.storage.database import Database
from repro.storage.faults import FaultInjector
from repro.storage.recovery import WAL_FILE, load_checkpoint, recover_database
from repro.storage.wal import (
    FSYNC_ALWAYS,
    FSYNC_BATCH,
    RECORD_FORMAT,
    WAL_MAGIC,
    WriteAheadLog,
    decode_record,
    encode_record,
    frame,
    scan_wal,
)
from tests.legacy_format import V1_MAGIC, downgrade, frame_v1, legacy_version
from tests.test_crash_recovery import (
    SCRIPT,
    apply_op,
    fingerprint_key,
    lowered,
    reference_fingerprints,
    script_versions,
)


def run_script(data_dir: str, script=SCRIPT) -> str:
    """Run ``script`` durably, close, and return the final fingerprint."""
    db = Database("fmt", data_dir=data_dir)
    for op in script:
        apply_op(db, op)
    key = fingerprint_key(db)
    db.close()
    return key


def checkpoint_paths(data_dir: str) -> list[str]:
    return sorted(
        os.path.join(data_dir, entry)
        for entry in os.listdir(data_dir)
        if entry.endswith(".ckpt")
    )


class TestFormatOneDirectory:
    def test_recovers_to_the_state_that_wrote_it(self, tmp_path):
        data_dir = str(tmp_path / "d")
        expected = run_script(data_dir)
        shift = downgrade(data_dir, 1, script_versions(SCRIPT)[0])
        with open(os.path.join(data_dir, WAL_FILE), "rb") as handle:
            assert handle.read(len(V1_MAGIC)) == V1_MAGIC
        assert {load_checkpoint(p)["format"] for p in checkpoint_paths(data_dir)} == {1}
        recovered, report = recover_database(data_dir)
        # The newest checkpoint's version does not count the two CREATE
        # TABLEs before it; the replayed DROP TABLE takes a version.
        assert shift == 2
        assert fingerprint_key(recovered) == lowered(expected, shift)
        # The log after the last checkpoint: a DROP TABLE and a commit.
        assert report.commits_replayed == 1 and report.ddl_replayed == 1
        recovered.close()

    def test_opening_rewrites_it_in_format_2_and_appends_work(self, tmp_path):
        data_dir = str(tmp_path / "d")
        run_script(data_dir)
        downgrade(data_dir, 1, script_versions(SCRIPT)[0])
        db = Database("fmt", data_dir=data_dir)
        wal_path = os.path.join(data_dir, WAL_FILE)
        with open(wal_path, "rb") as handle:
            assert handle.read() == WAL_MAGIC
        assert load_checkpoint(checkpoint_paths(data_dir)[-1])["format"] == RECORD_FORMAT
        db.insert("r", [(9, 90, 9.5)])
        db.create_table("u", ["id"], primary_key="id")
        expected = fingerprint_key(db)
        db.close()
        scan = scan_wal(wal_path)
        assert scan.format == RECORD_FORMAT and len(scan.records) == 2
        recovered, report = recover_database(data_dir)
        assert fingerprint_key(recovered) == expected
        assert report.commits_replayed == 1 and report.ddl_replayed == 1
        recovered.close()

    def test_a_log_without_a_checkpoint_upgrades_too(self, tmp_path):
        data_dir = str(tmp_path / "d")
        script = [op for op in SCRIPT if op[0] != "checkpoint"]
        expected = run_script(data_dir, script)
        # Every table DDL record takes the next version in replay.
        assert downgrade(data_dir, 1, script_versions(script)[0]) == 0
        assert checkpoint_paths(data_dir) == []
        recovered, report = recover_database(data_dir)
        assert fingerprint_key(recovered) == expected
        assert report.checkpoint_path is None
        assert [load_checkpoint(p)["format"] for p in checkpoint_paths(data_dir)] == [
            RECORD_FORMAT
        ]
        assert scan_wal(os.path.join(data_dir, WAL_FILE)).format == RECORD_FORMAT
        recovered.close()

    def test_a_log_of_another_format_takes_no_appends(self, tmp_path):
        data_dir = str(tmp_path / "d")
        run_script(data_dir)
        downgrade(data_dir, 1, script_versions(SCRIPT)[0])
        log = WriteAheadLog(os.path.join(data_dir, WAL_FILE))
        log.open()
        with pytest.raises(IMPError, match="format-1"):
            log.append({"type": "drop_table", "name": "r"})
        last_v1_lsn = log.last_lsn
        log.rotate()
        assert log.append({"type": "drop_table", "name": "r"}) == last_v1_lsn + 1
        log.close()
        scan = scan_wal(log.path)
        assert scan.format == RECORD_FORMAT
        assert [record["lsn"] for record in scan.records] == [last_v1_lsn + 1]


class TestRecordCodec:
    def test_every_value_format_2_writes_decodes(self):
        record = {
            "scalars": [None, True, False, 0, -(2**31), 2**31, -(2**70), 1.5, -0.0],
            "text": ["", "é" * 300, b"", b"\x00" * 300],
            "containers": [(), (1, (2, [3])), list(range(300)), tuple(range(300))],
            "others": [{1, 2}, frozenset({"a"}), 1 - 2j, ..., {"k": {"n": []}}],
        }
        assert decode_record(encode_record(record)) == record

    @pytest.mark.parametrize("code", [b"(", b"[", b"<", b"\xa8", b"c", b"r", b"f"])
    def test_a_foreign_or_oversized_token_is_refused(self, code):
        payload = b"[" + bytes([2, 0, 0, 0]) + b"N" + code + bytes([0xFF, 0xFF, 0xFF, 0x0F])
        with pytest.raises(StorageError, match="does not decode"):
            decode_record(payload)

    def test_a_huge_container_header_is_refused_before_it_is_allocated(self):
        """``marshal.loads`` would allocate 2**24 slots (128 MB) for this
        tuple before finding the payload too short."""
        payload = b"(" + (2**24).to_bytes(4, "little") + b"N" * 64
        tracemalloc.start()
        try:
            with pytest.raises(StorageError, match="more elements than bytes"):
                decode_record(payload)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


# ---------------------------------------------------------------------------
# Decoder fuzz
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def valid_directory(format: int) -> tuple[tuple[str, bytes], ...]:
    """SCRIPT's data directory in ``format``, as (file name, bytes) pairs."""
    data_dir = tempfile.mkdtemp(prefix="repro-format-")
    try:
        run_script(data_dir)
        if format != RECORD_FORMAT:
            downgrade(data_dir, format, script_versions(SCRIPT)[0])
        files = []
        for entry in sorted(os.listdir(data_dir)):
            with open(os.path.join(data_dir, entry), "rb") as handle:
                files.append((entry, handle.read()))
        return tuple(files)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


@functools.lru_cache(maxsize=None)
def prefix_fingerprints(format: int) -> frozenset:
    """The states SCRIPT's directory in ``format`` may recover to: a
    prefix's.  An older format's checkpoint version does not count the
    table DDL before it, so its versions are lower by that many, for each
    checkpoint replay may start from (none: by nothing)."""
    keys = reference_fingerprints(SCRIPT)
    if format == RECORD_FORMAT:
        return frozenset(keys)
    ddl, checkpoints = script_versions(SCRIPT)
    shifts = {0} | {version - legacy_version(version, ddl) for version in checkpoints}
    return frozenset(lowered(key, shift) for key in keys for shift in shifts)


def open_mutated(format: int, mutate, prefix: bool = True) -> None:
    """Write the valid directory, let ``mutate(files)`` change it, open it.

    Opening must raise an ``IMPError`` or recover, with ``prefix`` a prefix
    of SCRIPT.
    """
    files = dict(valid_directory(format))
    mutate(files)
    data_dir = tempfile.mkdtemp(prefix="repro-format-fuzz-")
    try:
        for name, blob in files.items():
            with open(os.path.join(data_dir, name), "wb") as handle:
                handle.write(blob)
        try:
            recovered, _report = recover_database(data_dir)
        except IMPError:
            return
        key = fingerprint_key(recovered)
        recovered.close()
        if prefix:
            assert key in prefix_fingerprints(format), "recovered state is not a prefix"
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def target_name(files: dict, target: int) -> str:
    """``target`` 0 is the log; 1, 2, ... the checkpoints, newest first."""
    checkpoints = sorted((n for n in files if n.endswith(".ckpt")), reverse=True)
    return WAL_FILE if target == 0 else checkpoints[(target - 1) % len(checkpoints)]


def put_frame(files: dict, target: int, framed: bytes) -> None:
    """Append a frame to the log, or make it a checkpoint's whole content."""
    name = target_name(files, target)
    files[name] = files[name] + framed if name == WAL_FILE else framed


FORMATS = st.sampled_from([1, 2, RECORD_FORMAT])
TARGETS = st.integers(min_value=0, max_value=2)


class TestDecoderFuzz:
    @given(
        format=FORMATS,
        target=TARGETS,
        position=st.integers(min_value=0, max_value=2**20),
        mask=st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=60, deadline=None)
    def test_byte_flip(self, format, target, position, mask):
        def mutate(files):
            name = target_name(files, target)
            blob = bytearray(files[name])
            blob[position % len(blob)] ^= mask
            files[name] = bytes(blob)

        open_mutated(format, mutate)

    @given(format=FORMATS, target=TARGETS, keep=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=40, deadline=None)
    def test_truncation(self, format, target, keep):
        def mutate(files):
            name = target_name(files, target)
            files[name] = files[name][: keep % (len(files[name]) + 1)]

        open_mutated(format, mutate)

    @given(format=FORMATS, target=TARGETS, junk=st.binary(min_size=1, max_size=64))
    @settings(max_examples=40, deadline=None)
    def test_junk_appended(self, format, target, junk):
        def mutate(files):
            name = target_name(files, target)
            files[name] += junk

        open_mutated(format, mutate)

    @given(format=FORMATS, target=TARGETS, payload=st.binary(max_size=96))
    @settings(max_examples=80, deadline=None)
    def test_crc_valid_frame_around_random_bytes(self, format, target, payload):
        """The CRC holds, so the decoder itself must refuse the bytes."""

        open_mutated(format, lambda files: put_frame(files, target, frame(payload)))

    @given(
        format=FORMATS,
        target=TARGETS,
        kind=st.sampled_from(["commit", "create_table", "drop_table", "create_index", "x"]),
        fields=st.dictionaries(
            st.sampled_from(
                ["version", "tables", "name", "attributes", "primary_key",
                 "table", "attribute", "wal_lsn", "format", "rows", "indexes"]
            ),
            st.recursive(
                st.none()
                | st.booleans()
                | st.integers(min_value=-(2**70), max_value=2**70)
                | st.floats()
                | st.text(max_size=4),
                lambda children: st.lists(children, max_size=3)
                | st.dictionaries(st.text(max_size=3), children, max_size=3),
                max_leaves=8,
            ),
            max_size=5,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_well_framed_record_of_random_shape(self, format, target, kind, fields):
        """A record that frames and decodes but has any shape at all.

        Such a record can be a valid operation (an empty commit at the next
        version), so only the exception contract is checked: the directory
        opens or raises an ``IMPError``.
        """
        document = dict(fields)
        if target == 0:
            document.update(type=kind, lsn=10**6)
        else:
            document.setdefault("format", format)
        framed = frame_v1(document) if format == 1 else frame(encode_record(document))
        open_mutated(format, lambda files: put_frame(files, target, framed), prefix=False)


# ---------------------------------------------------------------------------
# The fsync="batch" loss window
# ---------------------------------------------------------------------------

class TestPowerLoss:
    @pytest.mark.parametrize("interval", [1, 2, 3, 5])
    def test_batch_keeps_exactly_the_synced_batches(self, tmp_path, interval):
        for appended in range(12):
            path = str(tmp_path / f"wal-{interval}-{appended}.log")
            injector = FaultInjector()
            log = WriteAheadLog(
                path, fsync=FSYNC_BATCH, batch_interval=interval, files=injector.files()
            )
            log.open()
            for version in range(appended):
                log.append({"type": "commit", "version": version})
            injector.lose_power()
            survivors = [record["version"] for record in scan_wal(path).records]
            assert survivors == list(range(interval * (appended // interval)))

    @pytest.mark.parametrize("policy, interval", [(FSYNC_BATCH, 3), (FSYNC_ALWAYS, 3)])
    def test_a_database_recovers_the_synced_prefix(self, tmp_path, policy, interval):
        """Every operation below is one WAL record; ``always`` loses none."""
        script = [("create_table", "r", ["id", "a", "v"], "id")] + [
            ("insert", "r", [(i, i % 4, i * 0.375)]) for i in range(7)
        ]
        fps = reference_fingerprints(script)
        for acked in range(1, len(script) + 1):
            data_dir = str(tmp_path / f"{policy}-{acked}")
            injector = FaultInjector()
            db = Database(
                "power", data_dir=data_dir, fsync=policy,
                batch_interval=interval, files=injector.files(),
            )
            for op in script[:acked]:
                apply_op(db, op)
            injector.lose_power()
            recovered, _report = recover_database(data_dir)
            kept = acked if policy == FSYNC_ALWAYS else interval * (acked // interval)
            assert fingerprint_key(recovered) == fps[kept], (policy, acked)
            recovered.close()
