"""Write-ahead logging for the durable backend.

Everything the in-memory :class:`~repro.storage.database.Database` does is
lost with the process -- a non-starter for the production north star.  The
durability layer fixes that with the classic recipe: every committed update
(and every DDL statement) is appended to a write-ahead log *before* it is
applied in memory, so a crash at any instant leaves the log holding a prefix
of the commit history; recovery replays that prefix on top of the latest
checkpoint (:mod:`repro.storage.recovery`) and lands on a state bit-identical
to replaying the audit log serially.

On-disk format
--------------

A WAL file starts with a fixed magic string and is followed by framed
records::

    REPROWAL3\\n | <len u32 BE> <crc32 u32 BE> <payload: len bytes> | ...

The payload is the record dict in :mod:`marshal` version 2
(:func:`encode_record`).  Marshal version 2 writes a double as its eight raw
bytes, an int, str or bytes with an explicit length, and no back-references,
so a record's bytes -- and therefore its CRC -- are a pure function of its
content, and NULL, bool, int (above 2**63 too), float (-0.0 and NaN bits
too), str and bytes read back exactly.  It replaced canonical JSON, whose
float ``repr`` was half the cost of a durable update: a 20-row commit
record with 180 floats took 100-140 µs to encode as JSON and about 6 µs
with marshal, for about 16% more bytes.  Marshal version 4 was not taken:
its back-references depend on reference counts, so equal content could
encode to different bytes.  Marshal's format belongs to CPython and is not
published; version 2's type codes have been stable for many releases and
``marshal.loads`` reads older versions, and the file's magic (a
checkpoint's ``"format"``) is where a loader for a future format would hook
in.  ``marshal.loads`` is not written for arbitrary bytes, so
:func:`decode_record` walks a payload's tokens before handing it over.

Every commit record and every ``create_table``/``drop_table`` record carries
the ``"version"`` it commits, and replay checks them as one ``+1`` chain.

Older files stay readable; nothing is appended to them:

* format 2 (``REPROWAL2``) wrote the same marshal payloads, but its DDL
  records carry no version: replay gives such a record the next version and
  checks the log's later commit records shifted by their count;
* format 1 (``REPROWAL1``) wrote canonical JSON (sorted keys, no
  whitespace), read by a JSON loader, with the same rule for its DDL.

Recovery checkpoints an older directory when it opens it, and the rotation
that follows starts the log over under the current magic, so no file ever
mixes two formats.

The CRC covers the payload only; the length prefix is validated implicitly
(a torn or garbled length makes the frame run past the end of the file or
the CRC fail).  Reading stops at the first frame that does not check out:
everything before it is the durable prefix, everything after it is a *torn
tail* produced by a crash mid-append (or by junk) and is truncated when the
log is opened for writing.

Fsync policy
------------

``always``
    fsync after every append: an acknowledged commit survives both a process
    kill and an OS crash.  Slowest (one device round trip per commit).
``batch``
    fsync every ``batch_interval`` appends (and on rotate/close): bounded
    work per commit, but an *OS* crash or power loss drops what was appended
    since the last fsync: of ``n`` records appended after the log was opened
    or rotated, the first ``k * (n // k)`` survive (``k`` is
    ``batch_interval``), so at most ``k - 1`` acknowledged records are lost.
    A plain process kill loses nothing: writes go straight to the page cache
    because the file is opened unbuffered.
``off``
    never fsync: fastest, survives process kills only.

All file I/O goes through an injectable :class:`FileFactory`, which is how
the fault-injection harness (:mod:`repro.storage.faults`) simulates
kill-at-random-byte, torn writes, fsync failure and ENOSPC at every point.
"""

from __future__ import annotations

import json
import marshal
import os
import re
import struct
import zlib
from dataclasses import dataclass, field

from repro.core.errors import StorageError
from repro.storage.delta import Delta

RECORD_FORMAT = 3
"""Format of everything this module writes (a log's magic, a checkpoint's
``"format"``): marshal payloads with versioned DDL records."""

MARSHAL_FORMATS = (2, RECORD_FORMAT)
"""The formats whose payloads are marshal; 2 is read, never written."""

LEGACY_FORMAT = 1
"""Canonical JSON, the payload format of the oldest files; read, never written."""

_MARSHAL_VERSION = 2
"""The :mod:`marshal` version of every marshal payload."""

WAL_MAGIC = b"REPROWAL3\n"
"""File signature of a write-ahead log."""

_MAGICS = {WAL_MAGIC: RECORD_FORMAT, b"REPROWAL2\n": 2, b"REPROWAL1\n": LEGACY_FORMAT}

FSYNC_ALWAYS = "always"
FSYNC_BATCH = "batch"
FSYNC_OFF = "off"
FSYNC_POLICIES = (FSYNC_ALWAYS, FSYNC_BATCH, FSYNC_OFF)

_FRAME_HEADER = struct.Struct(">II")  # payload length, CRC32(payload)


# ---------------------------------------------------------------------------
# File access (the injectable I/O surface)
# ---------------------------------------------------------------------------

class OsFile:
    """A thin unbuffered file wrapper exposing exactly the ops the WAL needs.

    The file is opened with ``buffering=0`` so every :meth:`write` goes
    straight to the OS page cache: a process kill after a write loses
    nothing, which is the real-world behaviour the fault harness's
    kill-at-random-byte simulation relies on (only an OS crash can lose
    unsynced page-cache data, and that is what :meth:`sync` is for).
    """

    def __init__(self, raw) -> None:
        self._raw = raw

    def write(self, data: bytes) -> int:
        return self._raw.write(data)

    def flush(self) -> None:  # unbuffered: nothing to flush, kept for symmetry
        pass

    def sync(self) -> None:
        os.fsync(self._raw.fileno())

    def truncate(self, size: int) -> None:
        self._raw.truncate(size)

    def seek(self, offset: int) -> None:
        self._raw.seek(offset)

    def tell(self) -> int:
        return self._raw.tell()

    def close(self) -> None:
        self._raw.close()


class FileFactory:
    """Creates files and performs directory-level operations.

    The durability layer never calls ``open``/``os.replace``/``os.remove``
    directly; it goes through one of these, so a test can swap in
    :class:`~repro.storage.faults.FaultyFileFactory` and observe or sabotage
    every single I/O point.
    """

    def open(self, path: str) -> OsFile:
        """Open ``path`` for read/write, creating it when missing."""
        mode = "r+b" if os.path.exists(path) else "w+b"
        return OsFile(open(path, mode, buffering=0))

    def replace(self, source: str, destination: str) -> None:
        """Atomically move ``source`` over ``destination``."""
        os.replace(source, destination)

    def remove(self, path: str) -> None:
        os.remove(path)

    def sync_dir(self, path: str) -> None:
        """fsync a directory so a rename within it is durable."""
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


# ---------------------------------------------------------------------------
# Record framing and payload encoding
# ---------------------------------------------------------------------------

def encode_record(record: dict) -> bytes:
    """Serialize a record dict in marshal version 2.

    Raises :class:`StorageError` for a value marshal cannot write -- a
    subclass of a built-in scalar (an ``IntEnum`` member), a ``Decimal``, an
    arbitrary object -- so a commit carrying one is refused before its
    append.
    """
    try:
        return marshal.dumps(record, _MARSHAL_VERSION)
    except ValueError as exc:
        raise StorageError(f"WAL record is not serializable: {exc}") from exc


# The type codes marshal version 2 writes for a value, code objects aside.
# One regex skips the fixed-size tokens and the headers of containers (tuple,
# list, set, frozenset) of fewer than 256 elements; the other tokens carry a
# 4-byte little-endian length (str, bytes), element count (a larger
# container) or signed count of 2-byte digits (an int beyond 32 bits).
_SHORT_TOKENS = re.compile(
    rb"(?:g.{8}|i.{4}|y.{16}|[NTFS.{0]|[(\[<>].\x00\x00\x00)*+", re.DOTALL
)
_SIZED = frozenset(b"us")
_CONTAINERS = frozenset(b"([<>")
_LONG = ord("l")
_U32 = struct.Struct("<I")


def _check_tokens(payload: bytes) -> None:
    """Refuse a payload ``marshal.loads`` must not be handed.

    ``marshal.loads`` reads every type code any marshal version wrote, and
    it allocates a container for its declared element count before reading
    one element: a tuple header claiming 2**31 elements makes it fill 16 GB
    with NULLs.  So a CRC-valid payload is walked first and refused unless
    every token is one version 2 writes for a value, and the element counts of
    its containers of 256 or more elements add up to no more than its length
    (every element takes at least one byte).  Smaller containers need no
    count: marshal nests at most 2000 deep, so the unfilled ones hold at most
    2000 * 255 slots at any time.  Code objects, the one other thing version
    2 writes, are refused; no record holds one.
    """
    end = len(payload)
    budget = end
    position = 0
    while True:
        position = _SHORT_TOKENS.match(payload, position).end()
        if position == end:
            return
        code = payload[position]
        if position + 5 > end:
            raise ValueError("truncated marshal token")
        (size,) = _U32.unpack_from(payload, position + 1)
        position += 5
        if code in _SIZED:
            position += size
        elif code in _CONTAINERS:
            budget -= size
            if budget < 0:
                raise ValueError("marshal containers claim more elements than bytes")
        elif code == _LONG:
            position += 2 * min(size, 2**32 - size)
        else:
            raise ValueError(f"marshal type code {code:#04x} is not marshal version 2 data")
        if position > end:
            raise ValueError("marshal token runs past the payload")


def decode_record(payload: bytes, format: int = RECORD_FORMAT):
    """Inverse of :func:`encode_record`; ``format=1`` reads the oldest files' JSON.

    Any payload that does not decode raises :class:`StorageError`: in a log
    it marks the torn boundary, in a checkpoint a corrupt file.
    """
    try:
        if format == LEGACY_FORMAT:
            return json.loads(payload.decode("utf-8"))
        _check_tokens(payload)
        return marshal.loads(payload)
    except (ValueError, EOFError, TypeError, RecursionError) as exc:
        raise StorageError(f"record payload does not decode: {exc}") from exc


def payload_format(payload: bytes) -> int:
    """How a payload that carries no magic (a checkpoint's) is encoded:
    :data:`LEGACY_FORMAT` or :data:`RECORD_FORMAT` (marshal, which a
    format-2 checkpoint shares; its ``"format"`` tells them apart).

    Format 1 wrote canonical JSON, whose objects open with ``{"``; a
    marshal dict opens with ``{`` and the type code of its first key.
    """
    return LEGACY_FORMAT if payload.startswith(b'{"') else RECORD_FORMAT


def frame(payload: bytes) -> bytes:
    """Wrap payload bytes in a length + CRC32 frame."""
    return _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def encode_rows(items) -> list:
    """``(row, multiplicity)`` pairs as one list; marshal writes them as they are."""
    return list(items)


def decode_rows(payload) -> list:
    """Inverse of :func:`encode_rows` (format 1 wrote the pairs as lists)."""
    return [(tuple(row), int(multiplicity)) for row, multiplicity in payload]


def encode_delta(delta) -> dict:
    """A :class:`~repro.storage.delta.Delta` as a record payload.

    Insert/delete entries are emitted in the delta's own dict order, so a
    decoded delta iterates its rows in exactly the order the original did --
    the incremental operators are fed identical streams before and after a
    round trip through the log.
    """
    return {
        "inserts": encode_rows(delta.inserts()),
        "deletes": encode_rows(delta.deletes()),
    }


def decode_delta(payload: dict, schema):
    """Rebuild a :class:`~repro.storage.delta.Delta` from its payload."""
    delta = Delta(schema)
    for row, multiplicity in decode_rows(payload["inserts"]):
        delta.add_insert(row, multiplicity)
    for row, multiplicity in decode_rows(payload["deletes"]):
        delta.add_delete(row, multiplicity)
    return delta


@dataclass
class WalScan:
    """Result of reading a WAL file: the durable prefix and the torn tail."""

    records: list = field(default_factory=list)
    valid_bytes: int = 0
    torn_bytes: int = 0
    existed: bool = False
    notes: list = field(default_factory=list)
    format: int = RECORD_FORMAT

    @property
    def last_lsn(self) -> int:
        """LSN of the newest valid record (-1 for an empty log)."""
        return self.records[-1]["lsn"] if self.records else -1


def scan_wal(path: str) -> WalScan:
    """Read every valid record of a WAL file and locate the torn tail.

    The scan never mutates the file.  It raises :class:`StorageError` only
    when the file cannot be a WAL at all (its head is no known magic
    string); every tail problem -- a half-written frame, a CRC mismatch,
    trailing garbage, even a frame whose payload does not decode -- marks
    the torn boundary instead, because that is exactly what a crash
    mid-append leaves behind and recovery's contract is to keep the prefix
    and drop the tear.  ``scan.format`` is the format the magic names.
    """
    scan = WalScan()
    if not os.path.exists(path):
        return scan
    scan.existed = True
    with open(path, "rb") as handle:
        data = handle.read()
    if not data:
        return scan
    format = _MAGICS.get(data[: len(WAL_MAGIC)])
    if format is None:
        if any(magic.startswith(data) for magic in _MAGICS):
            # A crash during the very first write tore the magic itself; the
            # log never held a record, so it is equivalent to a fresh file.
            scan.torn_bytes = len(data)
            scan.notes.append("torn file signature (no records were ever durable)")
            return scan
        raise StorageError(f"{path!r} is not a repro write-ahead log")
    scan.format = format
    offset = len(WAL_MAGIC)
    scan.valid_bytes = offset
    previous_lsn = -1
    while offset < len(data):
        header_end = offset + _FRAME_HEADER.size
        if header_end > len(data):
            scan.notes.append("torn frame header")
            break
        length, crc = _FRAME_HEADER.unpack_from(data, offset)
        payload_end = header_end + length
        if payload_end > len(data):
            scan.notes.append("torn record payload")
            break
        payload = data[header_end:payload_end]
        if zlib.crc32(payload) != crc:
            scan.notes.append("record checksum mismatch")
            break
        try:
            record = decode_record(payload, format)
        except StorageError:
            scan.notes.append("record payload does not decode")
            break
        if not isinstance(record, dict) or not isinstance(record.get("lsn"), int):
            scan.notes.append("record is missing its LSN")
            break
        if record["lsn"] <= previous_lsn:
            scan.notes.append("record LSN is not increasing")
            break
        previous_lsn = record["lsn"]
        scan.records.append(record)
        offset = payload_end
        scan.valid_bytes = offset
    scan.torn_bytes = len(data) - scan.valid_bytes
    return scan


# ---------------------------------------------------------------------------
# The live appender
# ---------------------------------------------------------------------------

class WriteAheadLog:
    """Appender over a single WAL file with a configurable fsync policy.

    Usage: :meth:`open` scans the existing file (returning the valid records
    for replay), truncates any torn tail, and positions the file for
    appending; :meth:`append` then frames one record per call.  Record LSNs
    are monotonically increasing across the whole life of the data directory
    -- they are never reset, not even by :meth:`rotate` -- which is what lets
    checkpoints name the exact prefix of the log they already contain.
    """

    def __init__(
        self,
        path: str,
        fsync: str = FSYNC_ALWAYS,
        batch_interval: int = 32,
        files: FileFactory | None = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise StorageError(
                f"unknown fsync policy {fsync!r}; expected one of {FSYNC_POLICIES}"
            )
        if batch_interval <= 0:
            raise StorageError("batch_interval must be positive")
        self.path = path
        self.fsync_policy = fsync
        self.batch_interval = batch_interval
        self._files = files or FileFactory()
        self._file: OsFile | None = None
        self._end = 0
        self._next_lsn = 0
        self._unsynced = 0
        self._failed = False
        self._format = RECORD_FORMAT

    # -- lifecycle ---------------------------------------------------------------

    def open(self, first_lsn: int = 0) -> WalScan:
        """Scan, repair (truncate the torn tail) and open the log for appends.

        New records get LSNs from ``first_lsn`` on, or from past the log's
        newest record if that is higher: a rotated log no longer holds the
        records a checkpoint covers, so recovery passes one past the
        checkpoint's LSN.  A format-1 log opens for reading only; it takes
        appends once :meth:`rotate` has started it over.
        """
        scan = scan_wal(self.path)
        self._format = scan.format
        self._file = self._files.open(self.path)
        if scan.torn_bytes or not scan.existed or scan.valid_bytes < len(WAL_MAGIC):
            base = scan.valid_bytes if scan.valid_bytes >= len(WAL_MAGIC) else 0
            self._file.truncate(base)
            self._file.seek(base)
            if base == 0:
                self._file.write(WAL_MAGIC)
                base = len(WAL_MAGIC)
            if self.fsync_policy != FSYNC_OFF:
                self._file.sync()
            self._end = base
        else:
            self._file.seek(scan.valid_bytes)
            self._end = scan.valid_bytes
        self._next_lsn = max(scan.last_lsn + 1, first_lsn)
        return scan

    def close(self) -> None:
        """Sync (unless the policy is ``off``) and close the file."""
        if self._file is None:
            return
        try:
            if not self._failed and self.fsync_policy != FSYNC_OFF:
                self._file.sync()
        finally:
            self._file.close()
            self._file = None

    # -- appends -----------------------------------------------------------------

    @property
    def last_lsn(self) -> int:
        """LSN of the newest appended record (-1 when the log is empty)."""
        return self._next_lsn - 1

    @property
    def size_bytes(self) -> int:
        """Current length of the durable prefix in bytes."""
        return self._end

    def append(self, record: dict) -> int:
        """Frame and append one record; returns its LSN.

        The record only counts as appended when the whole frame is written
        (and synced, under the ``always`` policy).  On an I/O error the
        append is rolled back by truncating the file to its pre-append
        length, so a failed commit leaves no half-record behind; when even
        the rollback fails the log enters a failed state and every further
        append raises until the database is reopened through recovery.
        """
        if self._file is None:
            raise StorageError(f"write-ahead log {self.path!r} is not open")
        if self._failed:
            raise StorageError(
                f"write-ahead log {self.path!r} is in a failed state after an "
                "unrecoverable I/O error; reopen the database to recover"
            )
        if self._format != RECORD_FORMAT:
            raise StorageError(
                f"write-ahead log {self.path!r} holds format-{self._format} "
                "records; rotate it before appending"
            )
        stamped = dict(record)
        stamped["lsn"] = self._next_lsn
        data = frame(encode_record(stamped))
        try:
            self._file.write(data)
            self._unsynced += 1
            if self.fsync_policy == FSYNC_ALWAYS or (
                self.fsync_policy == FSYNC_BATCH and self._unsynced >= self.batch_interval
            ):
                self.sync()
        except OSError as exc:
            self._rollback_to(self._end)
            raise StorageError(
                f"write-ahead log append failed ({exc}); commit aborted"
            ) from exc
        self._end += len(data)
        self._next_lsn += 1
        return stamped["lsn"]

    def sync(self) -> None:
        """Force appended records to stable storage (policy permitting)."""
        if self._file is not None and self.fsync_policy != FSYNC_OFF:
            self._file.sync()
        self._unsynced = 0

    def _rollback_to(self, offset: int) -> None:
        """Best-effort removal of a partially appended record."""
        try:
            self._file.truncate(offset)
            self._file.seek(offset)
        except OSError:
            # The log now ends in a torn record we cannot remove; scanning on
            # the next open will truncate it, but this handle must not keep
            # appending after the tear.
            self._failed = True

    # -- rotation ----------------------------------------------------------------

    def rotate(self) -> None:
        """Drop every record (after a checkpoint made them redundant).

        LSNs keep increasing: a checkpoint records the last LSN it covers and
        recovery skips records at or below it, so a crash *between* writing a
        checkpoint and rotating the log merely replays some no-op prefix.  A
        format-1 log is emptied whole and restarted under :data:`WAL_MAGIC`;
        a crash in between leaves an empty or torn-magic file, which opens as
        a fresh log.
        """
        if self._file is None:
            raise StorageError(f"write-ahead log {self.path!r} is not open")
        base = len(WAL_MAGIC)
        if self._format == RECORD_FORMAT:
            self._file.truncate(base)
            self._file.seek(base)
        else:
            self._file.truncate(0)
            self._file.seek(0)
            self._file.write(WAL_MAGIC)
            self._format = RECORD_FORMAT
        if self.fsync_policy != FSYNC_OFF:
            self._file.sync()
        self._end = base
        self._unsynced = 0
