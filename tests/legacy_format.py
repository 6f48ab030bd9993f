"""Older data directories, written the way their writers wrote them.

Before the WAL moved to marshal payloads, a data directory held a
``REPROWAL1`` log and ``"format": 1`` checkpoints, each record and document
one frame of canonical JSON (sorted keys, no whitespace).  A ``REPROWAL2``
log and ``"format": 2`` checkpoints framed marshal payloads as the current
ones do.  In both, a ``create_table``/``drop_table`` record carried no
version and did not advance the database's version, so their commit and
checkpoint versions count commits only.  Recovery still reads such
directories; :func:`downgrade` produces one from a current directory so
tests can check that it does.
"""

from __future__ import annotations

import bisect
import json
import os
import zlib

from repro.storage.recovery import WAL_FILE, load_checkpoint
from repro.storage.wal import encode_record, frame, scan_wal

V1_MAGIC = b"REPROWAL1\n"
V2_MAGIC = b"REPROWAL2\n"
TABLE_DDL = ("create_table", "drop_table")


def frame_v1(document: dict) -> bytes:
    """One length + CRC32 frame around ``document``'s canonical JSON."""
    payload = json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return len(payload).to_bytes(4, "big") + zlib.crc32(payload).to_bytes(4, "big") + payload


def write_v1_log(path: str, records: list[dict]) -> None:
    """A ``REPROWAL1`` log holding ``records`` (each carries its ``lsn``)."""
    with open(path, "wb") as handle:
        handle.write(V1_MAGIC)
        for record in records:
            handle.write(frame_v1(record))


def write_v2_log(path: str, records: list[dict]) -> None:
    """A ``REPROWAL2`` log holding ``records`` (each carries its ``lsn``)."""
    with open(path, "wb") as handle:
        handle.write(V2_MAGIC)
        for record in records:
            handle.write(frame(encode_record(record)))


def legacy_version(version: int, ddl_versions: list[int]) -> int:
    """``version`` numbered as formats 1 and 2 numbered it: commits only.
    ``ddl_versions`` are the versions the history's table DDL committed."""
    return version - bisect.bisect_right(ddl_versions, version)


def legacy_records(records: list[dict], ddl_versions: list[int]) -> list[dict]:
    """``records`` as formats 1 and 2 logged them: no version on a table
    DDL record, and commit versions counting commits only."""
    legacy = []
    for record in records:
        record = dict(record)
        if record["type"] in TABLE_DDL:
            del record["version"]
        elif record["type"] == "commit":
            record["version"] = legacy_version(record["version"], ddl_versions)
        legacy.append(record)
    return legacy


def downgrade(data_dir: str, format: int, ddl_versions: list[int]) -> int:
    """Rewrite every file of ``data_dir`` as the format-``format`` writer
    (1 or 2) wrote it.

    The log's records become :func:`legacy_records`, and each checkpoint's
    version, its tables' ``last_modified`` and its file name count commits
    only.  ``ddl_versions`` are the versions the directory's table DDL
    committed, also those whose records a checkpoint rotated away.  Format
    1 writes JSON, so the ``(row, multiplicity)`` tuples read back as the
    nested lists it wrote.

    Returns how much lower the version of a database recovered from the
    newest checkpoint is than that of the database that wrote it: the
    number of table DDL statements the checkpoint holds, which its version
    no longer counts.
    """
    wal_path = os.path.join(data_dir, WAL_FILE)
    write_log = write_v1_log if format == 1 else write_v2_log
    write_log(wal_path, legacy_records(scan_wal(wal_path).records, ddl_versions))
    shift = 0
    for entry in sorted(os.listdir(data_dir)):  # oldest checkpoint first
        if not entry.endswith(".ckpt"):
            continue
        path = os.path.join(data_dir, entry)
        document = load_checkpoint(path)
        version = document["version"]
        document["format"] = format
        document["version"] = legacy_version(version, ddl_versions)
        for table in document["tables"]:
            table["last_modified"] = legacy_version(table["last_modified"], ddl_versions)
        os.remove(path)
        name = f"checkpoint-{document['version']:012d}.ckpt"
        with open(os.path.join(data_dir, name), "wb") as handle:
            handle.write(frame_v1(document) if format == 1 else frame(encode_record(document)))
        shift = version - document["version"]
    return shift
