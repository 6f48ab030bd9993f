"""Format-1 data directories, written the way the JSON writer wrote them.

Before the WAL moved to marshal format 2, a data directory held a
``REPROWAL1`` log and ``"format": 1`` checkpoints, each record and document
one frame of canonical JSON (sorted keys, no whitespace).  Recovery still
reads such directories; :func:`downgrade_to_v1` produces one from a current
directory so tests can check that it does.
"""

from __future__ import annotations

import json
import os
import zlib

from repro.storage.recovery import WAL_FILE, load_checkpoint
from repro.storage.wal import scan_wal

V1_MAGIC = b"REPROWAL1\n"


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


def downgrade_to_v1(data_dir: str) -> None:
    """Rewrite every file of ``data_dir`` as the format-1 writer wrote it.

    The records and documents are the ones format 1 held: JSON writes the
    ``(row, multiplicity)`` tuples of format 2 as the nested lists it wrote.
    """
    wal_path = os.path.join(data_dir, WAL_FILE)
    write_v1_log(wal_path, scan_wal(wal_path).records)
    for entry in os.listdir(data_dir):
        if entry.endswith(".ckpt"):
            path = os.path.join(data_dir, entry)
            document = load_checkpoint(path)
            document["format"] = 1
            with open(path, "wb") as handle:
                handle.write(frame_v1(document))
