"""WAL replay applies every record through the live method that wrote it
(``create_table``, ``drop_table``, ``create_index``, ``_commit``), so a
replayed record is checked as the live call was.  Commit and table DDL
records commit one version each, and replay checks them as one chain; a
format-2 log, whose DDL records carry no version, is numbered the same way."""

import os

import pytest

from repro.core.errors import StorageError
from repro.storage.database import Database
from repro.storage.recovery import WAL_FILE, load_checkpoint, recover_database
from repro.storage.wal import RECORD_FORMAT, WAL_MAGIC, WriteAheadLog, scan_wal
from tests.legacy_format import write_v2_log


def append_record(data_dir: str, record: dict) -> None:
    log = WriteAheadLog(os.path.join(data_dir, WAL_FILE))
    log.open()
    log.append(record)
    log.close()


def test_a_log_that_creates_a_table_twice_does_not_open(tmp_path):
    path = str(tmp_path / "db")
    database = Database(data_dir=path)
    database.create_table("t", ["a"])
    database.insert("t", [(1,)])
    database.close()
    append_record(
        path,
        {
            "type": "create_table",
            "version": 3,
            "name": "t",
            "attributes": ["a"],
            "primary_key": None,
        },
    )
    with pytest.raises(StorageError, match="table 't' already exists"):
        Database(data_dir=path)


def test_ddl_records_carry_the_version_they_commit(tmp_path):
    path = str(tmp_path / "db")
    database = Database(data_dir=path)
    database.create_table("t", ["a"])
    database.insert("t", [(1,)])
    database.drop_table("t")
    database.close()
    records = scan_wal(os.path.join(path, WAL_FILE)).records
    assert [(r["type"], r["version"]) for r in records] == [
        ("create_table", 1),
        ("commit", 2),
        ("drop_table", 3),
    ]
    recovered = Database(data_dir=path)
    assert recovered.version == 3 and recovered.table_names() == []
    assert recovered.recovery_report.ddl_replayed == 2
    recovered.close()


@pytest.mark.parametrize(
    "record",
    [
        {
            "type": "create_table",
            "version": 5,
            "name": "u",
            "attributes": ["x"],
            "primary_key": None,
        },
        {"type": "drop_table", "version": 2, "name": "t"},
        {"type": "drop_table", "name": "t"},
    ],
    ids=["ahead", "behind", "missing"],
)
def test_a_ddl_record_that_breaks_the_version_chain_is_refused(tmp_path, record):
    path = str(tmp_path / "db")
    database = Database(data_dir=path)
    database.create_table("t", ["a"])
    database.insert("t", [(1,)])
    database.close()
    append_record(path, record)
    with pytest.raises(StorageError, match="history gap|is malformed"):
        Database(data_dir=path)


FORMAT_2_LOG = [
    {"lsn": 0, "type": "create_table", "name": "t", "attributes": ["id", "a"],
     "primary_key": "id"},
    {"lsn": 1, "type": "commit", "version": 1,
     "tables": {"t": {"inserts": [((1, 10), 1), ((2, 20), 1)], "deletes": []}}},
    {"lsn": 2, "type": "drop_table", "name": "t"},
    {"lsn": 3, "type": "create_table", "name": "t", "attributes": ["a", "b", "id"],
     "primary_key": None},
    {"lsn": 4, "type": "commit", "version": 2,
     "tables": {"t": {"inserts": [((7, 1.5, 3), 2)], "deletes": []}}},
    {"lsn": 5, "type": "create_index", "table": "t", "attribute": "a"},
]
"""A hand-written format-2 log: create, commit, drop, recreate with other
columns, commit, create an index.  Its commit versions count commits only."""


def test_a_format_2_directory_recovers_and_is_rewritten_in_format_3(tmp_path):
    path = str(tmp_path / "db")
    os.makedirs(path)
    write_v2_log(os.path.join(path, WAL_FILE), FORMAT_2_LOG)
    recovered, report = recover_database(path)
    assert report.commits_replayed == 2 and report.ddl_replayed == 4
    # Numbered as a live database numbers it: the three table DDL records
    # commit versions of their own.
    assert recovered.version == 5
    assert recovered.table_names() == ["t"]
    assert recovered.schema_of("t").attributes == ("a", "b", "id")
    assert sorted(recovered.table("t").items()) == [((7, 1.5, 3), 2)]
    assert recovered.indexed_attributes("t") == ["a"]
    # The recreated table exists from version 4, empty until commit 5.
    assert recovered.snapshot_relation("t", 4).to_sorted_list() == []
    recovered.close()
    with open(os.path.join(path, WAL_FILE), "rb") as handle:
        assert handle.read() == WAL_MAGIC
    (checkpoint,) = [entry for entry in os.listdir(path) if entry.endswith(".ckpt")]
    assert checkpoint == "checkpoint-000000000005.ckpt"
    assert load_checkpoint(os.path.join(path, checkpoint))["format"] == RECORD_FORMAT

    reopened = Database(data_dir=path)
    assert reopened.version == 5
    assert sorted(reopened.table("t").items()) == [((7, 1.5, 3), 2)]
    assert reopened.has_index("t", "a")
    reopened.drop_table("t")
    reopened.close()
    assert [r["version"] for r in scan_wal(os.path.join(path, WAL_FILE)).records] == [6]


def test_a_format_2_commit_off_the_shifted_chain_is_refused(tmp_path):
    path = str(tmp_path / "db")
    os.makedirs(path)
    log = [dict(record) for record in FORMAT_2_LOG]
    log[4]["version"] = 3  # two commits, so the second one must say 2
    write_v2_log(os.path.join(path, WAL_FILE), log)
    with pytest.raises(StorageError, match="expected commit version 5 but found 6"):
        recover_database(path)
