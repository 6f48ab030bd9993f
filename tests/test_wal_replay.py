"""WAL replay applies every record through the live method that wrote it
(``create_table``, ``drop_table``, ``create_index``, ``_commit``), so a
replayed record is checked as the live call was."""

import os

import pytest

from repro.core.errors import StorageError
from repro.storage.database import Database
from repro.storage.wal import WriteAheadLog


def test_a_log_that_creates_a_table_twice_does_not_open(tmp_path):
    path = str(tmp_path / "db")
    database = Database(data_dir=path)
    database.create_table("t", ["a"])
    database.insert("t", [(1,)])
    database.close()
    log = WriteAheadLog(os.path.join(path, "wal.log"))
    log.open()
    log.append({"type": "create_table", "name": "t", "attributes": ["a"], "primary_key": None})
    log.close()
    with pytest.raises(StorageError, match="table 't' already exists"):
        Database(data_dir=path)

