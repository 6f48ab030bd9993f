"""The canonical view of an engine's state, ``dump_engine_state``.

Tests compare engines by it: a shared round against engines maintained one
by one (``test_shared_round.py``), maintained state against a fresh capture
(``test_property_engine.py``) and SHA-256 pins of its bytes
(``test_aggregate_fold.py``).  Nothing reads a dump back: the paper's
persistence of operator state across a restart (Sec. 2) is not implemented.
"""

import json

import pytest

from repro.core.errors import StateError
from repro.imp.engine import IMPConfig, IncrementalEngine
from repro.imp.persistence import _operators_in_order, dump_engine_state
from repro.sketch.selection import build_database_partition
from repro.storage.database import Database
from repro.workloads.queries import q_groups, q_joinsel, q_topk
from repro.workloads.synthetic import load_join_helper, load_synthetic


@pytest.fixture()
def loaded_db():
    database = Database()
    load_synthetic(database, num_rows=1200, num_groups=60, seed=21)
    load_join_helper(database, num_rows=300, join_domain=60, seed=22)
    return database


QUERIES = [
    q_groups(threshold=900),
    q_joinsel(filter_threshold=2000, having_threshold=2000),
    q_topk(k=5),
    "SELECT DISTINCT a FROM r WHERE b < 600",
    "SELECT a, min(b) AS lo, max(c) AS hi FROM r GROUP BY a HAVING max(c) > 100",
]


class TestEngineStateDump:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_two_captures_at_one_version_dump_the_same_json(self, loaded_db, sql):
        """A dump is plain JSON stamped ``"format": 2`` with one entry per
        operator of the pruned engine, and it depends on nothing but the
        plan, the partition and the database version."""
        plan = loaded_db.plan(sql)
        partition = build_database_partition(loaded_db, plan, 16)
        dumps = []
        for _ in range(2):
            engine = IncrementalEngine(plan, partition, loaded_db, IMPConfig(topk_buffer=50))
            engine.initialize()
            dumps.append(json.dumps(dump_engine_state(engine)))
        assert dumps[0] == dumps[1]
        payload = json.loads(dumps[0])
        assert payload["format"] == 2 and payload["version"] == loaded_db.version
        assert len(payload["operators"]) == len(_operators_in_order(engine._merge))

    def test_dump_requires_initialization(self, loaded_db):
        plan = loaded_db.plan(q_groups())
        partition = build_database_partition(loaded_db, plan, 8)
        engine = IncrementalEngine(plan, partition, loaded_db)
        with pytest.raises(StateError):
            dump_engine_state(engine)
