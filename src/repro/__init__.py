"""IMP: In-memory Incremental Maintenance of Provenance Sketches.

A faithful, pure-Python reproduction of the EDBT 2026 paper.  The top-level
package re-exports the pieces a typical application needs:

>>> from repro import Database, IMPSystem, load_synthetic, q_groups
>>> db = Database()
>>> table = load_synthetic(db, num_rows=1000, num_groups=50)
>>> imp = IMPSystem(db, num_fragments=32)
>>> result = imp.run_query(q_groups())          # captures a sketch
>>> db.insert("r", table.make_inserts(10))      # the sketch becomes stale
>>> result = imp.run_query(q_groups())          # maintained incrementally

Sub-packages:

* :mod:`repro.core` -- errors, Bloom filters, memory accounting.
* :mod:`repro.relational` -- bag-semantics relational algebra and evaluation.
* :mod:`repro.sql` -- SQL parser and translation to algebra.
* :mod:`repro.storage` -- the versioned in-memory backend database.
* :mod:`repro.sketch` -- provenance sketches: partitions, use, safety.
* :mod:`repro.imp` -- sketch capture, the incremental maintenance engine and middleware.
* :mod:`repro.workloads` -- TPC-H / Crimes / synthetic data and queries.
* :mod:`repro.bench` -- the benchmark harness.
"""

from repro.imp import (
    FullMaintainer,
    FullMaintenanceSystem,
    IMPConfig,
    IMPSystem,
    IncrementalEngine,
    IncrementalMaintainer,
    NoSketchSystem,
    capture_sketch,
)
from repro.relational import Relation, Schema
from repro.sketch import (
    DatabasePartition,
    ProvenanceSketch,
    RangePartition,
    instrument_plan,
)
from repro.sketch.selection import build_database_partition, build_partition
from repro.sql import parse_select, template_of, translate
from repro.storage import Database, Delta, RecoveryReport, recover_database
from repro.workloads import (
    load_crimes,
    load_synthetic,
    load_tpch,
    q_endtoend,
    q_groups,
    q_having,
    q_join,
    q_joinsel,
    q_selpd,
    q_sketch,
    q_space,
    q_topk,
)

__version__ = "1.0.0"

__all__ = [
    "Database",
    "DatabasePartition",
    "Delta",
    "FullMaintainer",
    "FullMaintenanceSystem",
    "IMPConfig",
    "IMPSystem",
    "IncrementalEngine",
    "IncrementalMaintainer",
    "NoSketchSystem",
    "ProvenanceSketch",
    "RangePartition",
    "RecoveryReport",
    "Relation",
    "Schema",
    "build_database_partition",
    "build_partition",
    "capture_sketch",
    "instrument_plan",
    "load_crimes",
    "load_synthetic",
    "load_tpch",
    "parse_select",
    "q_endtoend",
    "q_groups",
    "q_having",
    "q_join",
    "q_joinsel",
    "q_selpd",
    "q_sketch",
    "q_space",
    "q_topk",
    "recover_database",
    "template_of",
    "translate",
    "__version__",
]
