"""IMP: the in-memory incremental maintenance engine for provenance sketches.

This package contains the paper's primary contribution:

* :mod:`repro.imp.annotated` -- sketch-annotated delta relations and their
  columnar chunk storage (Sec. 4.3, 7.1),
* :mod:`repro.imp.state` -- operator state (group accumulators, min/max trees,
  top-k trees, join-side key indexes, merge counts) (Sec. 5.2, 7.1),
* :mod:`repro.imp.persistence` -- the canonical serialised view of an engine's
  state, :func:`dump_engine_state`; the paper's restart persistence (Sec. 2)
  is not implemented,
* :mod:`repro.imp.operators` -- the incremental relational algebra operators
  over annotated deltas (Sec. 5.2),
* :mod:`repro.imp.engine` -- compiling logical plans into incremental operator
  trees, sketch capture / state initialisation (a from-scratch pass), and
  maintenance (a delta pass) (Sec. 7),
* :mod:`repro.imp.maintenance` -- the maintainer objects (incremental and the
  full-maintenance baseline) used by the experiments (Sec. 8),
* :mod:`repro.imp.strategies` -- eager (batched) and lazy maintenance
  strategies (Sec. 2, 8.5),
* :mod:`repro.imp.scheduler` -- shared-delta maintenance rounds: the audit-log
  delta of each (table, version) group is fetched once per round, compacted,
  and fanned out to every stale maintainer,
* :mod:`repro.imp.sketch_store` -- the template-keyed sketch store (Sec. 7.1),
* :mod:`repro.imp.middleware` -- the IMP middleware plus the non-sketch and
  full-maintenance baseline systems used in the mixed-workload experiments.
"""

from repro.imp.annotated import AnnotatedDelta
from repro.imp.engine import EngineStatistics, IMPConfig, IncrementalEngine, capture_sketch
from repro.imp.maintenance import FullMaintainer, IncrementalMaintainer, MaintenanceResult
from repro.imp.middleware import IMPSystem, NoSketchSystem, FullMaintenanceSystem
from repro.imp.persistence import dump_engine_state
from repro.imp.scheduler import MaintenanceScheduler, RoundReport, SchedulerStatistics
from repro.imp.sketch_store import SketchEntry, SketchStore
from repro.imp.strategies import EagerStrategy, LazyStrategy, MaintenanceStrategy

__all__ = [
    "AnnotatedDelta",
    "EagerStrategy",
    "EngineStatistics",
    "FullMaintainer",
    "FullMaintenanceSystem",
    "IMPConfig",
    "IMPSystem",
    "IncrementalEngine",
    "IncrementalMaintainer",
    "LazyStrategy",
    "MaintenanceResult",
    "MaintenanceScheduler",
    "MaintenanceStrategy",
    "NoSketchSystem",
    "RoundReport",
    "SchedulerStatistics",
    "SketchEntry",
    "SketchStore",
    "capture_sketch",
    "dump_engine_state",
]
