"""Provenance sketches and provenance-based data skipping (PBDS).

This package implements the machinery from Niu et al. [37] that IMP builds on:

* range partitions of tables (:mod:`repro.sketch.ranges`),
* provenance sketches encoded as bitvectors over the ranges of a partition
  (:mod:`repro.sketch.sketch`),
* sketch *capture* is :func:`repro.imp.engine.capture_sketch`: a from-scratch
  pass of the incremental engine, which builds on this package,
* the *use* rewrite that instruments a query to skip data outside a sketch
  (:mod:`repro.sketch.use`),
* the safety analysis deciding which attributes may carry a sketch
  (:mod:`repro.sketch.safety`), and
* heuristics for picking sketch attributes and equi-depth ranges
  (:mod:`repro.sketch.selection`).

Ranges are fixed once a sketch is captured: IMP's operator state is keyed by
global fragment ids, so a sketch over new ranges is a new capture.
"""

from repro.sketch.ranges import DatabasePartition, Range, RangePartition
from repro.sketch.safety import SafetyAnalyzer, safe_attributes
from repro.sketch.selection import build_partition, choose_sketch_attribute
from repro.sketch.sketch import ProvenanceSketch, SketchDelta
from repro.sketch.use import instrument_plan, sketch_predicate

__all__ = [
    "DatabasePartition",
    "ProvenanceSketch",
    "Range",
    "RangePartition",
    "SafetyAnalyzer",
    "SketchDelta",
    "build_partition",
    "choose_sketch_attribute",
    "instrument_plan",
    "safe_attributes",
    "sketch_predicate",
]
