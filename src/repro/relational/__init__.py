"""Bag-semantics relational substrate.

This package implements the relational model used throughout the paper
(Sec. 4, Fig. 4): relations are bags (multisets) of tuples, and queries are
trees of relational algebra operators -- selection, projection, cross
product/join, aggregation (sum/count/avg/min/max), duplicate removal and
top-k.

The substrate is intentionally independent from the storage backend and the
IMP engine: the backend database evaluates plans with
:class:`repro.relational.evaluator.Evaluator`, and the IMP engine compiles
the same plans into incremental operators over annotated deltas (sketch
capture is one from-scratch pass of those operators).
"""

from repro.relational.algebra import (
    Aggregate,
    AggregateFunction,
    Aggregation,
    CrossProduct,
    Distinct,
    Join,
    PlanNode,
    Projection,
    ProjectionItem,
    Selection,
    TableScan,
    TopK,
    walk_plan,
)
from repro.relational.columnar import ColumnBatch
from repro.relational.evaluator import Evaluator, RelationProvider
from repro.relational.optimizer import CardinalityEstimator, PlanOptimizer
from repro.relational.expressions import (
    BinaryOp,
    Between,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    IsNull,
    Literal,
    LogicalOp,
    Not,
    UnaryMinus,
)
from repro.relational.schema import Relation, Schema

__all__ = [
    "Aggregate",
    "AggregateFunction",
    "Aggregation",
    "Between",
    "BinaryOp",
    "CardinalityEstimator",
    "ColumnBatch",
    "ColumnRef",
    "Comparison",
    "CrossProduct",
    "Distinct",
    "Evaluator",
    "Expression",
    "FunctionCall",
    "IsNull",
    "Join",
    "Literal",
    "LogicalOp",
    "Not",
    "PlanNode",
    "PlanOptimizer",
    "Projection",
    "ProjectionItem",
    "Relation",
    "RelationProvider",
    "Schema",
    "Selection",
    "TableScan",
    "TopK",
    "UnaryMinus",
    "walk_plan",
]
