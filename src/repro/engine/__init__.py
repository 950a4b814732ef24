"""Vectorized query execution engine (the X100/Vector stand-in).

Operators follow the column-at-a-time model: each operator materializes
its full result :class:`~repro.engine.batch.Relation` from its children.
This is the operator-at-a-time cousin of the paper's batch-at-a-time
engine — both are columnar and vectorized (numpy primitives here play
the role of the X100 vectorized kernels), which is what the PatchIndex
integration relies on.

The PatchIndex scan of §3.3 is realized exactly as in the paper: an
ordinary :class:`~repro.engine.operators.Scan` topped by a selection
operator (:class:`~repro.engine.operators.PatchSelect`) with the two
modes ``exclude_patches`` and ``use_patches`` that split the scan at the
PatchIndex's patch positions, on-the-fly, before any column is read.
"""

from repro.engine.batch import Relation
from repro.engine.interrupt import (
    CancellationToken,
    QueryCancelledError,
    QueryInterruptedError,
    QueryTimeoutError,
    cancellation_scope,
    checkpoint,
    current_token,
    validate_positive_int,
)
from repro.engine.expressions import (
    BinaryExpr,
    ColumnRef,
    ComparisonExpr,
    Expression,
    IsNullExpr,
    Literal,
    col,
    expression_columns,
    is_null,
    lit,
    where,
)
from repro.engine.sort import merge_sorted_runs, serial_sort_permutation
from repro.engine.operators import (
    Distinct,
    Filter,
    GroupAggregate,
    HashJoin,
    Limit,
    MergeUnion,
    Operator,
    PatchSelect,
    Project,
    RelationSource,
    ReuseCache,
    ReuseLoad,
    Scan,
    Sort,
    Union,
)

__all__ = [
    "Relation",
    "CancellationToken",
    "QueryInterruptedError",
    "QueryCancelledError",
    "QueryTimeoutError",
    "cancellation_scope",
    "checkpoint",
    "current_token",
    "validate_positive_int",
    "merge_sorted_runs",
    "serial_sort_permutation",
    "Expression",
    "expression_columns",
    "ComparisonExpr",
    "IsNullExpr",
    "is_null",
    "ColumnRef",
    "Literal",
    "BinaryExpr",
    "col",
    "lit",
    "where",
    "Operator",
    "RelationSource",
    "Scan",
    "PatchSelect",
    "Filter",
    "Project",
    "HashJoin",
    "Sort",
    "Distinct",
    "GroupAggregate",
    "Union",
    "MergeUnion",
    "ReuseCache",
    "ReuseLoad",
    "Limit",
]
