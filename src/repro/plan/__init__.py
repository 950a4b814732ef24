"""Logical plans, the staged optimizer and plan execution.

Queries are expressed as logical plan trees (:mod:`repro.plan.nodes`).
The :class:`~repro.plan.optimizer.Optimizer` runs in two stages: join
orders are enumerated over the join graph first
(:mod:`repro.plan.joinorder`), then one bottom-up walk applies the
PatchIndex rewrites of §3.3 (:mod:`repro.plan.rules`) and the TopN
collapse, gated by the cost model of §3.5.
The :mod:`~repro.plan.executor` lowers the annotated plans onto the
physical operators of :mod:`repro.engine`.
"""

from repro.plan.nodes import (
    AggregateNode,
    DistinctNode,
    FilterNode,
    JoinNode,
    LimitNode,
    MergeCombineNode,
    PatchScanNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SortNode,
    TopNNode,
    UnionNode,
)
from repro.plan.stats import analyze_table, distinct_count, estimate_rows
from repro.plan.cost import CostModel
from repro.plan.joinorder import (
    JoinGraph,
    build_join_tree,
    dp_order,
    enumerate_orders,
    extract_join_graph,
    reorder_joins,
)
from repro.plan.optimizer import OptimizationReport, Optimizer
from repro.plan.executor import build_operator_tree, execute_plan

__all__ = [
    "PlanNode",
    "ScanNode",
    "PatchScanNode",
    "FilterNode",
    "ProjectNode",
    "JoinNode",
    "DistinctNode",
    "AggregateNode",
    "SortNode",
    "TopNNode",
    "LimitNode",
    "UnionNode",
    "MergeCombineNode",
    "estimate_rows",
    "analyze_table",
    "distinct_count",
    "CostModel",
    "JoinGraph",
    "extract_join_graph",
    "enumerate_orders",
    "build_join_tree",
    "dp_order",
    "reorder_joins",
    "Optimizer",
    "OptimizationReport",
    "build_operator_tree",
    "execute_plan",
]
