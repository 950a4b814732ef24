"""Staged optimizer driver.

Optimization runs in two stages (the PostBOUND-style split ROADMAP
item 3 calls for):

1. **Join ordering** (:mod:`repro.plan.joinorder`) — multi-join regions
   are flattened into a join graph and re-ordered by DP (≤6 relations),
   keeping the parser's order unless the DP order's modeled cost is
   strictly lower.
2. **Physical operator selection** (:mod:`repro.plan.selection`) — a
   chain of ``PhysicalOperatorSelection`` links assigns physical
   operators per logical node: the PatchIndex rewrites of §3.3 (first
   link), join algorithm/build side and TopN pushdown.

:meth:`Optimizer.optimize` returns just the plan (the seed API);
:meth:`Optimizer.optimize_staged` additionally returns the
:class:`OptimizationReport` EXPLAIN surfaces.  With
``use_cost_model=False`` (the paper's forced-plan experiments) both
stages collapse to the forced PatchIndex rewrites alone, reproducing
the pre-staged optimizer exactly.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

from repro.plan import nodes
from repro.plan.cost import CostModel
from repro.plan.joinorder import JoinOrderDecision, reorder_joins
from repro.plan.selection import (
    PhysicalOperatorAssignment,
    default_selection_chain,
)
from repro.storage.catalog import Catalog

__all__ = ["Optimizer", "OptimizationReport"]


@dataclasses.dataclass
class OptimizationReport:
    """What the staged optimizer decided, for EXPLAIN introspection."""

    join_orders: List[JoinOrderDecision]
    assignment: PhysicalOperatorAssignment

    def describe(self, plan: nodes.PlanNode) -> List[str]:
        """Readable report lines (joined under the plan rendering)."""
        lines: List[str] = []
        if self.join_orders:
            lines.append("join order search:")
            for decision in self.join_orders:
                lines.append(f"  {decision.describe()}")
        choices = self.assignment.describe(plan)
        if choices:
            lines.append("operator assignments:")
            lines.extend(choices)
        return lines


class Optimizer:
    """Two-stage plan optimizer (join order, then operator selection).

    Parameters
    ----------
    catalog:
        Table/structure registry.
    index_manager:
        A :class:`~repro.core.manager.PatchIndexManager` (or anything
        with a ``get(table, column)`` returning index handles).
    zero_branch_pruning:
        Drop patch subtrees when the patch count is known to be zero.
    use_cost_model:
        Gate rewrites on estimated cost; when False, every matching
        PatchIndex rewrite is applied (the paper's forced plans) and the
        join-order/operator stages are disabled.
    """

    def __init__(
        self,
        catalog: Catalog,
        index_manager,
        zero_branch_pruning: bool = False,
        use_cost_model: bool = True,
    ) -> None:
        self.catalog = catalog
        self.index_manager = index_manager
        self.zero_branch_pruning = zero_branch_pruning
        self.use_cost_model = use_cost_model
        self.cost_model = CostModel(catalog)

    # ------------------------------------------------------------------
    def optimize(self, plan: nodes.PlanNode) -> nodes.PlanNode:
        """Return the (possibly rewritten) plan."""
        plan, _ = self.optimize_staged(plan)
        return plan

    def optimize_staged(
        self, plan: nodes.PlanNode
    ) -> Tuple[nodes.PlanNode, OptimizationReport]:
        """Run both stages, returning the plan plus the decision report."""
        decisions: List[JoinOrderDecision] = []
        if self.use_cost_model:
            plan, decisions = reorder_joins(plan, self.catalog, self.cost_model)
        assignment = PhysicalOperatorAssignment()
        chain = default_selection_chain(
            self.catalog,
            self.index_manager,
            self.cost_model if self.use_cost_model else None,
            zero_branch_pruning=self.zero_branch_pruning,
            force=not self.use_cost_model,
        )
        plan = chain.select_physical_operators(plan, assignment)
        return plan, OptimizationReport(decisions, assignment)
