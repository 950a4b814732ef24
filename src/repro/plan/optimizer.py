"""The plan optimizer.

Optimization runs in two stages:

1. **Join ordering** (:mod:`repro.plan.joinorder`) — multi-join regions
   are flattened into a join graph and re-ordered by DP (≤6 relations),
   keeping the parser's order unless the DP order's modeled cost is
   strictly lower.
2. **Rewriting** — one bottom-up walk tries, at each node, the
   PatchIndex rewrites of §3.3 (:mod:`repro.plan.rules`: distinct, then
   sort, then join), each gated by the cost model of §3.5, and then
   collapses ``Limit(Sort)`` into a TopN when that undercuts the sort.

A join's algorithm needs no plan-time choice: the one join operator
skips its build sort when the build keys arrive sorted, and
``build_side='auto'`` builds on the smaller input at run time, on exact
cardinalities.

:meth:`Optimizer.optimize` returns just the plan;
:meth:`Optimizer.optimize_staged` additionally returns the
:class:`OptimizationReport` EXPLAIN surfaces.  With
``use_cost_model=False`` (the paper's forced-plan experiments) only the
PatchIndex rewrites run, each applied wherever it matches.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, Iterator, List, Optional, Tuple

from repro.plan import nodes
from repro.plan.cost import CostModel, OperatorCost
from repro.plan.joinorder import JoinOrderDecision, reorder_joins
from repro.plan.rules import rewrite_distinct, rewrite_join, rewrite_sort
from repro.plan.stats import estimate_rows
from repro.storage.catalog import Catalog

__all__ = ["Optimizer", "OptimizationReport"]


@dataclasses.dataclass
class OptimizationReport:
    """What the optimizer decided, for EXPLAIN introspection.

    ``rewrites`` maps ``id(node)`` of each node a rewrite produced to
    ``(node, label, cost)``: the label names the rewrite, the cost is the
    node's :meth:`~repro.plan.cost.CostModel.operator_cost` entry (empty
    for a forced plan).  The node is pinned alongside, so its id cannot
    be recycled by a fresh allocation and inherit the entry.
    """

    join_orders: List[JoinOrderDecision] = dataclasses.field(default_factory=list)
    rewrites: Dict[int, Tuple[nodes.PlanNode, str, OperatorCost]] = dataclasses.field(
        default_factory=dict
    )

    def record(
        self, node: nodes.PlanNode, label: str, cost_model: Optional[CostModel]
    ) -> nodes.PlanNode:
        """Note that a rewrite labelled ``label`` produced ``node``; returns ``node``."""
        cost: OperatorCost = {}
        if cost_model is not None:
            try:
                cost = cost_model.operator_cost(node)
            except (TypeError, KeyError, ValueError):
                cost = {}
        self.rewrites[id(node)] = (node, label, cost)
        return node

    def describe(self, plan: nodes.PlanNode) -> List[str]:
        """Readable report lines (joined under the plan rendering)."""
        lines: List[str] = []
        if self.join_orders:
            lines.append("join order search:")
            for decision in self.join_orders:
                lines.append(f"  {decision.describe()}")
        rewritten: List[str] = []
        stack = [plan]
        while stack:  # pre-order
            node = stack.pop()
            stack.extend(reversed(node.children()))
            if id(node) not in self.rewrites:
                continue
            _, label, cost = self.rewrites[id(node)]
            note = ""
            if cost:
                note = (
                    f" (rows~{float(cost['cardinality']):,.0f}"
                    f", per-row~{float(cost['time_per_row']):.2f}"
                    f", startup~{float(cost['startup']):,.1f}"
                    f", total~{float(cost['total']):,.1f})"
                )
            rewritten.append(f"  {node.label()}: {label}{note}")
        if rewritten:
            lines.append("operator assignments:")
            lines.extend(rewritten)
        return lines


class Optimizer:
    """Two-stage plan optimizer (join order, then one rewriting walk).

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
        join-order search and TopN collapse are disabled.
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
        report = OptimizationReport()
        if self.use_cost_model:
            plan, report.join_orders = reorder_joins(plan, self.catalog, self.cost_model)
        return self._rewrite(plan, report, itertools.count()), report

    def _rewrite(
        self, plan: nodes.PlanNode, report: OptimizationReport, slots: Iterator[int]
    ) -> nodes.PlanNode:
        """``plan`` rewritten bottom-up, each rewrite recorded in ``report``
        and each reuse slot numbered from ``slots``."""
        kids = plan.children()
        if kids:
            new_kids = [self._rewrite(c, report, slots) for c in kids]
            if not all(a is b for a, b in zip(kids, new_kids)):
                plan = nodes.rebuild_node(plan, new_kids)
        gate = self.cost_model if self.use_cost_model else None
        lookup, pruning = self.index_manager.get, self.zero_branch_pruning
        out = rewrite_distinct(plan, lookup, gate, pruning)
        if out is not None:
            return report.record(out, "PatchIndex[distinct]", gate)
        out = rewrite_sort(plan, lookup, gate, pruning)
        if out is not None:
            return report.record(out, "PatchIndex[sort]", gate)
        out = rewrite_join(plan, lookup, self.catalog, slots, gate, pruning)
        if out is not None:
            return report.record(out, "PatchIndex[join]", gate)
        if gate is None:
            return plan
        return self._collapse_topn(plan, report)

    def _collapse_topn(
        self, plan: nodes.PlanNode, report: OptimizationReport
    ) -> nodes.PlanNode:
        """``Limit(Sort(x))`` or ``Limit(Project(Sort(x)))`` as a TopN.

        These are the shapes the parser emits for ``ORDER BY … LIMIT n``.
        The collapse applies when the TopN's cost undercuts the full
        sort.  Projections are row-wise, so hoisting one above the TopN
        keeps rows and order exactly.  An OFFSET needs the rows it
        skips, so a Limit with one is left as it is.
        """
        if not isinstance(plan, nodes.LimitNode) or plan.offset:
            return plan
        project = plan.child if isinstance(plan.child, nodes.ProjectNode) else None
        target = plan.child if project is None else project.child
        if not isinstance(target, nodes.SortNode):
            return plan
        rows = estimate_rows(target.child, self.catalog)
        if self.cost_model.topn_cost(rows, float(plan.n)) >= self.cost_model.sort_cost(rows):
            return plan
        topn = report.record(
            nodes.TopNNode(target.child, target.keys, target.ascending, plan.n),
            f"TopN[n={plan.n}]",
            self.cost_model,
        )
        return topn if project is None else nodes.ProjectNode(topn, project.outputs)
