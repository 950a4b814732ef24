"""Stage 2 of the staged optimizer: physical operator selection.

Two passes map the logical plan produced by stage 1
(:mod:`repro.plan.joinorder`) onto physical operators, in this order:

* :class:`PatchIndexSelection` — the PatchIndex rewrites of §3.3
  (:mod:`repro.plan.rules`);
* :class:`TopNSelection` — Limit-over-Sort collapsed into the physical
  TopN operator when the pushdown undercuts the full sort.

A join's algorithm needs no plan-time choice: the one join operator
skips its build sort when the build keys arrive sorted, and
``build_side='auto'`` builds on the smaller input at run time, on exact
cardinalities.

Decisions are recorded in a :class:`PhysicalOperatorAssignment` keyed by
node identity, with the per-operator cost dicts of
:meth:`repro.plan.cost.CostModel.operator_cost`, so EXPLAIN can surface
what each pass chose and why.  An assignment may only change *how* a
node executes, never the rows (or row order) it returns.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.plan import nodes
from repro.plan.cost import CostModel, OperatorCost
from repro.plan.rules import rewrite_distinct, rewrite_join, rewrite_sort
from repro.plan.stats import estimate_rows, is_sorted_on
from repro.storage.catalog import Catalog

__all__ = [
    "OperatorChoice",
    "PhysicalOperatorAssignment",
    "PatchIndexSelection",
    "TopNSelection",
]


@dataclasses.dataclass
class OperatorChoice:
    """One physical operator decision: what was picked, at what cost, by whom."""

    operator: str
    cost: OperatorCost
    source: str

    def describe(self) -> str:
        """One-line rendering for EXPLAIN output."""
        note = ""
        if self.cost:
            note = (
                f" (rows~{float(self.cost['cardinality']):,.0f}"
                f", per-row~{float(self.cost['time_per_row']):.2f}"
                f", startup~{float(self.cost['startup']):,.1f}"
                f", total~{float(self.cost['total']):,.1f})"
            )
        return f"{self.operator} [{self.source}]{note}"


class PhysicalOperatorAssignment:
    """Log of stage-2 decisions, keyed by plan-node identity.

    The plan nodes themselves carry the operative annotations (rewritten
    subtrees); this log is the introspection side — which pass decided
    what, with the operator's cost entry — surfaced through
    ``EXPLAIN (costs)``.
    """

    def __init__(self) -> None:
        # Keyed by id(node), with the node pinned alongside the choice:
        # without the reference, a freed node's id could be recycled by a
        # fresh allocation and inherit its entry.
        self._choices: Dict[int, Tuple[nodes.PlanNode, OperatorChoice]] = {}

    def assign(
        self,
        node: nodes.PlanNode,
        operator: str,
        cost_model: Optional[CostModel],
        source: str,
    ) -> None:
        """Record that ``source`` picked ``operator`` for ``node``."""
        cost: OperatorCost = {}
        if cost_model is not None:
            try:
                cost = cost_model.operator_cost(node)
            except (TypeError, KeyError, ValueError):
                cost = {}
        self._choices[id(node)] = (node, OperatorChoice(operator, cost, source))

    def get(self, node: nodes.PlanNode) -> Optional[OperatorChoice]:
        """The choice recorded for ``node``, or None."""
        entry = self._choices.get(id(node))
        return None if entry is None else entry[1]

    def __len__(self) -> int:
        """Number of nodes with recorded choices."""
        return len(self._choices)

    def describe(self, plan: nodes.PlanNode) -> List[str]:
        """Per-node decision lines in plan (pre-)order."""
        lines: List[str] = []

        def walk(node: nodes.PlanNode, indent: int) -> None:
            """Emit this node's decision line (if any) and recurse."""
            choice = self.get(node)
            if choice is not None:
                lines.append("  " * indent + f"{node.label()}: {choice.describe()}")
            for child in node.children():
                walk(child, indent)

        walk(plan, 1)
        return lines


class PatchIndexSelection:
    """The PatchIndex rewrites of §3.3, the first stage-2 pass.

    Wraps the bottom-up rules walk that used to *be* the optimizer:
    distinct/sort/join patterns over constraint-carrying scans are
    rewritten into exclude-patches / use-patches flows, gated by the
    cost model unless ``force`` reproduces the paper's forced plans.
    """

    def __init__(
        self,
        catalog: Catalog,
        index_manager,
        cost_model: Optional[CostModel],
        zero_branch_pruning: bool = False,
        force: bool = False,
    ) -> None:
        self.catalog = catalog
        self.index_manager = index_manager
        self.cost_model = cost_model
        self.zero_branch_pruning = zero_branch_pruning
        self.force = force

    def select_physical_operators(
        self, plan: nodes.PlanNode, assignment: PhysicalOperatorAssignment
    ) -> nodes.PlanNode:
        """Rewrite ``plan`` bottom-up, logging each rewrite in ``assignment``."""
        kids = plan.children()
        if kids:
            new_kids = [self.select_physical_operators(c, assignment) for c in kids]
            if not all(a is b for a, b in zip(kids, new_kids)):
                plan = nodes.rebuild_node(plan, new_kids)
        return self._apply_rules(plan, assignment)

    def _apply_rules(
        self, plan: nodes.PlanNode, assignment: PhysicalOperatorAssignment
    ) -> nodes.PlanNode:
        lookup = self.index_manager.get
        for kind, rewrite in (
            ("distinct", rewrite_distinct),
            ("sort", rewrite_sort),
        ):
            out = rewrite(
                plan, lookup, self.cost_model, self.zero_branch_pruning, self.force
            )
            if out is not None:
                assignment.assign(
                    out, f"PatchIndex[{kind}]", self.cost_model, type(self).__name__
                )
                return out
        out = rewrite_join(
            plan,
            lookup,
            lambda node, key: is_sorted_on(node, key, self.catalog),
            self.cost_model,
            self.zero_branch_pruning,
            self.force,
        )
        if out is not None:
            assignment.assign(
                out, "PatchIndex[join]", self.cost_model, type(self).__name__
            )
            return out
        return plan


class TopNSelection:
    """Collapses ``Limit(Sort)`` into the physical TopN operator.

    Matches ``Limit(Sort(x))`` and ``Limit(Project(Sort(x)))`` (the
    shapes the parser emits for ``ORDER BY … LIMIT n``) and substitutes
    a :class:`~repro.plan.nodes.TopNNode` when the per-chunk selection
    cost undercuts the full sort.  Projections are row-wise, so hoisting
    them above the TopN preserves rows and order exactly.
    """

    def __init__(self, catalog: Catalog, cost_model: CostModel) -> None:
        self.catalog = catalog
        self.cost_model = cost_model

    def select_physical_operators(
        self, plan: nodes.PlanNode, assignment: PhysicalOperatorAssignment
    ) -> nodes.PlanNode:
        """Collapse each cheaper Limit-over-Sort, logging it in ``assignment``."""
        kids = plan.children()
        if kids:
            new_kids = [self.select_physical_operators(c, assignment) for c in kids]
            if not all(a is b for a, b in zip(kids, new_kids)):
                plan = nodes.rebuild_node(plan, new_kids)
        if not isinstance(plan, nodes.LimitNode):
            return plan
        if plan.offset:
            # TopN keeps only the first n rows; an OFFSET needs the rows
            # it skips, so the rewrite does not apply
            return plan
        project: Optional[nodes.ProjectNode] = None
        target = plan.child
        if isinstance(target, nodes.ProjectNode):
            project = target
            target = target.child
        if not isinstance(target, nodes.SortNode):
            return plan
        child_rows = estimate_rows(target.child, self.catalog)
        if self.cost_model.topn_cost(child_rows, float(plan.n)) >= self.cost_model.sort_cost(
            child_rows
        ):
            return plan
        topn = nodes.TopNNode(target.child, target.keys, target.ascending, plan.n)
        assignment.assign(
            topn, f"TopN[n={plan.n}]", self.cost_model, type(self).__name__
        )
        if project is not None:
            return nodes.ProjectNode(topn, project.outputs)
        return topn
