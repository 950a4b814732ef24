"""Stage 2 of the staged optimizer: physical operator selection.

A chain of :class:`PhysicalOperatorSelection` policies (PostBOUND's
abstraction: links composed with :meth:`~PhysicalOperatorSelection.chain_with`,
each link may *assign* operators or *defer* to the next) maps the
logical plan produced by stage 1 (:mod:`repro.plan.joinorder`) onto
physical operators:

* :class:`PatchIndexSelection` — the PatchIndex rewrites of §3.3
  (:mod:`repro.plan.rules`), recast as the first link of the chain;
* :class:`JoinOperatorSelection` — MergeJoin over SortKey-ordered inputs
  vs HashJoin, and an explicit build side when both input cardinalities
  are exact;
* :class:`TopNSelection` — Limit-over-Sort collapsed into the physical
  TopN operator when the pushdown undercuts the full sort.

Decisions are recorded in a :class:`PhysicalOperatorAssignment` keyed by
node identity, with the per-operator cost dicts of
:meth:`repro.plan.cost.CostModel.operator_cost`, so EXPLAIN can surface
what each link chose and why.  An assignment may only change *how* a
node executes, never the rows (or row order) it returns — which is why
the build-side pin only fires on exact cardinalities, where the
plan-time decision provably matches the one the runtime would take.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.plan import nodes
from repro.plan.cost import CostModel, OperatorCost
from repro.plan.rules import (
    is_sorted_on,
    rewrite_distinct,
    rewrite_join,
    rewrite_sort,
)
from repro.plan.stats import estimate_rows
from repro.storage.catalog import Catalog

__all__ = [
    "OperatorChoice",
    "PhysicalOperatorAssignment",
    "PhysicalOperatorSelection",
    "PatchIndexSelection",
    "JoinOperatorSelection",
    "TopNSelection",
    "default_selection_chain",
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

    The plan nodes themselves carry the operative annotations
    (``JoinNode.algorithm`` / ``build_side``, rewritten subtrees); this
    log is the introspection side — which link
    decided what, with the operator's cost entry — surfaced through
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


class PhysicalOperatorSelection(abc.ABC):
    """One link of the chainable operator-selection policy.

    Mirrors PostBOUND's ``PhysicalOperatorSelection``: links form a
    singly-linked chain; each link applies its own selection and then
    delegates the (possibly rewritten) plan to ``next_selection``.  A
    link *assigns* by annotating nodes and recording the choice, or
    *defers* by leaving a node untouched for later links (or the
    executor's runtime heuristics).
    """

    def __init__(self) -> None:
        self.next_selection: Optional[PhysicalOperatorSelection] = None

    def chain_with(
        self, next_selection: "PhysicalOperatorSelection"
    ) -> "PhysicalOperatorSelection":
        """Append a link at the end of this chain; returns the chain head."""
        if self.next_selection is None:
            self.next_selection = next_selection
        else:
            self.next_selection.chain_with(next_selection)
        return self

    def select_physical_operators(
        self, plan: nodes.PlanNode, assignment: PhysicalOperatorAssignment
    ) -> nodes.PlanNode:
        """Run this link, then the rest of the chain."""
        plan = self._apply_selection(plan, assignment)
        if self.next_selection is not None:
            plan = self.next_selection.select_physical_operators(plan, assignment)
        return plan

    @abc.abstractmethod
    def _apply_selection(
        self, plan: nodes.PlanNode, assignment: PhysicalOperatorAssignment
    ) -> nodes.PlanNode:
        """This link's own selection pass (without chain delegation)."""


class PatchIndexSelection(PhysicalOperatorSelection):
    """The PatchIndex rewrites of §3.3 as the first chain link.

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
        super().__init__()
        self.catalog = catalog
        self.index_manager = index_manager
        self.cost_model = cost_model
        self.zero_branch_pruning = zero_branch_pruning
        self.force = force

    def _apply_selection(
        self, plan: nodes.PlanNode, assignment: PhysicalOperatorAssignment
    ) -> nodes.PlanNode:
        kids = plan.children()
        if kids:
            new_kids = [self._apply_selection(c, assignment) for c in kids]
            if not all(a is b for a, b in zip(kids, new_kids)):
                from repro.plan.optimizer import rebuild_node

                plan = rebuild_node(plan, new_kids)
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


class JoinOperatorSelection(PhysicalOperatorSelection):
    """Per-join algorithm and build-side selection.

    For each plain hash join the link considers a MergeJoin when *both*
    inputs are already ordered on their keys (SortKey structures or NSC
    exclude flows, via :func:`repro.plan.rules.is_sorted_on`) and the
    modeled merge cost undercuts the hash cost; otherwise it pins the
    hash build side explicitly.  Both moves fire only when both input
    cardinalities are exact (unfiltered scans), where the plan-time
    decision provably equals the runtime ``auto`` decision — estimates
    defer to the runtime heuristic instead of risking a row-order
    divergence from the seed plan.
    """

    def __init__(self, catalog: Catalog, cost_model: CostModel) -> None:
        super().__init__()
        self.catalog = catalog
        self.cost_model = cost_model

    def _exact_rows(self, node: nodes.PlanNode) -> Optional[float]:
        """Output cardinality when it is exact at plan time, else None."""
        if isinstance(node, nodes.ScanNode) and node.predicate is None:
            try:
                return float(self.catalog.table(node.table).num_rows)
            except KeyError:
                return None
        if isinstance(node, nodes.PatchScanNode) and node.predicate is None:
            patches = float(node.index.num_patches)
            total = float(node.index.num_rows)
            return patches if node.mode == "use_patches" else total - patches
        return None

    def _apply_selection(
        self, plan: nodes.PlanNode, assignment: PhysicalOperatorAssignment
    ) -> nodes.PlanNode:
        for child in plan.children():
            self._apply_selection(child, assignment)
        if (
            not isinstance(plan, nodes.JoinNode)
            or plan.algorithm != "hash"
            or plan.build_side != "auto"
            or plan.dynamic_range_propagation
        ):
            return plan
        left_rows = self._exact_rows(plan.left)
        right_rows = self._exact_rows(plan.right)
        if left_rows is None or right_rows is None:
            return plan  # defer to the runtime heuristic
        if (
            left_rows <= right_rows
            and is_sorted_on(plan.left, plan.left_key, self.catalog)
            and is_sorted_on(plan.right, plan.right_key, self.catalog)
        ):
            hash_cost = float(self.cost_model.operator_cost(plan)["total"])
            trial = nodes.JoinNode(
                plan.left, plan.right, plan.left_key, plan.right_key, algorithm="merge"
            )
            if float(self.cost_model.operator_cost(trial)["total"]) < hash_cost:
                # sorted build side + sorted probe side: the merge output
                # equals the hash output ordering (probe-major, build
                # rows in key/original order), so the flip is free
                plan.algorithm = "merge"
                assignment.assign(
                    plan, "MergeJoin[sortkey]", self.cost_model, type(self).__name__
                )
                return plan
        plan.build_side = "left" if left_rows <= right_rows else "right"
        assignment.assign(
            plan,
            f"HashJoin[build={plan.build_side}]",
            self.cost_model,
            type(self).__name__,
        )
        return plan


class TopNSelection(PhysicalOperatorSelection):
    """Collapses ``Limit(Sort)`` into the physical TopN operator.

    Matches ``Limit(Sort(x))`` and ``Limit(Project(Sort(x)))`` (the
    shapes the parser emits for ``ORDER BY … LIMIT n``) and substitutes
    a :class:`~repro.plan.nodes.TopNNode` when the per-chunk selection
    cost undercuts the full sort.  Projections are row-wise, so hoisting
    them above the TopN preserves rows and order exactly.
    """

    def __init__(self, catalog: Catalog, cost_model: CostModel) -> None:
        super().__init__()
        self.catalog = catalog
        self.cost_model = cost_model

    def _apply_selection(
        self, plan: nodes.PlanNode, assignment: PhysicalOperatorAssignment
    ) -> nodes.PlanNode:
        kids = plan.children()
        if kids:
            new_kids = [self._apply_selection(c, assignment) for c in kids]
            if not all(a is b for a, b in zip(kids, new_kids)):
                from repro.plan.optimizer import rebuild_node

                plan = rebuild_node(plan, new_kids)
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


def default_selection_chain(
    catalog: Catalog,
    index_manager,
    cost_model: Optional[CostModel],
    zero_branch_pruning: bool = False,
    force: bool = False,
) -> PhysicalOperatorSelection:
    """The standard stage-2 chain: PatchIndex → joins → TopN.

    In ``force`` mode (the paper's forced-plan experiments) the chain is
    the PatchIndex link alone, reproducing the pre-staged optimizer's
    behavior exactly.
    """
    head: PhysicalOperatorSelection = PatchIndexSelection(
        catalog, index_manager, cost_model, zero_branch_pruning, force
    )
    if force or cost_model is None:
        return head
    return (
        head.chain_with(JoinOperatorSelection(catalog, cost_model))
        .chain_with(TopNSelection(catalog, cost_model))
    )
