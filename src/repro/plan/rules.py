"""PatchIndex rewrite rules (paper §3.3, Figure 2).

Each rule recognizes a pattern over a scan subtree "X" (no joins or
aggregations between the constraint-carrying scan and the optimized
operator), clones the subtree into an *exclude-patches* and a
*use-patches* flow, exploits the constraint in the exclude flow and
recombines:

* **distinct** — the exclude flow is already duplicate-free, so its
  aggregation is dropped; the patch flow keeps the distinct; a plain
  Union combines (value sets are disjoint by the NUC invariant).
* **sort** — the exclude flow is already sorted, so its sort operator
  is dropped; only patches are sorted; a Merge recombines in order.
* **join** — the exclude flow of an NSC join column joins via the
  cheaper MergeJoin against the sorted other side "X"; the patches join
  via a HashJoin built on the (small) patch side; "X" is buffered with
  Reuse operators instead of being computed twice.

Zero-branch pruning (§6.3) drops the patch subtree entirely when the
known patch count is zero.  The cost model (§3.5) gates each rewrite
unless ``force=True`` (used to reproduce the paper's forced plans).
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Optional, Set, Tuple

from repro.core.constraints import (
    NearlyConstantColumn,
    NearlySortedColumn,
    NearlyUniqueColumn,
)
from repro.engine.expressions import BinaryExpr, ColumnRef, Literal, expression_columns
from repro.plan import nodes
from repro.plan.cost import CostModel

__all__ = [
    "rewrite_distinct",
    "rewrite_sort",
    "rewrite_join",
    "rewrite_constant_filter",
    "find_single_scan",
    "is_sorted_on",
]

EXCLUDE = "exclude_patches"
USE = "use_patches"

_slot_counter = itertools.count()


def find_single_scan(node: nodes.PlanNode) -> Optional[nodes.ScanNode]:
    """The unique ScanNode of a join/aggregation-free subtree, or None.

    This is the paper's side condition on "X": only order-preserving,
    tuple-local operators (filters, projections) may sit between the
    scan and the rewritten operator.
    """
    if isinstance(node, nodes.ScanNode):
        return node
    if isinstance(node, (nodes.FilterNode, nodes.ProjectNode)):
        return find_single_scan(node.children()[0])
    return None


def _clone_replacing_scan(
    node: nodes.PlanNode, replacement: nodes.PlanNode
) -> nodes.PlanNode:
    """Copy a Filter/Project chain, substituting its ScanNode."""
    if isinstance(node, nodes.ScanNode):
        return replacement
    if isinstance(node, nodes.FilterNode):
        return nodes.FilterNode(
            _clone_replacing_scan(node.child, replacement), node.predicate
        )
    if isinstance(node, nodes.ProjectNode):
        return nodes.ProjectNode(
            _clone_replacing_scan(node.child, replacement), node.outputs
        )
    raise TypeError(f"cannot clone {type(node).__name__} in a scan subtree")


def _read_columns(node: nodes.PlanNode, wanted: Optional[Set[str]]) -> Optional[List[str]]:
    """Scan columns a Filter/Project chain reads (None: every column).

    ``wanted`` names the chain outputs its consumer uses (None: all).
    A plain scan hands out zero-copy views of every column for free; a
    PatchIndex scan copies what it selects, so its flows carry only the
    columns something above them reads.
    """
    if isinstance(node, nodes.ProjectNode):
        wanted = set()
        for spec in node.outputs.values():
            wanted |= {spec} if isinstance(spec, str) else expression_columns(spec)
    elif isinstance(node, nodes.FilterNode) and wanted is not None:
        wanted = wanted | expression_columns(node.predicate)
    if not isinstance(node, nodes.ScanNode):
        return _read_columns(node.children()[0], wanted)
    if not wanted:
        return node.columns
    if node.columns is None:
        return sorted(wanted)
    return [c for c in node.columns if c in wanted]


def _patch_flow(
    subtree: nodes.PlanNode,
    scan: nodes.ScanNode,
    index,
    mode: str,
    wanted: Optional[Set[str]] = None,
    sorted_output: bool = False,
    sort_ascending: bool = True,
) -> nodes.PlanNode:
    """Clone ``subtree`` with its scan replaced by one PatchIndex flow."""
    patch_scan = nodes.PatchScanNode(
        scan.table,
        index,
        mode,
        columns=_read_columns(subtree, wanted),
        predicate=scan.predicate,
        sorted_output=sorted_output,
        sort_ascending=sort_ascending,
    )
    return _clone_replacing_scan(subtree, patch_scan)


def _accept(
    original: nodes.PlanNode,
    candidate: nodes.PlanNode,
    cost_model: Optional[CostModel],
    force: bool,
) -> Optional[nodes.PlanNode]:
    if force or cost_model is None:
        return candidate
    if cost_model.cost(candidate) < cost_model.cost(original):
        return candidate
    return None


# ----------------------------------------------------------------------
# distinct rewrite (Figure 2, left)
# ----------------------------------------------------------------------
def rewrite_distinct(
    plan: nodes.PlanNode,
    index_lookup: Callable[[str, str], Optional[object]],
    cost_model: Optional[CostModel] = None,
    zero_branch_pruning: bool = False,
    force: bool = False,
) -> Optional[nodes.PlanNode]:
    """Rewrite a DistinctNode using a NUC PatchIndex, or return None."""
    if not isinstance(plan, nodes.DistinctNode):
        return None
    if plan.columns is None or len(plan.columns) != 1:
        return None
    column = plan.columns[0]
    scan = find_single_scan(plan.child)
    if scan is None:
        return None
    index = index_lookup(scan.table, column)
    if index is None or not isinstance(index.constraint, NearlyUniqueColumn):
        return None
    exclude_flow = nodes.ProjectNode(
        _patch_flow(plan.child, scan, index, EXCLUDE, {column}), {column: column}
    )
    if zero_branch_pruning and index.num_patches == 0:
        return _accept(plan, exclude_flow, cost_model, force)
    use_flow = nodes.DistinctNode(
        _patch_flow(plan.child, scan, index, USE, {column}), [column]
    )
    candidate = nodes.UnionNode([exclude_flow, use_flow])
    return _accept(plan, candidate, cost_model, force)


# ----------------------------------------------------------------------
# sort rewrite (Figure 2, left, with Merge instead of Union)
# ----------------------------------------------------------------------
def rewrite_sort(
    plan: nodes.PlanNode,
    index_lookup: Callable[[str, str], Optional[object]],
    cost_model: Optional[CostModel] = None,
    zero_branch_pruning: bool = False,
    force: bool = False,
) -> Optional[nodes.PlanNode]:
    """Rewrite a SortNode using an NSC PatchIndex, or return None."""
    if not isinstance(plan, nodes.SortNode):
        return None
    if len(plan.keys) != 1:
        return None
    column = plan.keys[0]
    ascending = plan.ascending[0]
    scan = find_single_scan(plan.child)
    if scan is None:
        return None
    index = index_lookup(scan.table, column)
    if index is None or not isinstance(index.constraint, NearlySortedColumn):
        return None
    if index.constraint.ascending != ascending:
        return None  # the materialized order must match the query order
    exclude_flow = _patch_flow(
        plan.child, scan, index, EXCLUDE, sorted_output=True, sort_ascending=ascending
    )
    if zero_branch_pruning and index.num_patches == 0:
        return _accept(plan, exclude_flow, cost_model, force)
    use_flow = nodes.SortNode(
        _patch_flow(plan.child, scan, index, USE), [column], [ascending]
    )
    candidate = nodes.MergeCombineNode([exclude_flow, use_flow], column, ascending)
    return _accept(plan, candidate, cost_model, force)


# ----------------------------------------------------------------------
# join rewrite (Figure 2, right)
# ----------------------------------------------------------------------
def rewrite_join(
    plan: nodes.PlanNode,
    index_lookup: Callable[[str, str], Optional[object]],
    sorted_side_check: Callable[[nodes.PlanNode, str], bool],
    cost_model: Optional[CostModel] = None,
    zero_branch_pruning: bool = False,
    force: bool = False,
) -> Optional[nodes.PlanNode]:
    """Rewrite a hash JoinNode into MergeJoin + patch HashJoin, or None.

    One join input ("Y") must be a scan subtree over a table with an NSC
    PatchIndex on its join key; the other input ("X") must be sorted on
    its join key (``sorted_side_check``).  Y's order is preserved by
    construction (scan order, Filter/Project only).
    """
    if not isinstance(plan, nodes.JoinNode) or plan.algorithm != "hash":
        return None
    for x_side, y_side, x_key, y_key in (
        (plan.left, plan.right, plan.left_key, plan.right_key),
        (plan.right, plan.left, plan.right_key, plan.left_key),
    ):
        scan = find_single_scan(y_side)
        if scan is None:
            continue
        index = index_lookup(scan.table, y_key)
        if index is None or not isinstance(index.constraint, NearlySortedColumn):
            continue
        if not sorted_side_check(x_side, x_key):
            continue
        return _build_join_rewrite(
            plan, x_side, y_side, x_key, y_key, scan, index,
            cost_model, zero_branch_pruning, force,
        )
    return None


def _build_join_rewrite(
    plan: nodes.JoinNode,
    x_side: nodes.PlanNode,
    y_side: nodes.PlanNode,
    x_key: str,
    y_key: str,
    scan: nodes.ScanNode,
    index,
    cost_model: Optional[CostModel],
    zero_branch_pruning: bool,
    force: bool,
) -> Optional[nodes.PlanNode]:
    ascending = index.constraint.ascending
    y_exclude = _patch_flow(
        y_side, scan, index, EXCLUDE, sorted_output=True, sort_ascending=ascending
    )
    if zero_branch_pruning and index.num_patches == 0:
        candidate: nodes.PlanNode = nodes.JoinNode(
            x_side, y_exclude, x_key, y_key, algorithm="merge"
        )
        return _accept(plan, candidate, cost_model, force)
    slot_id = f"x-side-{next(_slot_counter)}"
    x_cached = nodes.ReuseCacheNode(x_side, slot_id)
    if cost_model is not None:
        from repro.plan.stats import estimate_rows

        hint = estimate_rows(x_side, cost_model.catalog)
    else:
        hint = 1000.0
    x_again = nodes.ReuseLoadNode(slot_id, hint_rows=hint)
    merge_part = nodes.JoinNode(x_cached, y_exclude, x_key, y_key, algorithm="merge")
    y_use = _patch_flow(y_side, scan, index, USE)
    # hash table built on the patches: the lowest-cardinality side (§3.3)
    hash_part = nodes.JoinNode(
        y_use, x_again, y_key, x_key, algorithm="hash", build_side="left"
    )
    candidate = nodes.UnionNode([merge_part, hash_part])
    return _accept(plan, candidate, cost_model, force)


# ----------------------------------------------------------------------
# constant-filter rewrite (§5.5 / §7 extension: nearly constant columns)
# ----------------------------------------------------------------------
def rewrite_constant_filter(
    plan: nodes.PlanNode,
    index_lookup: Callable[[str, str], Optional[object]],
    cost_model: Optional[CostModel] = None,
    zero_branch_pruning: bool = False,
    force: bool = False,
) -> Optional[nodes.PlanNode]:
    """Rewrite an equality filter on an NCC column, or return None.

    Non-patch tuples all carry the constant, so their predicate outcome
    is known at optimization time: for ``column = constant`` the whole
    exclude-patches flow qualifies without evaluating the predicate;
    for any other comparison value the exclude flow is provably empty
    and only the patches need to be checked.
    """
    if not isinstance(plan, nodes.FilterNode):
        return None
    match = _match_column_eq_literal(plan.predicate)
    if match is None:
        return None
    column, value = match
    if not isinstance(plan.child, nodes.ScanNode):
        return None
    scan = plan.child
    index = index_lookup(scan.table, column)
    if index is None or not isinstance(index.constraint, NearlyConstantColumn):
        return None
    constant = getattr(index, "constant_value", None)
    if constant is None:
        return None
    use_flow = nodes.FilterNode(_patch_flow(scan, scan, index, USE), plan.predicate)
    if value != constant:
        # the exclude flow cannot match: only patches can
        return _accept(plan, use_flow, cost_model, force)
    exclude_flow = _patch_flow(scan, scan, index, EXCLUDE)
    if zero_branch_pruning and index.num_patches == 0:
        return _accept(plan, exclude_flow, cost_model, force)
    candidate = nodes.UnionNode([exclude_flow, use_flow])
    return _accept(plan, candidate, cost_model, force)


def _match_column_eq_literal(pred) -> Optional[Tuple[str, object]]:
    """Decompose ``col(X) == lit(v)`` (either operand order), else None."""
    if not isinstance(pred, BinaryExpr) or pred.symbol != "=":
        return None
    left, right = pred.left, pred.right
    if isinstance(left, ColumnRef) and isinstance(right, Literal):
        return left.name, right.value
    if isinstance(right, ColumnRef) and isinstance(left, Literal):
        return right.name, left.value
    return None


# ----------------------------------------------------------------------
# sortedness propagation
# ----------------------------------------------------------------------
def is_sorted_on(node: nodes.PlanNode, key: str, catalog) -> bool:
    """Whether a plan node's output is sorted on ``key``.

    True for scans of tables with a registered SortKey on the column,
    for NSC exclude-patches flows, and propagated through
    order-preserving operators (filters, projections keeping the key,
    and the probe side of a hash join, §3.3).
    """
    if isinstance(node, nodes.ScanNode):
        return catalog.structure("sortkey", node.table, key) is not None
    if isinstance(node, nodes.PatchScanNode):
        return (
            node.mode == EXCLUDE
            and isinstance(node.index.constraint, NearlySortedColumn)
            and node.index.column == key
        )
    if isinstance(node, nodes.FilterNode):
        return is_sorted_on(node.child, key, catalog)
    if isinstance(node, nodes.ProjectNode):
        passed = node.outputs.get(key)
        if passed is None or (isinstance(passed, str) and passed != key):
            return False
        if not isinstance(passed, str):
            return False
        return is_sorted_on(node.child, key, catalog)
    if isinstance(node, nodes.JoinNode) and node.algorithm == "hash":
        # the probe side's order survives a hash join
        if node.build_side == "left":
            return is_sorted_on(node.right, key, catalog)
        if node.build_side == "right":
            return is_sorted_on(node.left, key, catalog)
        return False
    if isinstance(node, nodes.JoinNode) and node.algorithm == "merge":
        # merge join output follows the probe (right) input's order
        return is_sorted_on(node.right, key, catalog)
    if isinstance(node, nodes.ReuseCacheNode):
        return is_sorted_on(node.child, key, catalog)
    return False
