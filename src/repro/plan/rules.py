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
* **join** — the exclude flow of an NSC join column probes a join built
  on the sorted other side "X", whose build needs no sort (the merge
  join of the paper); the patches join via a join built on the (small)
  patch side; "X" is buffered with Reuse operators instead of being
  computed twice.

Zero-branch pruning (§6.3) drops the patch subtree entirely when the
known patch count is zero.  The cost model (§3.5) gates each rewrite;
passing no cost model forces it (the paper's forced plans).

:func:`push_to_scans` runs before all of these, when a statement is
bound: it puts each single-table WHERE conjunct and the referenced
column list on its scan, the placement the paper's plans assume
(selections below the join, §3.3).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Set

from repro.core.constraints import NearlySortedColumn, NearlyUniqueColumn
from repro.engine.expressions import BinaryExpr, Expression, expression_columns
from repro.plan import nodes
from repro.plan.cost import CostModel
from repro.plan.stats import estimate_rows, is_sorted_on
from repro.storage.catalog import Catalog

__all__ = [
    "rewrite_distinct",
    "rewrite_sort",
    "rewrite_join",
    "find_single_scan",
    "push_to_scans",
]

EXCLUDE = "exclude_patches"
USE = "use_patches"


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


def _patch_flow(
    subtree: nodes.PlanNode,
    scan: nodes.ScanNode,
    index,
    mode: str,
    sorted_output: bool = False,
    sort_ascending: bool = True,
) -> nodes.PlanNode:
    """Clone ``subtree`` with its scan replaced by one PatchIndex flow.

    The flow reads the scan's column list, which binding
    (:func:`push_to_scans`) has already cut to what the statement reads:
    a plain scan hands out zero-copy views, a PatchIndex scan copies
    what it selects.
    """
    patch_scan = nodes.PatchScanNode(
        scan.table,
        index,
        mode,
        columns=scan.columns,
        predicate=scan.predicate,
        sorted_output=sorted_output,
        sort_ascending=sort_ascending,
    )
    return _clone_replacing_scan(subtree, patch_scan)


def _accept(
    original: nodes.PlanNode,
    candidate: nodes.PlanNode,
    cost_model: Optional[CostModel],
) -> Optional[nodes.PlanNode]:
    if cost_model is None:
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
        _patch_flow(plan.child, scan, index, EXCLUDE), {column: column}
    )
    if zero_branch_pruning and index.num_patches == 0:
        return _accept(plan, exclude_flow, cost_model)
    use_flow = nodes.DistinctNode(
        _patch_flow(plan.child, scan, index, USE), [column]
    )
    candidate = nodes.UnionNode([exclude_flow, use_flow])
    return _accept(plan, candidate, cost_model)


# ----------------------------------------------------------------------
# sort rewrite (Figure 2, left, with Merge instead of Union)
# ----------------------------------------------------------------------
def rewrite_sort(
    plan: nodes.PlanNode,
    index_lookup: Callable[[str, str], Optional[object]],
    cost_model: Optional[CostModel] = None,
    zero_branch_pruning: bool = False,
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
        return _accept(plan, exclude_flow, cost_model)
    use_flow = nodes.SortNode(
        _patch_flow(plan.child, scan, index, USE), [column], [ascending]
    )
    candidate = nodes.MergeCombineNode([exclude_flow, use_flow], column, ascending)
    return _accept(plan, candidate, cost_model)


# ----------------------------------------------------------------------
# join rewrite (Figure 2, right)
# ----------------------------------------------------------------------
def rewrite_join(
    plan: nodes.PlanNode,
    index_lookup: Callable[[str, str], Optional[object]],
    catalog: Catalog,
    slots: Iterator[int],
    cost_model: Optional[CostModel] = None,
    zero_branch_pruning: bool = False,
) -> Optional[nodes.PlanNode]:
    """Rewrite a JoinNode into a sorted-build join + patch join, or None.

    One join input ("Y") must be a scan subtree over a table with an NSC
    PatchIndex on its join key; the other input ("X") must be sorted on
    its join key (:func:`~repro.plan.stats.is_sorted_on`).  Y's order is
    preserved by construction (scan order, Filter/Project only).  The
    buffered X side is named ``x-side-N`` after the next of ``slots``,
    which one plan's rewrites share so that its slot names are distinct.
    """
    if not isinstance(plan, nodes.JoinNode):
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
        if not is_sorted_on(x_side, x_key, catalog):
            continue
        return _build_join_rewrite(
            plan, x_side, y_side, x_key, y_key, scan, index,
            catalog, slots, cost_model, zero_branch_pruning,
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
    catalog: Catalog,
    slots: Iterator[int],
    cost_model: Optional[CostModel],
    zero_branch_pruning: bool,
) -> Optional[nodes.PlanNode]:
    ascending = index.constraint.ascending
    y_exclude = _patch_flow(
        y_side, scan, index, EXCLUDE, sorted_output=True, sort_ascending=ascending
    )
    if zero_branch_pruning and index.num_patches == 0:
        candidate: nodes.PlanNode = nodes.JoinNode(
            x_side, y_exclude, x_key, y_key, build_side="left"
        )
        return _accept(plan, candidate, cost_model)
    slot_id = f"x-side-{next(slots)}"
    x_cached = nodes.ReuseCacheNode(x_side, slot_id)
    x_again = nodes.ReuseLoadNode(slot_id, estimate_rows(x_side, catalog))
    # built on the sorted X: the kernel finds its keys in order and skips the sort
    sorted_part = nodes.JoinNode(x_cached, y_exclude, x_key, y_key, build_side="left")
    y_use = _patch_flow(y_side, scan, index, USE)
    # built on the patches: the lowest-cardinality side (§3.3)
    patch_part = nodes.JoinNode(y_use, x_again, y_key, x_key, build_side="left")
    candidate = nodes.UnionNode([sorted_part, patch_part])
    return _accept(plan, candidate, cost_model)


# ----------------------------------------------------------------------
# scan binding: selection and projection pushdown
# ----------------------------------------------------------------------
def push_to_scans(
    plan: nodes.PlanNode, schemas: Mapping[str, Sequence[str]]
) -> nodes.PlanNode:
    """Move WHERE conjuncts and column lists onto the scans that feed them.

    ``schemas`` maps each scanned table to its column names.  A Filter
    predicate whose columns all belong to one scan below it (through
    joins and filters only) is ANDed into that scan's predicate;
    otherwise each top-level ``AND`` conjunct is placed the same way.
    Cross-scan, column-free and OR-spanning conjuncts stay in the
    Filter.  Every scan keeps just the columns the plan above it reads
    — at least one, so the row count survives.  A scan with no
    projecting node above it (``SELECT *``) keeps all of them.  Joins
    are inner, so neither move changes the result.  Applying the pass
    twice gives the same plan.
    """
    return _push(plan, None, {}, schemas)


def _push(
    node: nodes.PlanNode,
    needed: Optional[Set[str]],
    moved: Dict[int, List[Expression]],
    schemas: Mapping[str, Sequence[str]],
) -> nodes.PlanNode:
    """``node`` with the conjuncts in ``moved`` (keyed by the ``id`` of
    their scan) on its scans, and every scan cut to what the consumer
    of ``node`` reads: ``needed`` of its output (None: every column)."""
    if isinstance(node, nodes.ScanNode):
        predicate = node.predicate
        for conjunct in moved.get(id(node), ()):
            predicate = conjunct if predicate is None else predicate & conjunct
        columns = node.columns
        names = columns if columns is not None else schemas.get(node.table)
        if needed is not None and names is not None:
            columns = [c for c in names if c in needed] or list(names[:1])
        if predicate is node.predicate and columns == node.columns:
            return node
        return nodes.ScanNode(node.table, columns, predicate)
    if isinstance(node, nodes.FilterNode):
        moved, kept = dict(moved), []
        _place(node.predicate, _region_scans(node.child), schemas, moved, kept)
        if not kept:
            return _push(node.child, needed, moved, schemas)
        predicate = kept[0]
        for conjunct in kept[1:]:
            predicate = predicate & conjunct
        if needed is not None:
            needed = needed | expression_columns(predicate)
        return nodes.FilterNode(_push(node.child, needed, moved, schemas), predicate)
    reads = _child_reads(node, needed)
    kids = [_push(child, reads, moved, schemas) for child in node.children()]
    return node if kids == node.children() else nodes.rebuild_node(node, kids)


def _place(
    expr: Expression,
    scans: List[nodes.ScanNode],
    schemas: Mapping[str, Sequence[str]],
    moved: Dict[int, List[Expression]],
    kept: List[Expression],
) -> None:
    """Give ``expr`` to the one scan whose table has every column it
    reads; failing that, place the operands of a top-level ``AND`` one
    by one; failing that, keep it."""
    reads = expression_columns(expr)
    owners = [s for s in scans if not reads.isdisjoint(schemas.get(s.table, ()))]
    if len(owners) == 1 and reads.issubset(schemas[owners[0].table]):
        moved[id(owners[0])] = moved.get(id(owners[0]), []) + [expr]
    elif isinstance(expr, BinaryExpr) and expr.symbol == "AND":
        _place(expr.left, scans, schemas, moved, kept)
        _place(expr.right, scans, schemas, moved, kept)
    else:
        kept.append(expr)


def _region_scans(node: nodes.PlanNode) -> List[nodes.ScanNode]:
    """The scans under a region of joins and filters."""
    if isinstance(node, nodes.ScanNode):
        return [node]
    if isinstance(node, (nodes.JoinNode, nodes.FilterNode)):
        return [scan for child in node.children() for scan in _region_scans(child)]
    return []


def _spec_columns(spec) -> Set[str]:
    """Columns one projection output or aggregate input reads."""
    if spec is None:
        return set()
    if isinstance(spec, str):
        return {spec}
    return expression_columns(spec)


def _child_reads(node: nodes.PlanNode, needed: Optional[Set[str]]) -> Optional[Set[str]]:
    """Columns ``node`` reads from its children when its consumer reads
    ``needed`` of its output (None: every column)."""
    if isinstance(node, nodes.ProjectNode):
        return set().union(*map(_spec_columns, node.outputs.values()))
    if isinstance(node, nodes.AggregateNode):
        inputs = (spec for _, spec in node.aggregates.values())
        return set(node.group_keys).union(*map(_spec_columns, inputs))
    if isinstance(node, nodes.DistinctNode) and node.columns is not None:
        return set(node.columns)
    if needed is None:
        return None
    if isinstance(node, (nodes.SortNode, nodes.TopNNode)):
        return needed | set(node.keys)
    if isinstance(node, nodes.JoinNode):
        return needed | {node.left_key, node.right_key}
    if isinstance(node, nodes.LimitNode):
        return needed
    return None
