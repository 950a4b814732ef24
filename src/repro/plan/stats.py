"""Cardinality estimation over logical plans.

Estimates feed the cost model of §3.5.  Scans read exact table
cardinalities from the catalog; PatchIndex scan estimates are *exact*
because the number of patches is known at optimization time — the
property the paper exploits for build-side selection and zero-branch
pruning.

Join estimates additionally consult *distinct-count statistics* when
the catalog carries them (see :func:`analyze_table`): an equi-join's
selectivity is then ``1 / max(d_left, d_right)`` over the join keys'
distinct counts — the classic System-R formula — instead of the flat
FK-join assumption.  Stats are versioned against the table they were
collected from, so a stale ANALYZE degrades to the heuristic rather
than misleading the join-order search.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Optional, Set

from repro.core.constraints import NearlySortedColumn
from repro.engine.groups import sorted_unique
from repro.plan import nodes
from repro.storage.catalog import Catalog

__all__ = [
    "estimate_rows",
    "analyze_table",
    "distinct_count",
    "join_selectivity",
    "output_columns",
    "is_sorted_on",
    "DEFAULT_FILTER_SELECTIVITY",
    "DISTINCT_STAT_KIND",
]

#: Heuristic selectivity for arbitrary predicates.
DEFAULT_FILTER_SELECTIVITY = 0.33

#: Catalog structure kind under which ANALYZE registers column stats.
DISTINCT_STAT_KIND = "distinct_count"


@dataclasses.dataclass(frozen=True)
class ColumnStats:
    """Distinct-count statistic for one column, stamped with the table
    version it was collected at (stale stats are ignored)."""

    distinct: int
    version: int


def analyze_table(
    catalog: Catalog, table_name: str, columns: Optional[Iterable[str]] = None
) -> List[str]:
    """Collect distinct-count stats for a table's columns (ANALYZE).

    Registers one :class:`ColumnStats` per column under the
    ``distinct_count`` structure kind, stamped with the table's current
    version so later DML invalidates it implicitly.  Returns the list
    of analyzed column names.
    """
    table = catalog.table(table_name)
    names = list(columns) if columns is not None else list(table.schema.names)
    version = table.version
    for name in names:
        values = table.column(name)
        count = len(sorted_unique(values))
        catalog.add_structure(
            DISTINCT_STAT_KIND, table_name, name, ColumnStats(count, version)
        )
    return names


def distinct_count(catalog: Catalog, table_name: str, column: str) -> Optional[int]:
    """Distinct count of a column if fresh stats exist, else None.

    Stats collected at an older table version than the current one are
    treated as absent: DML may have changed the value distribution.
    """
    stat = catalog.structure(DISTINCT_STAT_KIND, table_name, column)
    if not isinstance(stat, ColumnStats):
        return None
    try:
        current = catalog.table(table_name).version
    except KeyError:
        return None
    if stat.version != current:
        return None
    return stat.distinct


def output_columns(node: nodes.PlanNode, catalog: Catalog) -> Set[str]:
    """Column names a plan node's output carries.

    Used by the join-order search to resolve which base relation owns a
    join key (the repo's SQL dialect keeps column names unique across
    joined tables).  Nodes the walk cannot see through report the union
    of their children's columns.
    """
    if isinstance(node, nodes.ScanNode):
        if node.columns is not None:
            return set(node.columns)
        return set(catalog.table(node.table).schema.names)
    if isinstance(node, nodes.PatchScanNode):
        if node.columns is not None:
            return set(node.columns)
        return set(catalog.table(node.table).schema.names)
    if isinstance(node, nodes.ProjectNode):
        return set(node.outputs)
    if isinstance(node, nodes.AggregateNode):
        return set(node.group_keys) | set(node.aggregates)
    out: Set[str] = set()
    for child in node.children():
        out |= output_columns(child, catalog)
    return out


def estimate_rows(node: nodes.PlanNode, catalog: Catalog) -> float:
    """Estimated output cardinality of a plan node."""
    if isinstance(node, nodes.ScanNode):
        rows = float(catalog.table(node.table).num_rows)
        if node.predicate is not None:
            rows *= DEFAULT_FILTER_SELECTIVITY
        return rows
    if isinstance(node, nodes.PatchScanNode):
        patches = float(node.index.num_patches)
        total = float(node.index.num_rows)
        rows = patches if node.mode == "use_patches" else total - patches
        if node.predicate is not None:
            rows *= DEFAULT_FILTER_SELECTIVITY
        return rows
    if isinstance(node, nodes.FilterNode):
        return DEFAULT_FILTER_SELECTIVITY * estimate_rows(node.child, catalog)
    if isinstance(node, (nodes.ProjectNode, nodes.SortNode)):
        return estimate_rows(node.children()[0], catalog)
    if isinstance(node, nodes.JoinNode):
        left = estimate_rows(node.left, catalog)
        right = estimate_rows(node.right, catalog)
        sel = join_selectivity(node, catalog)
        if sel is not None:
            return max(1.0, left * right * sel)
        # FK-join assumption: output bounded by the larger input.
        return max(left, right)
    if isinstance(node, nodes.DistinctNode):
        return 0.5 * estimate_rows(node.child, catalog)
    if isinstance(node, nodes.AggregateNode):
        child = estimate_rows(node.child, catalog)
        return child if not node.group_keys else max(1.0, 0.1 * child)
    if isinstance(node, nodes.LimitNode):
        child = estimate_rows(node.child, catalog)
        return min(float(node.n), max(0.0, child - float(node.offset)))
    if isinstance(node, nodes.TopNNode):
        return min(float(node.n), estimate_rows(node.child, catalog))
    if isinstance(node, (nodes.UnionNode, nodes.MergeCombineNode)):
        return sum(estimate_rows(c, catalog) for c in node.children())
    if isinstance(node, nodes.ReuseCacheNode):
        return estimate_rows(node.child, catalog)
    if isinstance(node, nodes.ReuseLoadNode):
        return node.hint_rows
    raise TypeError(f"no estimator for {type(node).__name__}")


def join_selectivity(node: nodes.JoinNode, catalog: Catalog) -> Optional[float]:
    """Equi-join selectivity from distinct-count stats, or None.

    ``1 / max(d_left, d_right)`` over the join keys' distinct counts
    (System R): each tuple of the side with fewer key values matches
    ``|other| / d_other`` partners on average.  Returns None — caller
    falls back to the FK heuristic — when neither side's key has fresh
    stats (the former behavior was a flat constant regardless of
    stats, which made every join order look equally good).
    """
    d_left = _key_distinct(node.left, node.left_key, catalog)
    d_right = _key_distinct(node.right, node.right_key, catalog)
    known = [d for d in (d_left, d_right) if d is not None and d > 0]
    if not known:
        return None
    return 1.0 / float(max(known))


def _key_distinct(node: nodes.PlanNode, key: str, catalog: Catalog) -> Optional[int]:
    """Distinct count of a join key within a plan subtree, or None.

    Walks to the base Scan/PatchScan owning the column and reads the
    catalog stats for it.  The base-table count is an upper bound for
    any filtered subtree above it, which is the standard System-R
    treatment.
    """
    if isinstance(node, (nodes.ScanNode, nodes.PatchScanNode)):
        if key in output_columns(node, catalog):
            return distinct_count(catalog, node.table, key)
        return None
    for child in node.children():
        if key in output_columns(child, catalog):
            return _key_distinct(child, key, catalog)
    return None


def is_sorted_on(node: nodes.PlanNode, key: str, catalog: Catalog) -> bool:
    """Whether a plan node's output is non-decreasing on ``key``.

    True for scans of tables with an ascending SortKey on the column,
    for ascending NSC exclude-patches flows, and propagated through
    order-preserving operators (filters, projections keeping the key,
    and the probe side of a join with a pinned build side, whose output
    is probe-major, §3.3).  Descending orders answer False: the join
    kernel's sort-free build needs non-decreasing keys.
    """
    if isinstance(node, nodes.ScanNode):
        structure = catalog.structure("sortkey", node.table, key)
        return structure is not None and bool(getattr(structure, "ascending", True))
    if isinstance(node, nodes.PatchScanNode):
        constraint = node.index.constraint
        return (
            node.mode == "exclude_patches"
            and isinstance(constraint, NearlySortedColumn)
            and constraint.ascending
            and node.index.column == key
        )
    if isinstance(node, (nodes.FilterNode, nodes.ReuseCacheNode)):
        return is_sorted_on(node.child, key, catalog)
    if isinstance(node, nodes.ProjectNode):
        passed = node.outputs.get(key)  # an Expression's == builds a predicate
        return isinstance(passed, str) and passed == key and is_sorted_on(
            node.child, key, catalog
        )
    if isinstance(node, nodes.JoinNode):
        if node.build_side == "left":
            return is_sorted_on(node.right, key, catalog)
        if node.build_side == "right":
            return is_sorted_on(node.left, key, catalog)
    return False
