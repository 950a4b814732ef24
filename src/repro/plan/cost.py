"""Cost model for PatchIndex plan decisions (paper §3.5).

The paper stresses that PatchIndex plans are costable by ordinary
optimizers: all operators are standard, cardinalities (including the
patch counts) are known, and the selection operators add a fixed,
type-independent per-tuple overhead.  This model assigns abstract cost
units per tuple per operator; the rewrite rules accept a transformed
plan only when its estimated cost undercuts the original's (unless
forced, as done for the paper's forced-plan experiments).
"""

from __future__ import annotations

import math
from typing import Dict, Union

from repro.engine import sort
from repro.plan import nodes
from repro.plan.stats import estimate_rows, is_sorted_on
from repro.storage.catalog import Catalog

__all__ = ["CostModel", "OperatorCost"]

#: Shape of one per-operator cost entry (see :meth:`CostModel.operator_cost`).
OperatorCost = Dict[str, Union[str, float]]


class CostModel:
    """Abstract per-tuple operator costs.

    The defaults encode the orderings the paper's engine exhibits:
    hashing a tuple costs more than merging it, sorting pays an extra
    log factor, and the PatchSelect overhead is a small constant (the
    "typically below 1 % of query runtime" observation of §3.5).  A
    use-patches flow touches only the patches; merging a short sorted
    run into a long one searches the short run and copies once.
    """

    COST_SCAN = 1.0
    COST_PATCH_SELECT = 0.1
    COST_FILTER = 0.3
    COST_PROJECT = 0.1
    COST_HASH_BUILD = 4.0
    COST_HASH_PROBE = 2.0
    COST_MERGE_JOIN = 1.0
    #: Sort and merge units alias the sort module's constants, whose
    #: ``serial_sort_cost`` prices every sort.
    COST_SORT = sort.SORT_UNIT
    #: Distinct and GroupAggregate are one group kernel: 11.6 ns/row on
    #: the Fig. 7 NUC column where the hash distinct priced at 3.0 took
    #: 230.  Fitted to where the measured plans cross (NUC rewrite 2.6 vs
    #: 3.3 ms plain at e = 0.2, 3.3 vs 3.1 at 0.3, 4.3 vs 2.6 at 0.5):
    #: the model crosses at e = (D - 0.25) / (D + 0.975) = 0.29.
    COST_DISTINCT = 0.75
    COST_AGGREGATE = 0.75
    COST_UNION = 0.05
    COST_MERGE_COMBINE = sort.MERGE_UNIT

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    def cost(self, node: nodes.PlanNode) -> float:
        """Total estimated cost of a plan subtree."""
        child_cost = sum(self.cost(c) for c in node.children())
        return child_cost + self._local_cost(node)

    def admission_cost(self, node: nodes.PlanNode) -> float:
        """Cost hint for multi-client admission control.

        The async session front-end
        (:class:`repro.sql.async_session.AsyncSQLSession`) stamps every
        prepared SELECT with this estimate at parse/plan time: it rides
        along through the FIFO admission queue into the per-query stats,
        so EXPLAIN-style introspection can relate a statement's queueing
        delay to how much work the planner expected it to be.  It is a
        *hint*, never a gate — a plan shape the model cannot cost (or a
        stale statistics lookup) degrades to ``0.0`` rather than failing
        admission of a perfectly executable query.
        """
        try:
            return float(self.cost(node))
        except (TypeError, KeyError, ValueError):
            return 0.0

    def dml_scan_cost(self, num_rows: float, num_predicate_columns: int = 1) -> float:
        """Cost of an UPDATE/DELETE predicate scan.

        The scan reads only the columns the predicate references, then
        evaluates the predicate once per row.
        """
        rows = float(num_rows)
        return self.COST_SCAN * rows * max(1, num_predicate_columns) + self.COST_FILTER * rows

    def sort_cost(self, num_rows: float) -> float:
        """Cost of an n-log-n sort of ``num_rows``."""
        return sort.serial_sort_cost(num_rows, self.COST_SORT)

    def topn_cost(self, num_rows: float, n: float) -> float:
        """Cost of selecting the first ``n`` rows under a sort order.

        One linear selection pass over the input plus a sort of the
        ``n`` candidates.  Undercuts :meth:`sort_cost` whenever ``n`` is
        small relative to the input, which is what lets the optimizer
        collapse Limit-over-Sort into a TopN.  The operator itself
        sorts the keys of the whole input and saves only the gather of
        the rows past ``n`` (:class:`repro.engine.operators.TopN`), so
        this formula is optimistic; it stays as is so that no plan moves.
        """
        candidates = min(float(n), float(num_rows))
        return self.COST_SORT * float(num_rows) + sort.serial_sort_cost(
            candidates, self.COST_SORT
        )

    def operator_cost(self, node: nodes.PlanNode) -> OperatorCost:
        """Per-operator cost entry for one plan node.

        Returns a dict with keys ``operator`` (short name),
        ``cardinality`` (estimated output rows), ``time_per_row``
        (marginal units per driving input row), ``startup`` (fixed units
        spent before the first output row — hash-build work, blocking
        sorts) and ``total``.  ``total`` is the authoritative figure the
        optimizer compares; the other keys decompose it for EXPLAIN's
        ``operator assignments:`` lines.
        """
        rows = estimate_rows(node, self.catalog)
        startup = 0.0
        driving = rows
        if isinstance(node, nodes.ScanNode):
            driving = float(self.catalog.table(node.table).num_rows)
            total = self.COST_SCAN * driving
        elif isinstance(node, nodes.PatchScanNode):
            # split at the patch positions: gather the patches / copy the rest
            use = node.mode == "use_patches"
            driving = float(node.index.num_patches if use else node.index.num_rows)
            total = (self.COST_SCAN + self.COST_PATCH_SELECT) * driving
        elif isinstance(node, nodes.FilterNode):
            driving = estimate_rows(node.child, self.catalog)
            total = self.COST_FILTER * driving
        elif isinstance(node, nodes.ProjectNode):
            total = self.COST_PROJECT * rows
        elif isinstance(node, nodes.JoinNode):
            left = estimate_rows(node.left, self.catalog)
            right = estimate_rows(node.right, self.catalog)
            if self._sorted_build(node):
                # the kernel skips the build sort: the merge join of §3.3
                driving = left + right
                total = self.COST_MERGE_JOIN * (left + right)
            else:
                build, probe = min(left, right), max(left, right)
                driving = probe
                startup = self.COST_HASH_BUILD * build
                total = self.COST_HASH_BUILD * build + self.COST_HASH_PROBE * probe
        elif isinstance(node, nodes.SortNode):
            driving = estimate_rows(node.child, self.catalog)
            total = self.sort_cost(driving)
            startup = total  # blocking: all work happens before the first row
        elif isinstance(node, nodes.TopNNode):
            driving = estimate_rows(node.child, self.catalog)
            total = self.topn_cost(driving, float(node.n))
            startup = total  # blocking, like the sort it replaces
        elif isinstance(node, nodes.DistinctNode):
            driving = estimate_rows(node.child, self.catalog)
            total = self.COST_DISTINCT * driving
        elif isinstance(node, nodes.AggregateNode):
            driving = estimate_rows(node.child, self.catalog)
            total = self.COST_AGGREGATE * driving
        elif isinstance(node, nodes.LimitNode):
            total = 0.0
        elif isinstance(node, nodes.UnionNode):
            total = self.COST_UNION * rows
        elif isinstance(node, nodes.MergeCombineNode):
            # the shorter runs binary-search the longest (comparisons
            # priced like a sort's), then every row is written once
            longest = max((estimate_rows(c, self.catalog) for c in node.inputs), default=0.0)
            startup = self.COST_SORT * (rows - longest) * math.log2(max(longest, 2.0))
            total = startup + self.COST_MERGE_COMBINE * rows
        elif isinstance(node, nodes.ReuseCacheNode):
            # materialization write (the child's cost is added separately)
            total = self.COST_PROJECT * rows
        elif isinstance(node, nodes.ReuseLoadNode):
            # read of an already-materialized result
            total = self.COST_PROJECT * rows
        else:
            raise TypeError(f"no cost formula for {type(node).__name__}")
        name = type(node).__name__
        per_row = max(0.0, total - startup) / driving if driving > 0 else 0.0
        return {
            "operator": name[:-4] if name.endswith("Node") else name,
            "cardinality": rows,
            "time_per_row": per_row,
            "startup": startup,
            "total": total,
        }

    def _sorted_build(self, node: nodes.JoinNode) -> bool:
        """Whether the join's pinned build side arrives sorted on its key."""
        if node.build_side == "left":
            return is_sorted_on(node.left, node.left_key, self.catalog)
        if node.build_side == "right":
            return is_sorted_on(node.right, node.right_key, self.catalog)
        return False

    def _local_cost(self, node: nodes.PlanNode) -> float:
        return float(self.operator_cost(node)["total"])
