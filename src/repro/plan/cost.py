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

from repro.engine.parallel import DEFAULT_MORSEL_ROWS
from repro.engine import parallel_sort
from repro.plan import nodes
from repro.plan.stats import estimate_rows
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

    ``parallelism`` makes the model aware of the morsel-parallel
    executor: per-tuple costs of the data-parallel operators (scans,
    filters, patch selections, hash joins) are divided by
    the worker count achievable for the operator's input cardinality —
    an input smaller than a morsel cannot use more than one worker —
    plus a per-worker dispatch overhead.  Sorts cost the cheaper of the
    serial n-log-n path and the parallel chunk-sort + k-way merge
    pipeline (``sort_parallel_payoff``); the remaining order-sensitive
    operators (merge join/combine) and the group kernel's single-path
    distinct/aggregation keep their serial cost.
    """

    COST_SCAN = 1.0
    COST_PATCH_SELECT = 0.1
    COST_FILTER = 0.3
    COST_PROJECT = 0.1
    COST_HASH_BUILD = 4.0
    COST_HASH_PROBE = 2.0
    COST_MERGE_JOIN = 1.0
    #: Sort/merge/dispatch units alias the parallel-sort module's
    #: constants so the runtime payoff gate and this model cannot drift
    #: apart (they are documented as sharing one formula).
    COST_SORT = parallel_sort.SORT_UNIT
    #: Distinct and GroupAggregate are one group kernel: 11.6 ns/row on
    #: the Fig. 7 NUC column where the hash distinct priced at 3.0 took
    #: 230.  Fitted to where the measured plans cross (NUC rewrite 2.6 vs
    #: 3.3 ms plain at e = 0.2, 3.3 vs 3.1 at 0.3, 4.3 vs 2.6 at 0.5):
    #: the model crosses at e = (D - 0.25) / (D + 0.975) = 0.29.
    COST_DISTINCT = 0.75
    COST_AGGREGATE = 0.75
    COST_UNION = 0.05
    COST_MERGE_COMBINE = parallel_sort.MERGE_UNIT
    #: Fixed cost of dispatching work to one parallel worker.
    COST_WORKER_DISPATCH = parallel_sort.DISPATCH_UNIT

    def __init__(
        self,
        catalog: Catalog,
        parallelism: int = 1,
        morsel_rows: int = DEFAULT_MORSEL_ROWS,
    ) -> None:
        self.catalog = catalog
        self.parallelism = max(1, int(parallelism))
        self.morsel_rows = max(1, int(morsel_rows))

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

    def _parallel(self, cost_units: float, rows: float) -> float:
        """Scale a data-parallel operator's cost by achievable workers.

        Inputs smaller than a morsel run serially in the executor, so
        they keep the serial cost — no phantom dispatch overhead.
        """
        if self.parallelism <= 1 or rows <= 0:
            return cost_units
        workers = min(float(self.parallelism), rows / self.morsel_rows)
        if workers <= 1.0:
            return cost_units
        return cost_units / workers + self.COST_WORKER_DISPATCH * workers

    def _dml_scan_units(self, num_rows: float, num_predicate_columns: int) -> float:
        """Serial cost units of an UPDATE/DELETE predicate scan."""
        rows = float(num_rows)
        return (
            self.COST_SCAN * rows * max(1, num_predicate_columns)
            + self.COST_FILTER * rows
        )

    def dml_scan_cost(self, num_rows: float, num_predicate_columns: int = 1) -> float:
        """Cost of an UPDATE/DELETE predicate scan.

        The scan reads only the columns the predicate references and is
        data-parallel (the session evaluates it per morsel), so it
        scales with the worker count exactly like a SELECT scan+filter.
        """
        units = self._dml_scan_units(num_rows, num_predicate_columns)
        return self._parallel(units, float(num_rows))

    def dml_parallel_payoff(self, num_rows: float, num_predicate_columns: int = 1) -> bool:
        """Whether the parallel DML scan undercuts the serial scan.

        The session consults this before fanning a predicate scan out to
        the worker pool: dispatch overhead must be amortized by the
        per-worker cost reduction, otherwise the statement stays serial.
        """
        if self.parallelism <= 1:
            return False
        units = self._dml_scan_units(num_rows, num_predicate_columns)
        return self._parallel(units, float(num_rows)) < units

    def sort_cost(self, num_rows: float) -> float:
        """Cost of sorting ``num_rows``: the cheaper of the serial
        n-log-n sort and the chunk-sort + k-way merge pipeline.

        Shares the formula the runtime gate uses (see
        :func:`repro.engine.parallel_sort.parallel_sort_cost`), so plan
        decisions and execution agree on when a sort fans out.
        """
        serial = parallel_sort.serial_sort_cost(num_rows, self.COST_SORT)
        if not self.sort_parallel_payoff(num_rows):
            return serial
        return parallel_sort.parallel_sort_cost(
            num_rows,
            self.parallelism,
            self.morsel_rows,
            sort_unit=self.COST_SORT,
            merge_unit=self.COST_MERGE_COMBINE,
            dispatch_unit=self.COST_WORKER_DISPATCH,
        )

    def sort_parallel_payoff(self, num_rows: float) -> bool:
        """Whether a parallel chunk-sort undercuts the serial sort
        (mirrors ``dml_parallel_payoff`` for the ORDER BY path)."""
        if self.parallelism <= 1:
            return False
        return parallel_sort.sort_parallel_payoff(
            num_rows,
            self.parallelism,
            self.morsel_rows,
            sort_unit=self.COST_SORT,
            merge_unit=self.COST_MERGE_COMBINE,
            dispatch_unit=self.COST_WORKER_DISPATCH,
        )

    def topn_cost(self, num_rows: float, n: float) -> float:
        """Cost of selecting the first ``n`` rows under a sort order.

        One linear selection pass over the input (per-chunk top-n) plus
        a full sort of the surviving candidates.  Undercuts
        :meth:`sort_cost` whenever ``n`` is small relative to the input,
        which is what lets the TopN selection link replace
        Limit-over-Sort only when the pushdown actually pays off.
        """
        candidates = min(float(n), float(num_rows))
        return self.COST_SORT * float(num_rows) + parallel_sort.serial_sort_cost(
            candidates, self.COST_SORT
        )

    def operator_cost(self, node: nodes.PlanNode) -> OperatorCost:
        """Per-operator cost entry for one plan node.

        Returns a dict with keys ``operator`` (short name),
        ``cardinality`` (estimated output rows), ``time_per_row``
        (marginal units per driving input row), ``startup`` (fixed units
        spent before the first output row — hash-build work, blocking
        sorts) and ``total``.  ``total`` is the authoritative figure the
        optimizer compares (it includes parallel scaling, so it is not
        always ``startup + time_per_row * cardinality``); the other keys
        decompose it for EXPLAIN and the stage-2 selection links.
        """
        rows = estimate_rows(node, self.catalog)
        startup = 0.0
        driving = rows
        if isinstance(node, nodes.ScanNode):
            driving = float(self.catalog.table(node.table).num_rows)
            total = self._parallel(self.COST_SCAN * driving, driving)
        elif isinstance(node, nodes.PatchScanNode):
            # split at the patch positions: gather the patches / copy the rest
            use = node.mode == "use_patches"
            driving = float(node.index.num_patches if use else node.index.num_rows)
            total = self._parallel(
                (self.COST_SCAN + self.COST_PATCH_SELECT) * driving, driving
            )
        elif isinstance(node, nodes.FilterNode):
            driving = estimate_rows(node.child, self.catalog)
            total = self._parallel(self.COST_FILTER * driving, driving)
        elif isinstance(node, nodes.ProjectNode):
            total = self.COST_PROJECT * rows
        elif isinstance(node, nodes.JoinNode):
            left = estimate_rows(node.left, self.catalog)
            right = estimate_rows(node.right, self.catalog)
            if node.algorithm == "merge":
                driving = left + right
                total = self.COST_MERGE_JOIN * (left + right)
            else:
                build, probe = min(left, right), max(left, right)
                driving = probe
                startup = self.COST_HASH_BUILD * build
                total = self._parallel(
                    self.COST_HASH_BUILD * build + self.COST_HASH_PROBE * probe, probe
                )
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

    def _local_cost(self, node: nodes.PlanNode) -> float:
        return float(self.operator_cost(node)["total"])
