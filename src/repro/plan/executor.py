"""Lowering logical plans onto physical operators and running them."""

from __future__ import annotations

from typing import Dict

from repro.engine.batch import Relation
from repro.engine import operators as ops
from repro.plan import nodes
from repro.storage.catalog import Catalog

__all__ = ["build_operator_tree", "execute_plan", "explain_plan"]


class _LoweringContext:
    """Per-plan state: shared Reuse slots."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self.slots: Dict[str, ops.ReuseSlot] = {}

    def slot(self, slot_id: str) -> ops.ReuseSlot:
        if slot_id not in self.slots:
            self.slots[slot_id] = ops.ReuseSlot()
        return self.slots[slot_id]


def build_operator_tree(plan: nodes.PlanNode, catalog: Catalog, context=None) -> ops.Operator:
    """Translate a logical plan into a physical operator tree.

    ``context`` is ignored: execution is serial.  The benchmark spine's
    tracer (``benchmarks/spine/spine_trace.py``) still passes
    ``SQLSession.context`` (always ``None``) as a third argument.
    """
    return _lower(plan, _LoweringContext(catalog))


def execute_plan(plan: nodes.PlanNode, catalog: Catalog) -> Relation:
    """Build and run a plan."""
    return build_operator_tree(plan, catalog).execute()


def explain_plan(plan: nodes.PlanNode, catalog: Catalog, cost_model=None, report=None) -> str:
    """Readable plan rendering annotated with optimizer estimates.

    Extends ``plan.explain()`` with per-node estimated cardinalities
    and, given a :class:`~repro.plan.cost.CostModel`, per-subtree cost
    plus a closing ``admission cost hint`` line — the figure the async
    session records for every query it admits.  A staged
    :class:`~repro.plan.optimizer.OptimizationReport` appends the
    join-order decisions and per-node operator assignments (with their
    cost dicts).  Nodes the estimators cannot handle render without
    annotations instead of failing, so the introspection surface never
    breaks a working plan.
    """
    from repro.plan.stats import estimate_rows

    lines = []

    def walk(node: nodes.PlanNode, indent: int) -> None:
        """Render one node (plus annotations) and recurse."""
        note = ""
        try:
            note = f"  [rows~{estimate_rows(node, catalog):,.0f}"
            if cost_model is not None:
                note += f", cost~{cost_model.cost(node):,.1f}"
            note += "]"
        except (TypeError, KeyError, ValueError):
            note = ""
        lines.append("  " * indent + node.label() + note)
        for child in node.children():
            walk(child, indent + 1)

    walk(plan, 0)
    if report is not None:
        lines.extend(report.describe(plan))
    if cost_model is not None:
        lines.append(
            f"admission cost hint: {cost_model.admission_cost(plan):,.1f} units"
        )
    return "\n".join(lines)


def _lower(plan: nodes.PlanNode, ctx: _LoweringContext) -> ops.Operator:
    if isinstance(plan, nodes.ScanNode):
        table = ctx.catalog.table(plan.table)
        return ops.Scan(table, columns=plan.columns, predicate=plan.predicate)
    if isinstance(plan, nodes.PatchScanNode):
        return _lower_patch_scan(plan, ctx)
    if isinstance(plan, nodes.FilterNode):
        return ops.Filter(_lower(plan.child, ctx), plan.predicate)
    if isinstance(plan, nodes.ProjectNode):
        return ops.Project(_lower(plan.child, ctx), plan.outputs)
    if isinstance(plan, nodes.JoinNode):
        return ops.HashJoin(
            _lower(plan.left, ctx),
            _lower(plan.right, ctx),
            plan.left_key,
            plan.right_key,
            build_side=plan.build_side,
            dynamic_range_propagation=plan.dynamic_range_propagation,
        )
    if isinstance(plan, nodes.DistinctNode):
        return ops.Distinct(_lower(plan.child, ctx), plan.columns)
    if isinstance(plan, nodes.AggregateNode):
        return ops.GroupAggregate(_lower(plan.child, ctx), plan.group_keys, plan.aggregates)
    if isinstance(plan, nodes.SortNode):
        return ops.Sort(_lower(plan.child, ctx), plan.keys, plan.ascending)
    if isinstance(plan, nodes.TopNNode):
        return ops.TopN(_lower(plan.child, ctx), plan.keys, plan.ascending, plan.n)
    if isinstance(plan, nodes.LimitNode):
        return ops.Limit(_lower(plan.child, ctx), plan.n, plan.offset)
    if isinstance(plan, nodes.UnionNode):
        return ops.Union([_lower(c, ctx) for c in plan.inputs])
    if isinstance(plan, nodes.MergeCombineNode):
        return ops.MergeUnion([_lower(c, ctx) for c in plan.inputs], plan.key, plan.ascending)
    if isinstance(plan, nodes.ReuseCacheNode):
        return ops.ReuseCache(_lower(plan.child, ctx), ctx.slot(plan.slot_id))
    if isinstance(plan, nodes.ReuseLoadNode):
        return ops.ReuseLoad(ctx.slot(plan.slot_id))
    raise TypeError(f"cannot lower {type(plan).__name__}")


def _lower_patch_scan(plan: nodes.PatchScanNode, ctx: _LoweringContext) -> ops.Operator:
    table = ctx.catalog.table(plan.table)
    index = plan.index

    def flow(part, part_index) -> ops.Operator:
        scan = ops.Scan(part, columns=plan.columns, predicate=plan.predicate)
        return ops.PatchSelect(scan, part_index.patch_rowids, plan.mode)

    if plan.sorted_output and plan.mode == "exclude_patches" and len(table.partitions) > 1:
        # NSC exclude flows are sorted *per partition*; merge them into a
        # global order (the partition merge step of §6.2).
        parts = [flow(part, index.parts[i].index) for i, part in enumerate(table.partitions)]
        return ops.MergeUnion(parts, index.column, plan.sort_ascending)
    return flow(table, index)
