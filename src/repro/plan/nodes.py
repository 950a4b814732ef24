"""Logical plan algebra.

Plan nodes are immutable descriptions; rewrite rules produce new trees.
``PatchScanNode`` and ``MergeCombineNode`` only appear in optimized
plans (they are what the PatchIndex rewrites of §3.3 insert).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.engine.expressions import Expression

__all__ = [
    "PlanNode",
    "ScanNode",
    "PatchScanNode",
    "FilterNode",
    "ProjectNode",
    "JoinNode",
    "DistinctNode",
    "AggregateNode",
    "SortNode",
    "TopNNode",
    "LimitNode",
    "UnionNode",
    "MergeCombineNode",
    "ReuseCacheNode",
    "ReuseLoadNode",
    "rebuild_node",
]


class PlanNode:
    """Base class for logical plan nodes."""

    def children(self) -> List["PlanNode"]:
        """Child nodes, left to right (empty for leaves)."""
        return []

    def label(self) -> str:
        """One-line node description used in plan renderings."""
        return type(self).__name__

    def explain(self, indent: int = 0) -> str:
        """Readable plan rendering."""
        lines = ["  " * indent + self.label()]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)


class ScanNode(PlanNode):
    """Scan of a named table, optionally filtered."""

    def __init__(
        self,
        table: str,
        columns: Optional[Sequence[str]] = None,
        predicate: Optional[Expression] = None,
    ) -> None:
        self.table = table
        self.columns = list(columns) if columns is not None else None
        self.predicate = predicate

    def label(self) -> str:
        """One-line node description."""
        pred = f", pred={self.predicate!r}" if self.predicate is not None else ""
        return f"Scan({self.table}{pred})"


class PatchScanNode(PlanNode):
    """PatchIndex scan: table scan plus patch selection (§3.3).

    ``mode`` is ``"exclude_patches"`` or ``"use_patches"``; ``index`` is
    the maintained index handle at whose patch rowIDs the selection
    splits the scan.  ``sorted_output`` marks the NSC exclude-side flow
    whose per-partition streams must be merged to a global order.
    """

    def __init__(
        self,
        table: str,
        index,
        mode: str,
        columns: Optional[Sequence[str]] = None,
        predicate: Optional[Expression] = None,
        sorted_output: bool = False,
        sort_ascending: bool = True,
    ) -> None:
        self.table = table
        self.index = index
        self.mode = mode
        self.columns = list(columns) if columns is not None else None
        self.predicate = predicate
        self.sorted_output = sorted_output
        self.sort_ascending = sort_ascending

    def label(self) -> str:
        """One-line node description."""
        return f"PatchScan({self.table}.{self.index.column}, {self.mode})"


class FilterNode(PlanNode):
    """Predicate selection."""

    def __init__(self, child: PlanNode, predicate: Expression) -> None:
        self.child = child
        self.predicate = predicate

    def children(self) -> List[PlanNode]:
        """Child nodes, left to right."""
        return [self.child]

    def label(self) -> str:
        """One-line node description."""
        return f"Filter({self.predicate!r})"


class ProjectNode(PlanNode):
    """Projection / computed columns."""

    def __init__(self, child: PlanNode, outputs: Dict[str, Union[str, Expression]]) -> None:
        self.child = child
        self.outputs = dict(outputs)

    def children(self) -> List[PlanNode]:
        """Child nodes, left to right."""
        return [self.child]

    def label(self) -> str:
        """One-line node description."""
        return f"Project({list(self.outputs)})"


class JoinNode(PlanNode):
    """Inner equi-join.

    ``build_side`` follows the paper's lowest-cardinality heuristic when
    ``"auto"``; a pinned side is built first and the other probes it.
    """

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        left_key: str,
        right_key: str,
        build_side: str = "auto",
        dynamic_range_propagation: bool = False,
    ) -> None:
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_key = right_key
        self.build_side = build_side
        self.dynamic_range_propagation = dynamic_range_propagation

    def children(self) -> List[PlanNode]:
        """Child nodes, left to right."""
        return [self.left, self.right]

    def label(self) -> str:
        """One-line node description."""
        return f"Join[build={self.build_side}]({self.left_key}={self.right_key})"


class DistinctNode(PlanNode):
    """Duplicate elimination."""

    def __init__(self, child: PlanNode, columns: Optional[Sequence[str]] = None) -> None:
        self.child = child
        self.columns = list(columns) if columns is not None else None

    def children(self) -> List[PlanNode]:
        """Child nodes, left to right."""
        return [self.child]

    def label(self) -> str:
        """One-line node description."""
        return f"Distinct({self.columns or 'all'})"


class AggregateNode(PlanNode):
    """Group-by aggregation (same spec as the physical operator)."""

    def __init__(
        self,
        child: PlanNode,
        group_keys: Sequence[str],
        aggregates: Dict[str, Tuple[str, object]],
    ) -> None:
        self.child = child
        self.group_keys = list(group_keys)
        self.aggregates = dict(aggregates)

    def children(self) -> List[PlanNode]:
        """Child nodes, left to right."""
        return [self.child]

    def label(self) -> str:
        """One-line node description."""
        return f"Aggregate(by={self.group_keys})"


class SortNode(PlanNode):
    """Multi-key sort."""

    def __init__(
        self,
        child: PlanNode,
        keys: Sequence[str],
        ascending: Optional[Sequence[bool]] = None,
    ) -> None:
        self.child = child
        self.keys = list(keys)
        self.ascending = list(ascending) if ascending is not None else [True] * len(self.keys)

    def children(self) -> List[PlanNode]:
        """Child nodes, left to right."""
        return [self.child]

    def label(self) -> str:
        """One-line node description."""
        return f"Sort({self.keys})"


class TopNNode(PlanNode):
    """First ``n`` rows under a sort order (ORDER BY … LIMIT n).

    A *physical* pushdown of Limit-over-Sort, into which the optimizer
    collapses the pair when that undercuts the sort: per-chunk selection
    of the n best rows plus a merge of the candidates, bit-identical to
    the full sort followed by the limit.
    """

    def __init__(
        self,
        child: PlanNode,
        keys: Sequence[str],
        ascending: Optional[Sequence[bool]],
        n: int,
    ) -> None:
        self.child = child
        self.keys = list(keys)
        self.ascending = list(ascending) if ascending is not None else [True] * len(self.keys)
        self.n = n

    def children(self) -> List[PlanNode]:
        """Child nodes, left to right."""
        return [self.child]

    def label(self) -> str:
        """One-line node description."""
        return f"TopN({self.keys}, n={self.n})"


class LimitNode(PlanNode):
    """First-n, after skipping ``offset`` rows."""

    def __init__(self, child: PlanNode, n: int, offset: int = 0) -> None:
        self.child = child
        self.n = n
        self.offset = offset

    def children(self) -> List[PlanNode]:
        """Child nodes, left to right."""
        return [self.child]

    def label(self) -> str:
        """One-line node description."""
        if self.offset:
            return f"Limit({self.n}, offset={self.offset})"
        return f"Limit({self.n})"


class UnionNode(PlanNode):
    """Bag union of the children's outputs."""

    def __init__(self, inputs: Sequence[PlanNode]) -> None:
        self.inputs = list(inputs)

    def children(self) -> List[PlanNode]:
        """Child nodes, left to right."""
        return list(self.inputs)

    def label(self) -> str:
        """One-line node description."""
        return f"Union(n={len(self.inputs)})"


class MergeCombineNode(PlanNode):
    """Order-preserving merge of sorted children (§3.3 sort plan)."""

    def __init__(self, inputs: Sequence[PlanNode], key: str, ascending: bool = True) -> None:
        self.inputs = list(inputs)
        self.key = key
        self.ascending = ascending

    def children(self) -> List[PlanNode]:
        """Child nodes, left to right."""
        return list(self.inputs)

    def label(self) -> str:
        """One-line node description."""
        return f"MergeCombine(key={self.key})"


class ReuseCacheNode(PlanNode):
    """Materializes the child result under ``slot_id`` (§5's ReuseCache)."""

    def __init__(self, child: PlanNode, slot_id: str) -> None:
        self.child = child
        self.slot_id = slot_id

    def children(self) -> List[PlanNode]:
        """Child nodes, left to right."""
        return [self.child]

    def label(self) -> str:
        """One-line node description."""
        return f"ReuseCache({self.slot_id})"


class ReuseLoadNode(PlanNode):
    """Reads a result materialized by a ReuseCacheNode (§5's ReuseLoad).

    ``hint_rows`` carries the producer's cardinality estimate so the
    cost model can reason about plans that read the cached result.
    """

    def __init__(self, slot_id: str, hint_rows: float) -> None:
        self.slot_id = slot_id
        self.hint_rows = hint_rows

    def label(self) -> str:
        """One-line node description."""
        return f"ReuseLoad({self.slot_id})"


def rebuild_node(plan: PlanNode, kids) -> PlanNode:
    """Copy a node with new children (structural rebuild)."""
    if isinstance(plan, FilterNode):
        return FilterNode(kids[0], plan.predicate)
    if isinstance(plan, ProjectNode):
        return ProjectNode(kids[0], plan.outputs)
    if isinstance(plan, JoinNode):
        return JoinNode(
            kids[0], kids[1], plan.left_key, plan.right_key,
            build_side=plan.build_side,
            dynamic_range_propagation=plan.dynamic_range_propagation,
        )
    if isinstance(plan, DistinctNode):
        return DistinctNode(kids[0], plan.columns)
    if isinstance(plan, AggregateNode):
        return AggregateNode(kids[0], plan.group_keys, plan.aggregates)
    if isinstance(plan, SortNode):
        return SortNode(kids[0], plan.keys, plan.ascending)
    if isinstance(plan, TopNNode):
        return TopNNode(kids[0], plan.keys, plan.ascending, plan.n)
    if isinstance(plan, LimitNode):
        return LimitNode(kids[0], plan.n, plan.offset)
    if isinstance(plan, UnionNode):
        return UnionNode(kids)
    if isinstance(plan, MergeCombineNode):
        return MergeCombineNode(kids, plan.key, plan.ascending)
    if isinstance(plan, ReuseCacheNode):
        return ReuseCacheNode(kids[0], plan.slot_id)
    raise TypeError(f"cannot rebuild {type(plan).__name__}")
