"""Stage 1 of the staged optimizer: join-order enumeration.

The parser emits joins in syntactic order; this module extracts the
*join graph* of a multi-join region (base relations as vertices,
equi-join predicates as edges) and searches for a cheaper order under
the cost model by exhaustive left-deep dynamic programming over
connected subsets (no cross products).  Regions larger than
:data:`DP_MAX_RELATIONS` relations keep the parser's order.

A reordered tree is adopted only when its modeled cost is *strictly*
lower than the parser plan's, and reordering never crosses anything but
plain inner hash joins — explicitly configured joins (merge algorithm,
pinned build sides, range propagation) are treated as opaque leaves.
Inner equi-joins are freely reorderable by commutativity/associativity,
so every enumerated order returns the same rows; the equivalence suite
additionally pins the bit-identical contract on TPC-H shapes.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.engine.expressions import col
from repro.plan import nodes
from repro.plan.stats import output_columns
from repro.storage.catalog import Catalog

__all__ = [
    "JoinEdge",
    "JoinGraph",
    "JoinOrderDecision",
    "extract_join_graph",
    "enumerate_orders",
    "build_join_tree",
    "dp_order",
    "reorder_joins",
    "DP_MAX_RELATIONS",
]

#: Largest relation count the exhaustive DP enumerates; larger regions
#: keep the parser's order (no workload joins more than five relations).
DP_MAX_RELATIONS = 6


@dataclasses.dataclass(frozen=True)
class JoinEdge:
    """One equi-join predicate between base relations ``a`` and ``b``."""

    a: int
    a_key: str
    b: int
    b_key: str


@dataclasses.dataclass
class JoinGraph:
    """Join graph of one multi-join region.

    ``relations`` hold the join-free base subtrees in parser order;
    ``columns`` their output column sets (used to resolve key
    ownership); ``edges`` the equi-join predicates between them.
    """

    relations: List[nodes.PlanNode]
    columns: List[Set[str]]
    edges: List[JoinEdge]

    @property
    def num_relations(self) -> int:
        """Number of base relations in the region."""
        return len(self.relations)

    def neighbors(self, rel: int) -> Set[int]:
        """Relation indices directly joined to ``rel``."""
        out: Set[int] = set()
        for e in self.edges:
            if e.a == rel:
                out.add(e.b)
            elif e.b == rel:
                out.add(e.a)
        return out

    def relation_name(self, rel: int) -> str:
        """Readable name of a base relation (its scan's table if any)."""
        node = self.relations[rel]
        while True:
            if isinstance(node, (nodes.ScanNode, nodes.PatchScanNode)):
                return node.table
            kids = node.children()
            if len(kids) != 1:
                return node.label()
            node = kids[0]


@dataclasses.dataclass
class JoinOrderDecision:
    """Outcome of the stage-1 search over one join region (for EXPLAIN)."""

    relations: List[str]
    order: List[str]
    parser_cost: float
    chosen_cost: float
    applied: bool

    def describe(self) -> str:
        """One-line rendering for EXPLAIN output."""
        chain = " ⨝ ".join(self.order)
        if self.applied:
            return (
                f"join order [dp]: {chain} "
                f"(cost {self.chosen_cost:,.1f} < parser {self.parser_cost:,.1f})"
            )
        return (
            "join order [dp]: parser order kept "
            f"(best enumerated {chain} at {self.chosen_cost:,.1f} "
            f">= parser {self.parser_cost:,.1f})"
        )


def _flattenable(node: nodes.PlanNode) -> bool:
    """Whether a join node may be dissolved into the join graph.

    Only plain inner hash joins with runtime build-side selection and no
    range propagation are reorderable; anything explicitly configured is
    kept as an opaque leaf so hand-tuned plans survive stage 1.
    """
    return (
        isinstance(node, nodes.JoinNode)
        and node.algorithm == "hash"
        and node.build_side == "auto"
        and not node.dynamic_range_propagation
    )


def extract_join_graph(plan: nodes.PlanNode, catalog: Catalog) -> Optional[JoinGraph]:
    """Join graph of the region rooted at ``plan``, or None.

    Returns None when the root is not a reorderable join or when a join
    key cannot be attributed to exactly one base relation on its side of
    the join (ambiguous column names defer to the parser's order).
    """
    if not _flattenable(plan):
        return None
    relations: List[nodes.PlanNode] = []
    columns: List[Set[str]] = []
    raw: List[Tuple[str, str, List[int], List[int]]] = []

    def collect(node: nodes.PlanNode) -> List[int]:
        """Flatten a subtree; returns the base-relation indices in it."""
        if _flattenable(node):
            left = collect(node.left)
            right = collect(node.right)
            raw.append((node.left_key, node.right_key, left, right))
            return left + right
        idx = len(relations)
        relations.append(node)
        try:
            columns.append(output_columns(node, catalog))
        except KeyError:
            columns.append(set())
        return [idx]

    collect(plan)
    edges: List[JoinEdge] = []
    for left_key, right_key, left_rels, right_rels in raw:
        edge = _resolve_edge(left_key, right_key, left_rels, right_rels, columns)
        if edge is None:
            return None
        edges.append(edge)
    return JoinGraph(relations, columns, edges)


def _resolve_edge(
    left_key: str,
    right_key: str,
    left_rels: Sequence[int],
    right_rels: Sequence[int],
    columns: Sequence[Set[str]],
) -> Optional[JoinEdge]:
    """Attribute a join predicate's keys to their owning base relations.

    Keys are first resolved positionally (left key on the join's left
    subtree); if that fails the swapped attribution is tried, since the
    SQL dialect does not require ON operands in table order.
    """

    def owner(key: str, rels: Sequence[int]) -> Optional[int]:
        """The unique relation among ``rels`` carrying ``key``, or None."""
        owners = [r for r in rels if key in columns[r]]
        return owners[0] if len(owners) == 1 else None

    a = owner(left_key, left_rels)
    b = owner(right_key, right_rels)
    if a is not None and b is not None:
        return JoinEdge(a, left_key, b, right_key)
    a = owner(right_key, left_rels)
    b = owner(left_key, right_rels)
    if a is not None and b is not None:
        return JoinEdge(a, right_key, b, left_key)
    return None


def enumerate_orders(graph: JoinGraph) -> Iterator[Tuple[int, ...]]:
    """All left-deep, cross-product-free join orders of the graph.

    Every yielded permutation keeps each prefix connected, so building
    it never introduces a cross product.  A disconnected graph yields
    nothing (callers keep the parser's order).
    """
    n = graph.num_relations
    adjacency = [graph.neighbors(r) for r in range(n)]

    def extend(order: List[int], used: Set[int]) -> Iterator[Tuple[int, ...]]:
        """Yield completions of a connected partial order."""
        if len(order) == n:
            yield tuple(order)
            return
        for r in range(n):
            if r in used:
                continue
            if order and not (adjacency[r] & used):
                continue
            order.append(r)
            used.add(r)
            yield from extend(order, used)
            order.pop()
            used.remove(r)

    yield from extend([], set())


def build_join_tree(graph: JoinGraph, order: Sequence[int]) -> nodes.PlanNode:
    """Left-deep join tree realizing ``order`` over the graph.

    The first connecting edge supplies each join's keys; further edges
    between the new relation and the accumulated prefix (cycles in the
    join graph) become equality filters on top, preserving the original
    predicate set exactly.  A partial order builds the corresponding
    prefix subtree (the DP costs subsets this way).
    """
    if not order or len(set(order)) != len(order) or not all(
        0 <= r < graph.num_relations for r in order
    ):
        raise ValueError(f"order {order!r} is not a relation sequence of the graph")
    used: Set[int] = set()
    placed: Set[int] = {order[0]}
    current: nodes.PlanNode = graph.relations[order[0]]
    for rel in order[1:]:
        connecting = [
            (i, e)
            for i, e in enumerate(graph.edges)
            if i not in used
            and ((e.a in placed and e.b == rel) or (e.b in placed and e.a == rel))
        ]
        if not connecting:
            raise ValueError(f"order {order!r} introduces a cross product at {rel}")
        idx, edge = connecting[0]
        if edge.a in placed:
            left_key, right_key = edge.a_key, edge.b_key
        else:
            left_key, right_key = edge.b_key, edge.a_key
        current = nodes.JoinNode(current, graph.relations[rel], left_key, right_key)
        used.add(idx)
        for idx, edge in connecting[1:]:
            current = nodes.FilterNode(current, col(edge.a_key) == col(edge.b_key))
            used.add(idx)
        placed.add(rel)
    return current


def dp_order(graph: JoinGraph, cost_model) -> Optional[Tuple[int, ...]]:
    """Cheapest left-deep order by exhaustive DP over connected subsets.

    Classic System-R style enumeration: the best order of every
    connected relation subset is extended one relation at a time, cost
    taken from the full cost model over the realized subtree.  Returns
    None when the graph is disconnected or larger than
    :data:`DP_MAX_RELATIONS`.
    """
    n = graph.num_relations
    if n < 2 or n > DP_MAX_RELATIONS:
        return None
    adjacency = [graph.neighbors(r) for r in range(n)]
    best: Dict[FrozenSet[int], Tuple[float, Tuple[int, ...]]] = {
        frozenset({r}): (0.0, (r,)) for r in range(n)
    }
    for size in range(1, n):
        for subset in [s for s in best if len(s) == size]:
            _, order = best[subset]
            for rel in range(n):
                if rel in subset or not (adjacency[rel] & subset):
                    continue
                candidate = order + (rel,)
                cost = cost_model.cost(build_join_tree(graph, candidate))
                key = frozenset(candidate)
                if key not in best or cost < best[key][0]:
                    best[key] = (cost, candidate)
    full = best.get(frozenset(range(n)))
    return full[1] if full is not None else None


def reorder_joins(
    plan: nodes.PlanNode,
    catalog: Catalog,
    cost_model,
) -> Tuple[nodes.PlanNode, List[JoinOrderDecision]]:
    """Run the stage-1 search over every join region of a plan.

    Returns the (possibly rebuilt) plan plus one
    :class:`JoinOrderDecision` per searched region of three to
    :data:`DP_MAX_RELATIONS` relations.  Regions keep the parser's
    order unless the DP order's modeled cost is strictly lower.
    """
    decisions: List[JoinOrderDecision] = []

    def walk(node: nodes.PlanNode) -> nodes.PlanNode:
        """Reorder every maximal join region under ``node``."""
        graph = extract_join_graph(node, catalog)
        if graph is not None and graph.num_relations >= 3:
            return _search_region(node, graph, cost_model, decisions)
        kids = node.children()
        if not kids:
            return node
        new_kids = [walk(c) for c in kids]
        if all(a is b for a, b in zip(kids, new_kids)):
            return node
        return nodes.rebuild_node(node, new_kids)

    return walk(plan), decisions


def _search_region(
    node: nodes.PlanNode,
    graph: JoinGraph,
    cost_model,
    decisions: List[JoinOrderDecision],
) -> nodes.PlanNode:
    """Search one join region, recording the decision taken."""
    order = dp_order(graph, cost_model)
    if order is None:
        return node
    candidate = build_join_tree(graph, order)
    parser_cost = cost_model.cost(node)
    chosen_cost = cost_model.cost(candidate)
    applied = chosen_cost < parser_cost
    decisions.append(
        JoinOrderDecision(
            relations=[graph.relation_name(r) for r in range(graph.num_relations)],
            order=[graph.relation_name(r) for r in order],
            parser_cost=parser_cost,
            chosen_cost=chosen_cost,
            applied=applied,
        )
    )
    return candidate if applied else node
