"""Stage-1 join ordering: graph extraction, enumeration, equivalence.

The core contract under test: every enumerated join order of a region
returns row-level bit-identical results (per column, by name), and the
staged optimizer only adopts an order whose modeled cost is strictly
lower than the parser's.
"""

import numpy as np
import pytest

from repro.plan import (
    JoinGraph,
    JoinNode,
    Optimizer,
    ScanNode,
    build_join_tree,
    dp_order,
    enumerate_orders,
    execute_plan,
    extract_join_graph,
    reorder_joins,
)
from repro.plan.cost import CostModel
from repro.plan.joinorder import DP_MAX_RELATIONS, JoinEdge, JoinOrderDecision
from repro.plan.nodes import FilterNode
from repro.plan.stats import analyze_table
from repro.storage import Catalog, Table
from repro.workloads.tpch import generate_tpch


@pytest.fixture(scope="module")
def tpch():
    """Small TPC-H catalog with distinct-count statistics loaded."""
    data = generate_tpch(scale=0.002, seed=3)
    catalog = Catalog()
    data.register(catalog)
    for name in ("customer", "orders", "lineitem", "supplier", "nation"):
        analyze_table(catalog, name)
    return catalog


def scan(table):
    return ScanNode(table)


def q3_shape():
    """customer ⨝ orders ⨝ lineitem (the Q3 join core)."""
    return JoinNode(
        JoinNode(scan("customer"), scan("orders"), "c_custkey", "o_custkey"),
        scan("lineitem"),
        "o_orderkey",
        "l_orderkey",
    )


def q5_shape():
    """customer ⨝ orders ⨝ lineitem ⨝ supplier ⨝ nation (Q5 core)."""
    return JoinNode(
        JoinNode(
            JoinNode(q3_shape().left, scan("lineitem"), "o_orderkey", "l_orderkey"),
            scan("supplier"),
            "l_suppkey",
            "s_suppkey",
        ),
        scan("nation"),
        "s_nationkey",
        "n_nationkey",
    )


def q10_shape():
    """customer ⨝ orders ⨝ lineitem ⨝ nation (Q10 core)."""
    return JoinNode(
        JoinNode(q3_shape().left, scan("lineitem"), "o_orderkey", "l_orderkey"),
        scan("nation"),
        "c_nationkey",
        "n_nationkey",
    )


def assert_bit_identical(reference, result):
    assert result.num_rows == reference.num_rows
    assert set(result.column_names) == set(reference.column_names)
    for name in reference.column_names:
        np.testing.assert_array_equal(result.column(name), reference.column(name))


class TestGraphExtraction:
    def test_q3_graph(self, tpch):
        graph = extract_join_graph(q3_shape(), tpch)
        assert graph is not None
        assert graph.num_relations == 3
        assert len(graph.edges) == 2
        names = [graph.relation_name(r) for r in range(3)]
        assert names == ["customer", "orders", "lineitem"]
        assert graph.neighbors(1) == {0, 2}  # orders joins both ends

    def test_q5_graph_is_a_path(self, tpch):
        graph = extract_join_graph(q5_shape(), tpch)
        assert graph.num_relations == 5
        assert len(graph.edges) == 4
        degrees = sorted(len(graph.neighbors(r)) for r in range(5))
        assert degrees == [1, 1, 2, 2, 2]

    def test_q10_graph_branches_at_customer(self, tpch):
        graph = extract_join_graph(q10_shape(), tpch)
        assert graph.num_relations == 4
        # customer joins orders AND nation
        assert graph.neighbors(0) == {1, 3}

    def test_merge_join_root_is_opaque(self, tpch):
        plan = JoinNode(
            scan("customer"), scan("orders"), "c_custkey", "o_custkey",
            algorithm="merge",
        )
        assert extract_join_graph(plan, tpch) is None

    def test_pinned_build_side_is_opaque_leaf(self, tpch):
        inner = JoinNode(
            scan("customer"), scan("orders"), "c_custkey", "o_custkey",
            build_side="left",
        )
        plan = JoinNode(inner, scan("lineitem"), "o_orderkey", "l_orderkey")
        graph = extract_join_graph(plan, tpch)
        assert graph is not None
        # the pinned join survives as one opaque relation
        assert graph.num_relations == 2
        assert graph.relations[0] is inner

    def test_ambiguous_key_ownership_defers(self, tpch):
        # self-join: both sides expose the same column names, so the
        # outer key cannot be attributed to one base relation
        inner = JoinNode(scan("orders"), scan("orders"), "o_orderkey", "o_orderkey")
        plan = JoinNode(inner, scan("lineitem"), "o_orderkey", "l_orderkey")
        assert extract_join_graph(plan, tpch) is None


class TestEnumeration:
    def test_path_of_three_has_four_orders(self, tpch):
        graph = extract_join_graph(q3_shape(), tpch)
        orders = list(enumerate_orders(graph))
        assert sorted(orders) == [(0, 1, 2), (1, 0, 2), (1, 2, 0), (2, 1, 0)]

    def test_every_prefix_is_connected(self, tpch):
        graph = extract_join_graph(q5_shape(), tpch)
        orders = list(enumerate_orders(graph))
        assert len(orders) == 2 ** (graph.num_relations - 1)  # path graph
        for order in orders:
            placed = {order[0]}
            for rel in order[1:]:
                assert graph.neighbors(rel) & placed
                placed.add(rel)

    def test_disconnected_graph_yields_nothing(self):
        graph = JoinGraph(
            relations=[scan("a"), scan("b")], columns=[{"x"}, {"y"}], edges=[]
        )
        assert list(enumerate_orders(graph)) == []

    def test_cross_product_order_rejected(self, tpch):
        graph = extract_join_graph(q3_shape(), tpch)
        with pytest.raises(ValueError, match="cross product"):
            build_join_tree(graph, (0, 2, 1))  # customer-lineitem: no edge

    def test_invalid_order_rejected(self, tpch):
        graph = extract_join_graph(q3_shape(), tpch)
        with pytest.raises(ValueError):
            build_join_tree(graph, (0, 0, 1))
        with pytest.raises(ValueError):
            build_join_tree(graph, ())


class TestEquivalence:
    """Every enumerated order returns bit-identical rows."""

    @pytest.mark.parametrize("shape", [q3_shape, q5_shape, q10_shape])
    def test_tpch_shapes(self, tpch, shape):
        plan = shape()
        reference = execute_plan(plan, tpch)
        graph = extract_join_graph(plan, tpch)
        orders = list(enumerate_orders(graph))
        assert len(orders) >= 4
        for order in orders:
            result = execute_plan(build_join_tree(graph, order), tpch)
            assert_bit_identical(reference, result)

    def test_cyclic_graph_extra_edges_become_filters(self):
        # triangle: extra edge of the cycle must survive as an equality
        # filter so every order keeps the original predicate set
        rng = np.random.default_rng(11)
        catalog = Catalog()
        catalog.register(Table.from_arrays("ta", {
            "ak": np.arange(40, dtype=np.int64),
            "ax": np.arange(40, dtype=np.int64) % 10,
        }))
        catalog.register(Table.from_arrays("tb", {
            "bk": rng.permutation(40).astype(np.int64),
            "bx": rng.integers(0, 10, 40).astype(np.int64),
        }))
        catalog.register(Table.from_arrays("tc", {
            "ck": rng.integers(0, 40, 200).astype(np.int64),
            "cx": rng.integers(0, 10, 200).astype(np.int64),
        }))
        graph = JoinGraph(
            relations=[scan("ta"), scan("tb"), scan("tc")],
            columns=[{"ak", "ax"}, {"bk", "bx"}, {"ck", "cx"}],
            edges=[
                JoinEdge(0, "ak", 1, "bk"),
                JoinEdge(1, "bk", 2, "ck"),
                JoinEdge(0, "ax", 2, "cx"),  # cycle-closing edge
            ],
        )
        results = []
        for order in enumerate_orders(graph):
            tree = build_join_tree(graph, order)
            kinds = {type(n).__name__ for n in _walk(tree)}
            assert "FilterNode" in kinds  # third edge kept as filter
            rel = execute_plan(tree, catalog)
            key = np.lexsort([rel.column(c) for c in sorted(rel.column_names)])
            results.append({c: rel.column(c)[key] for c in rel.column_names})
        assert len(results) >= 4
        for other in results[1:]:
            assert set(other) == set(results[0])
            for name, values in results[0].items():
                np.testing.assert_array_equal(other[name], values)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_randomized_fk_joins(self, seed):
        # random 3-5 relation FK chains: fact table strictly biggest,
        # every dim key unique, every FK value present in its parent
        rng = np.random.default_rng(seed)
        n_rel = int(rng.integers(3, 6))
        sizes = [4000] + sorted(
            rng.choice(np.arange(20, 600), size=n_rel - 1, replace=False),
            reverse=True,
        )
        catalog = Catalog()
        relations, columns, edges = [], [], []
        for i in range(n_rel):
            cols = {f"k{i}": rng.permutation(int(sizes[i])).astype(np.int64)}
            if i + 1 < n_rel:
                cols[f"f{i}"] = rng.integers(0, sizes[i + 1], int(sizes[i])).astype(
                    np.int64
                )
            cols[f"p{i}"] = rng.integers(0, 1000, int(sizes[i])).astype(np.int64)
            catalog.register(Table.from_arrays(f"t{i}", cols))
            relations.append(scan(f"t{i}"))
            columns.append(set(cols))
            if i + 1 < n_rel:
                edges.append(JoinEdge(i, f"f{i}", i + 1, f"k{i + 1}"))
            analyze_table(catalog, f"t{i}")
        graph = JoinGraph(relations, columns, edges)
        parser_tree = build_join_tree(graph, tuple(range(n_rel)))
        reference = execute_plan(parser_tree, catalog)
        assert reference.num_rows == sizes[0]  # FK joins preserve the fact
        orders = list(enumerate_orders(graph))
        assert len(orders) == 2 ** (n_rel - 1)
        for order in orders:
            result = execute_plan(build_join_tree(graph, order), catalog)
            assert_bit_identical(reference, result)

        cost_model = CostModel(catalog)
        best = dp_order(graph, cost_model)
        assert best is not None
        assert cost_model.cost(build_join_tree(graph, best)) <= cost_model.cost(
            parser_tree
        )


class TestSearch:
    def test_dp_prefers_small_intermediates(self, tpch):
        # parser order starts from the fact table; DP should not
        plan = JoinNode(
            JoinNode(scan("lineitem"), scan("orders"), "l_orderkey", "o_orderkey"),
            scan("customer"),
            "o_custkey",
            "c_custkey",
        )
        graph = extract_join_graph(plan, tpch)
        cost_model = CostModel(tpch)
        order = dp_order(graph, cost_model)
        names = [graph.relation_name(r) for r in order]
        assert names[0] != "lineitem"
        assert cost_model.cost(build_join_tree(graph, order)) < cost_model.cost(plan)

    def test_dp_matches_exhaustive_enumeration(self, tpch):
        plan = q5_shape()
        graph = extract_join_graph(plan, tpch)
        cost_model = CostModel(tpch)
        best = dp_order(graph, cost_model)
        exhaustive = min(
            enumerate_orders(graph),
            key=lambda o: cost_model.cost(build_join_tree(graph, o)),
        )
        assert cost_model.cost(build_join_tree(graph, best)) == pytest.approx(
            cost_model.cost(build_join_tree(graph, exhaustive))
        )

    def test_dp_bails_above_relation_cap(self):
        # a 7-relation FK chain, fact table first: a cheaper order
        # exists, but the DP declines the region and the parser order stays
        n = DP_MAX_RELATIONS + 1
        catalog = Catalog()
        plan = scan("r0")
        for i in range(n):
            keys = np.arange(4000 if i == 0 else 50, dtype=np.int64)
            catalog.register(Table.from_arrays(f"r{i}", {f"k{i}": keys, f"f{i}": keys % 50}))
            analyze_table(catalog, f"r{i}")
            if i:
                plan = JoinNode(plan, scan(f"r{i}"), f"f{i - 1}", f"k{i}")
        graph = extract_join_graph(plan, catalog)
        assert graph.num_relations == n
        cost_model = CostModel(catalog)
        assert min(
            cost_model.cost(build_join_tree(graph, o)) for o in enumerate_orders(graph)
        ) < cost_model.cost(plan)
        assert dp_order(graph, cost_model) is None
        new_plan, decisions = reorder_joins(plan, catalog, cost_model)
        assert new_plan is plan
        assert decisions == []


class TestReorderJoins:
    def bad_parser_plan(self):
        return JoinNode(
            JoinNode(scan("lineitem"), scan("orders"), "l_orderkey", "o_orderkey"),
            scan("customer"),
            "o_custkey",
            "c_custkey",
        )

    def test_reorder_applies_and_stays_bit_identical(self, tpch):
        plan = self.bad_parser_plan()
        reference = execute_plan(plan, tpch)
        cost_model = CostModel(tpch)
        new_plan, decisions = reorder_joins(plan, tpch, cost_model)
        assert len(decisions) == 1
        assert decisions[0].applied
        assert decisions[0].chosen_cost < decisions[0].parser_cost
        assert new_plan is not plan
        assert_bit_identical(reference, execute_plan(new_plan, tpch))

    def test_optimal_parser_order_is_kept(self, tpch):
        plan = q3_shape()  # customer first: already the cheap order
        new_plan, decisions = reorder_joins(plan, tpch, CostModel(tpch))
        assert len(decisions) == 1
        assert not decisions[0].applied
        assert new_plan is plan

    def test_two_way_joins_are_not_searched(self, tpch):
        plan = JoinNode(scan("customer"), scan("orders"), "c_custkey", "o_custkey")
        new_plan, decisions = reorder_joins(plan, tpch, CostModel(tpch))
        assert new_plan is plan
        assert decisions == []

    def test_region_below_filter_is_found(self, tpch):
        from repro.engine import col

        plan = FilterNode(self.bad_parser_plan(), col("c_custkey") < 100)
        reference = execute_plan(plan, tpch)
        new_plan, decisions = reorder_joins(plan, tpch, CostModel(tpch))
        assert len(decisions) == 1 and decisions[0].applied
        assert isinstance(new_plan, FilterNode)
        assert_bit_identical(reference, execute_plan(new_plan, tpch))

    def test_decision_describe_names_the_dp(self):
        decision = JoinOrderDecision(
            relations=["a", "b", "c"], order=["b", "a", "c"],
            parser_cost=20.0, chosen_cost=10.0, applied=True,
        )
        text = decision.describe()
        assert "[dp]" in text and "b ⨝ a ⨝ c" in text and "<" in text
        decision.applied = False
        assert "parser order kept" in decision.describe()


class TestOptimizerIntegration:
    def test_staged_optimizer_reorders(self, tpch):
        from repro.core import PatchIndexManager

        plan = JoinNode(
            JoinNode(scan("lineitem"), scan("orders"), "l_orderkey", "o_orderkey"),
            scan("customer"),
            "o_custkey",
            "c_custkey",
        )
        reference = execute_plan(plan, tpch)
        opt = Optimizer(tpch, PatchIndexManager(tpch))
        new_plan, report = opt.optimize_staged(plan)
        assert report.join_orders and report.join_orders[0].applied
        assert len(report.assignment) > 0
        assert_bit_identical(reference, execute_plan(new_plan, tpch))

    def test_forced_mode_disables_search(self, tpch):
        from repro.core import PatchIndexManager

        plan = JoinNode(
            JoinNode(scan("lineitem"), scan("orders"), "l_orderkey", "o_orderkey"),
            scan("customer"),
            "o_custkey",
            "c_custkey",
        )
        opt = Optimizer(tpch, PatchIndexManager(tpch), use_cost_model=False)
        new_plan, report = opt.optimize_staged(plan)
        assert new_plan is plan
        assert report.join_orders == []


def _walk(node):
    yield node
    for child in node.children():
        yield from _walk(child)
