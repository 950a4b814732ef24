"""Catalog statistics: ANALYZE, distinct counts, join selectivity."""

import numpy as np
import pytest

from repro.plan import JoinNode, ScanNode, analyze_table, distinct_count
from repro.plan.nodes import FilterNode, TopNNode
from repro.plan.stats import (
    DISTINCT_STAT_KIND,
    estimate_rows,
    join_selectivity,
)
from repro.engine import col
from repro.storage import Catalog, Table
from repro.workloads.tpch import generate_tpch


@pytest.fixture(scope="module")
def tpch():
    data = generate_tpch(scale=0.002, seed=3)
    catalog = Catalog()
    data.register(catalog)
    for name in ("customer", "orders", "lineitem"):
        analyze_table(catalog, name)
    return catalog


class TestAnalyze:
    def test_distinct_counts_registered(self, tpch):
        assert distinct_count(tpch, "customer", "c_custkey") == 300
        d_cust = distinct_count(tpch, "orders", "o_custkey")
        assert d_cust is not None and 1 < d_cust <= 300

    def test_unanalyzed_column_returns_none(self):
        catalog = Catalog()
        catalog.register(Table.from_arrays("t", {"a": np.arange(10)}))
        assert distinct_count(catalog, "t", "a") is None

    def test_analyze_subset_of_columns(self):
        catalog = Catalog()
        catalog.register(
            Table.from_arrays("t", {"a": np.arange(10), "b": np.zeros(10, np.int64)})
        )
        analyze_table(catalog, "t", columns=["a"])
        assert distinct_count(catalog, "t", "a") == 10
        assert distinct_count(catalog, "t", "b") is None

    def test_stale_stats_after_table_mutation(self):
        catalog = Catalog()
        table = Table.from_arrays("t", {"a": np.arange(10, dtype=np.int64)})
        catalog.register(table)
        analyze_table(catalog, "t")
        assert distinct_count(catalog, "t", "a") == 10
        table.modify(table.rowids()[:5], {"a": np.zeros(5, dtype=np.int64)})
        assert distinct_count(catalog, "t", "a") is None  # version moved on
        analyze_table(catalog, "t")
        assert distinct_count(catalog, "t", "a") == 6

    def test_stats_live_in_catalog_structures(self, tpch):
        assert tpch.structure(DISTINCT_STAT_KIND, "customer", "c_custkey") is not None


class TestJoinSelectivity:
    def test_key_fk_join_uses_pk_distinct(self, tpch):
        join = JoinNode(
            ScanNode("customer"), ScanNode("orders"), "c_custkey", "o_custkey"
        )
        sel = join_selectivity(join, tpch)
        assert sel == pytest.approx(1.0 / 300)

    def test_fact_join_selectivity(self, tpch):
        join = JoinNode(
            ScanNode("orders"), ScanNode("lineitem"), "o_orderkey", "l_orderkey"
        )
        assert join_selectivity(join, tpch) == pytest.approx(1.0 / 3000)

    def test_no_stats_means_none(self):
        catalog = Catalog()
        catalog.register(Table.from_arrays("a", {"x": np.arange(5)}))
        catalog.register(Table.from_arrays("b", {"y": np.arange(5)}))
        join = JoinNode(ScanNode("a"), ScanNode("b"), "x", "y")
        assert join_selectivity(join, catalog) is None

    def test_estimate_falls_back_without_stats(self):
        catalog = Catalog()
        catalog.register(Table.from_arrays("a", {"x": np.arange(50)}))
        catalog.register(Table.from_arrays("b", {"y": np.arange(200) % 50}))
        join = JoinNode(ScanNode("a"), ScanNode("b"), "x", "y")
        assert estimate_rows(join, catalog) == 200.0  # seed behavior: max side

    def test_stats_sharpen_filtered_join_estimate(self, tpch):
        # filtered customers joined to orders: the FK fallback says
        # max(100, 3000) = 3000, the distinct-count estimate scales down
        filtered = FilterNode(ScanNode("customer"), col("c_custkey") < 100)
        join = JoinNode(filtered, ScanNode("orders"), "c_custkey", "o_custkey")
        est = estimate_rows(join, tpch)
        fallback = max(estimate_rows(filtered, tpch), 3000.0)
        assert est < fallback
        assert est == pytest.approx(
            estimate_rows(filtered, tpch) * 3000.0 / 300.0
        )

    def test_selectivity_works_through_join_subtrees(self, tpch):
        inner = JoinNode(
            ScanNode("customer"), ScanNode("orders"), "c_custkey", "o_custkey"
        )
        outer = JoinNode(inner, ScanNode("lineitem"), "o_orderkey", "l_orderkey")
        assert join_selectivity(outer, tpch) == pytest.approx(1.0 / 3000)


class TestTopNEstimate:
    def test_topn_bounded_by_n(self, tpch):
        node = TopNNode(ScanNode("orders"), ["o_orderdate"], None, 10)
        assert estimate_rows(node, tpch) == 10.0

    def test_topn_bounded_by_child(self, tpch):
        node = TopNNode(ScanNode("customer"), ["c_custkey"], None, 10_000)
        assert estimate_rows(node, tpch) == 300.0
