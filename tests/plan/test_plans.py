"""End-to-end tests: logical plans, PatchIndex rewrites, execution."""

import numpy as np
import pytest

from repro.core import NearlySortedColumn, NearlyUniqueColumn, PatchIndexManager
from repro.engine import col
from repro.plan import (
    AggregateNode,
    CostModel,
    DistinctNode,
    FilterNode,
    JoinNode,
    LimitNode,
    Optimizer,
    ProjectNode,
    ScanNode,
    SortNode,
    estimate_rows,
    execute_plan,
)
from repro.plan.nodes import MergeCombineNode, PatchScanNode, UnionNode
from repro.plan.rules import find_single_scan
from repro.plan.stats import is_sorted_on
from repro.storage import Catalog, PartitionedTable, Table


@pytest.fixture
def env():
    """Catalog with a NUC table, an NSC table and an index manager."""
    rng = np.random.default_rng(42)
    n = 2000
    # value column: 10% of rows share values drawn from a small pool
    values = np.arange(n, dtype=np.int64) + 10_000
    dup_rows = rng.choice(n, size=200, replace=False)
    values[dup_rows] = rng.integers(0, 50, size=200)
    nuc = Table.from_arrays("nuc_t", {"k": np.arange(n), "v": values})

    sorted_vals = np.arange(n, dtype=np.int64) * 3
    patch_rows = rng.choice(n, size=150, replace=False)
    sorted_vals[patch_rows] = rng.integers(0, 3 * n, size=150)
    nsc = Table.from_arrays("nsc_t", {"k": np.arange(n), "v": sorted_vals})

    catalog = Catalog()
    catalog.register(nuc)
    catalog.register(nsc)
    mgr = PatchIndexManager(catalog)
    mgr.create(nuc, "v", NearlyUniqueColumn())
    mgr.create(nsc, "v", NearlySortedColumn())
    return catalog, mgr


def optimizer(env, zbp=False, force=True):
    catalog, mgr = env
    return Optimizer(catalog, mgr, zero_branch_pruning=zbp, use_cost_model=not force)


class TestDistinctRewrite:
    def test_plan_shape(self, env):
        catalog, mgr = env
        plan = DistinctNode(ScanNode("nuc_t", ["v"]), ["v"])
        opt = optimizer(env).optimize(plan)
        assert isinstance(opt, UnionNode)
        assert "PatchScan" in opt.explain()

    def test_result_matches_reference(self, env):
        catalog, _ = env
        plan = DistinctNode(ScanNode("nuc_t", ["v"]), ["v"])
        reference = execute_plan(plan, catalog)
        rewritten = optimizer(env).optimize(plan)
        result = execute_plan(rewritten, catalog)
        np.testing.assert_array_equal(
            np.sort(result.column("v")), np.sort(reference.column("v"))
        )

    def test_rewrite_with_filter_in_subtree(self, env):
        catalog, _ = env
        plan = DistinctNode(
            FilterNode(ScanNode("nuc_t", ["v"]), col("v") < 5000), ["v"]
        )
        rewritten = optimizer(env).optimize(plan)
        reference = execute_plan(plan, catalog)
        result = execute_plan(rewritten, catalog)
        np.testing.assert_array_equal(
            np.sort(result.column("v")), np.sort(reference.column("v"))
        )

    def test_no_rewrite_without_index(self, env):
        plan = DistinctNode(ScanNode("nuc_t", ["k"]), ["k"])  # no index on k
        assert optimizer(env).optimize(plan) is plan

    def test_no_rewrite_under_join_subtree(self, env):
        plan = DistinctNode(
            JoinNode(ScanNode("nuc_t"), ScanNode("nsc_t"), "k", "k"), ["v"]
        )
        opt = optimizer(env).optimize(plan)
        assert isinstance(opt, DistinctNode)


class TestSortRewrite:
    def test_plan_shape(self, env):
        plan = SortNode(ScanNode("nsc_t", ["v"]), ["v"])
        opt = optimizer(env).optimize(plan)
        assert isinstance(opt, MergeCombineNode)

    def test_result_is_sorted_and_complete(self, env):
        catalog, _ = env
        plan = SortNode(ScanNode("nsc_t", ["v"]), ["v"])
        reference = execute_plan(plan, catalog)
        result = execute_plan(optimizer(env).optimize(plan), catalog)
        np.testing.assert_array_equal(result.column("v"), reference.column("v"))

    def test_descending_order_mismatch_not_rewritten(self, env):
        plan = SortNode(ScanNode("nsc_t", ["v"]), ["v"], [False])
        assert optimizer(env).optimize(plan) is plan

    def test_partitioned_sort_rewrite_merges_partitions(self):
        n = 400
        vals = np.arange(n, dtype=np.int64)
        vals[[50, 170, 333]] = [7, 900, 2]
        t = Table.from_arrays("pt", {"k": np.arange(n), "v": vals})
        pt = PartitionedTable.from_table(t, "k", 4)
        catalog = Catalog()
        catalog.register(pt)
        mgr = PatchIndexManager(catalog)
        mgr.create(pt, "v", NearlySortedColumn())
        plan = SortNode(ScanNode("pt", ["v"]), ["v"])
        opt = Optimizer(catalog, mgr, use_cost_model=False).optimize(plan)
        result = execute_plan(opt, catalog)
        np.testing.assert_array_equal(result.column("v"), np.sort(vals))


class TestJoinRewrite:
    @pytest.fixture
    def join_env(self):
        rng = np.random.default_rng(7)
        n_dim, n_fact = 300, 3000
        dim = Table.from_arrays(
            "dim", {"dk": np.arange(n_dim, dtype=np.int64),
                    "dpay": rng.integers(0, 100, n_dim)}
        )
        fk = np.sort(rng.integers(0, n_dim, n_fact)).astype(np.int64)
        disorder = rng.choice(n_fact, size=200, replace=False)
        fk[disorder] = rng.integers(0, n_dim, size=200)
        fact = Table.from_arrays(
            "fact", {"fk": fk, "fpay": rng.integers(0, 10, n_fact)}
        )
        catalog = Catalog()
        catalog.register(dim)
        catalog.register(fact)
        catalog.add_structure("sortkey", "dim", "dk", object())
        mgr = PatchIndexManager(catalog)
        mgr.create(fact, "fk", NearlySortedColumn())
        return catalog, mgr

    def test_plan_shape(self, join_env, join_rewrite):
        catalog, mgr = join_env
        plan = JoinNode(ScanNode("dim"), ScanNode("fact"), "dk", "fk")
        assert join_rewrite(plan) is None
        opt = Optimizer(catalog, mgr, use_cost_model=False).optimize(plan)
        sorted_part, _ = join_rewrite(opt)
        # the sorted dim side is the build: the kernel skips its sort
        assert sorted_part.left.child.table == "dim"
        assert "Join[build=left](dk=fk)" in opt.explain()

    def test_result_matches_reference(self, join_env):
        catalog, mgr = join_env
        plan = JoinNode(ScanNode("dim"), ScanNode("fact"), "dk", "fk")
        reference = execute_plan(plan, catalog)
        opt = Optimizer(catalog, mgr, use_cost_model=False).optimize(plan)
        result = execute_plan(opt, catalog)
        assert result.num_rows == reference.num_rows
        ref_rows = sorted(zip(reference.column("dk"), reference.column("fpay")))
        got_rows = sorted(zip(result.column("dk"), result.column("fpay")))
        assert ref_rows == got_rows

    def test_no_rewrite_when_other_side_unsorted(self, join_env):
        catalog, mgr = join_env
        catalog.remove_structure("sortkey", "dim", "dk")
        plan = JoinNode(ScanNode("dim"), ScanNode("fact"), "dk", "fk")
        opt = Optimizer(catalog, mgr, use_cost_model=False).optimize(plan)
        assert opt is plan

    def test_zbp_with_zero_patches_drops_hash_branch(self, join_env):
        catalog, mgr = join_env
        mgr.drop("fact", "fk")
        # replace the fact table with a perfectly sorted one
        fact = catalog.table("fact")
        fact.modify(fact.rowids(), {"fk": np.sort(fact.column("fk"))})
        mgr.create(fact, "fk", NearlySortedColumn())
        assert mgr.get("fact", "fk").num_patches == 0
        plan = JoinNode(ScanNode("dim"), ScanNode("fact"), "dk", "fk")
        opt = Optimizer(
            catalog, mgr, zero_branch_pruning=True, use_cost_model=False
        ).optimize(plan)
        assert isinstance(opt, JoinNode) and opt.build_side == "left"
        assert isinstance(opt.right, PatchScanNode) and opt.right.mode == "exclude_patches"
        result = execute_plan(opt, catalog)
        reference = execute_plan(plan, catalog)
        assert result.num_rows == reference.num_rows


class TestZeroBranchPruning:
    def test_distinct_zbp(self):
        t = Table.from_arrays("u", {"v": np.arange(100, dtype=np.int64)})
        catalog = Catalog()
        catalog.register(t)
        mgr = PatchIndexManager(catalog)
        mgr.create(t, "v", NearlyUniqueColumn())
        plan = DistinctNode(ScanNode("u", ["v"]), ["v"])
        opt = Optimizer(catalog, mgr, zero_branch_pruning=True,
                        use_cost_model=False).optimize(plan)
        assert not isinstance(opt, UnionNode)
        result = execute_plan(opt, catalog)
        assert result.num_rows == 100


class TestCostModel:
    def test_estimates_use_known_patch_counts(self, env):
        catalog, mgr = env
        handle = mgr.get("nuc_t", "v")
        node = PatchScanNode("nuc_t", handle, "use_patches")
        assert estimate_rows(node, catalog) == handle.num_patches

    def test_cost_prefers_rewrite_for_large_distinct(self, env):
        catalog, mgr = env
        plan = DistinctNode(ScanNode("nuc_t", ["v"]), ["v"])
        opt = Optimizer(catalog, mgr, use_cost_model=True).optimize(plan)
        assert isinstance(opt, UnionNode)  # cost model accepts

    def test_sorted_pinned_build_cheaper_than_hash(self, env):
        catalog, _ = env
        cm = CostModel(catalog)
        hash_plan = JoinNode(ScanNode("nuc_t"), ScanNode("nsc_t"), "k", "k")
        pinned = JoinNode(ScanNode("nuc_t"), ScanNode("nsc_t"), "k", "k", build_side="left")
        # a pinned build that may arrive unsorted keeps the hash price
        assert cm.cost(pinned) == cm.cost(hash_plan)
        catalog.add_structure("sortkey", "nuc_t", "k", object())
        assert cm.cost(pinned) < cm.cost(hash_plan)
        # the runtime picks an auto join's build side: no sort-free price
        assert cm.operator_cost(hash_plan)["startup"] == cm.COST_HASH_BUILD * 2000

    def test_estimate_rows_covers_all_nodes(self, env):
        catalog, _ = env
        scan = ScanNode("nuc_t")
        plans = [
            scan,
            FilterNode(scan, col("v") > 0),
            ProjectNode(scan, {"v": "v"}),
            DistinctNode(scan, ["v"]),
            AggregateNode(scan, ["v"], {"c": ("count", None)}),
            SortNode(scan, ["v"]),
            LimitNode(scan, 5),
            UnionNode([scan, scan]),
        ]
        for p in plans:
            assert estimate_rows(p, catalog) >= 0


class TestHelpers:
    def test_find_single_scan(self, env):
        scan = ScanNode("nuc_t")
        assert find_single_scan(FilterNode(scan, col("v") > 0)) is scan
        join = JoinNode(scan, ScanNode("nsc_t"), "k", "k")
        assert find_single_scan(join) is None

    def test_is_sorted_on_sortkey(self, env):
        catalog, _ = env
        catalog.add_structure("sortkey", "nuc_t", "k", object())
        assert is_sorted_on(ScanNode("nuc_t"), "k", catalog)
        assert not is_sorted_on(ScanNode("nuc_t"), "v", catalog)

    def test_is_sorted_through_filter(self, env):
        catalog, _ = env
        catalog.add_structure("sortkey", "nuc_t", "k", catalog)
        node = FilterNode(ScanNode("nuc_t"), col("v") > 0)
        assert is_sorted_on(node, "k", catalog)

    def test_probe_side_of_hash_join_preserves_order(self, env):
        catalog, _ = env
        catalog.add_structure("sortkey", "nuc_t", "k", catalog)
        join = JoinNode(
            ScanNode("nsc_t"), ScanNode("nuc_t"), "k", "k", build_side="left"
        )
        assert is_sorted_on(join, "k", catalog)

    def test_plan_explain(self, env):
        plan = SortNode(FilterNode(ScanNode("nsc_t"), col("v") > 3), ["v"])
        text = plan.explain()
        assert "Sort" in text and "Filter" in text and "Scan" in text


class TestExecutorMisc:
    def test_execute_strips_rowids(self, env):
        catalog, mgr = env
        handle = mgr.get("nuc_t", "v")
        plan = PatchScanNode("nuc_t", handle, "use_patches", columns=["v"])
        result = execute_plan(plan, catalog)
        assert "__rowid__" not in result.column_names

    def test_aggregate_plan(self, env):
        catalog, _ = env
        plan = AggregateNode(
            ScanNode("nuc_t"), [], {"total": ("sum", "v"), "n": ("count", None)}
        )
        result = execute_plan(plan, catalog)
        assert result.column("n")[0] == 2000


class TestPushToScans:
    """Binding places WHERE conjuncts and column lists on the scans."""

    Q3 = (
        "SELECT l_orderkey, o_orderdate, o_shippriority, "
        "SUM(l_extendedprice * (1.0 - l_discount)) AS revenue "
        "FROM customer JOIN orders ON c_custkey = o_custkey "
        "JOIN lineitem ON o_orderkey = l_orderkey "
        "WHERE c_mktsegment = 'BUILDING' AND o_orderdate < 19950315 "
        "AND l_shipdate > 19950315 "
        "GROUP BY l_orderkey, o_orderdate, o_shippriority"
    )
    Q12 = (
        "SELECT l_shipmode, COUNT(*) AS n FROM orders "
        "JOIN lineitem ON o_orderkey = l_orderkey "
        "WHERE l_shipmode IN ('MAIL', 'SHIP') AND l_commitdate < l_receiptdate "
        "AND l_shipdate < l_commitdate AND l_receiptdate >= 19940101 "
        "AND l_receiptdate < 19950101 GROUP BY l_shipmode"
    )

    @pytest.fixture(scope="class")
    def catalog(self):
        from repro.workloads import generate_tpch

        catalog = Catalog()
        generate_tpch(scale=0.002, seed=3).register(catalog)
        return catalog

    @staticmethod
    def bound(catalog, sql):
        from repro.sql import bind_statement, parse_statement

        stmt = parse_statement(sql)
        bind_statement(stmt, catalog)
        return stmt.plan

    @staticmethod
    def nodes_of(plan, kind):
        out = [plan] if isinstance(plan, kind) else []
        for child in plan.children():
            out += TestPushToScans.nodes_of(child, kind)
        return out

    def scans(self, plan):
        return {s.table: s for s in self.nodes_of(plan, ScanNode)}

    def assert_same_rows(self, catalog, sql):
        from repro.sql import parse_statement

        unbound = execute_plan(parse_statement(sql).plan, catalog)
        got = execute_plan(self.bound(catalog, sql), catalog)
        assert got.column_names == unbound.column_names
        assert sorted(got.to_rows()) == sorted(unbound.to_rows())

    def test_q3_conjuncts_land_on_their_scans(self, catalog):
        plan = self.bound(catalog, self.Q3)
        assert not self.nodes_of(plan, FilterNode)
        scans = self.scans(plan)
        assert repr(scans["customer"].predicate) == "(col('c_mktsegment') = lit('BUILDING'))"
        assert repr(scans["orders"].predicate) == "(col('o_orderdate') < lit(19950315))"
        assert repr(scans["lineitem"].predicate) == "(col('l_shipdate') > lit(19950315))"
        # predicate-only columns are read by the scan's own predicate
        assert scans["customer"].columns == ["c_custkey"]
        assert scans["orders"].columns == [
            "o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"
        ]
        assert scans["lineitem"].columns == ["l_orderkey", "l_extendedprice", "l_discount"]
        self.assert_same_rows(catalog, self.Q3)

    def test_q12_puts_every_conjunct_on_lineitem(self, catalog):
        plan = self.bound(catalog, self.Q12)
        assert not self.nodes_of(plan, FilterNode)
        scans = self.scans(plan)
        assert scans["orders"].predicate is None
        assert scans["orders"].columns == ["o_orderkey"]
        assert repr(scans["lineitem"].predicate).count("AND") == 4
        assert scans["lineitem"].columns == ["l_orderkey", "l_shipmode"]
        self.assert_same_rows(catalog, self.Q12)

    @pytest.mark.parametrize(
        "where",
        [
            "o_orderdate < 19950101 OR l_shipdate > 19970101",  # OR across sources
            "o_orderdate < l_shipdate",  # cross-source comparison
            "1 = 0",  # column-free
        ],
    )
    def test_conjunct_that_no_single_scan_owns_stays_above_the_join(self, catalog, where):
        sql = (
            "SELECT o_orderkey, l_discount FROM orders "
            f"JOIN lineitem ON o_orderkey = l_orderkey WHERE {where}"
        )
        plan = self.bound(catalog, sql)
        (filt,) = self.nodes_of(plan, FilterNode)
        assert isinstance(filt.child, JoinNode)
        assert all(s.predicate is None for s in self.scans(plan).values())
        self.assert_same_rows(catalog, sql)

    def test_mixed_where_splits_at_top_level_and(self, catalog):
        sql = (
            "SELECT o_orderkey FROM orders JOIN lineitem ON o_orderkey = l_orderkey "
            "WHERE o_orderdate < 19960101 AND (o_orderdate > 19930101 OR l_discount > 0.02) "
            "AND l_extendedprice > 10"
        )
        plan = self.bound(catalog, sql)
        (filt,) = self.nodes_of(plan, FilterNode)
        assert "OR" in repr(filt.predicate) and "AND" not in repr(filt.predicate)
        scans = self.scans(plan)
        assert "o_orderdate" in repr(scans["orders"].predicate)
        assert "l_extendedprice" in repr(scans["lineitem"].predicate)
        # the Filter's columns stay on the scans below it
        assert "l_discount" in scans["lineitem"].columns
        self.assert_same_rows(catalog, sql)

    def test_qualified_and_aliased_refs_are_pushed(self, catalog):
        sql = (
            "SELECT o.o_orderkey, l.l_extendedprice FROM orders o "
            "JOIN lineitem l ON o_orderkey = l_orderkey "
            "WHERE o.o_orderdate < 19960101 AND l.l_discount >= 0.05"
        )
        plan = self.bound(catalog, sql)
        assert not self.nodes_of(plan, FilterNode)
        scans = self.scans(plan)
        assert "o_orderdate" in repr(scans["orders"].predicate)
        assert "l_discount" in repr(scans["lineitem"].predicate)
        self.assert_same_rows(catalog, sql)

    def test_unknown_table_is_left_for_execution(self, catalog):
        from repro.sql import SQLSession

        sql = "SELECT x FROM no_such_table WHERE x > 1"
        plan = self.bound(catalog, sql)  # does not raise
        assert isinstance(plan.child, FilterNode)
        with pytest.raises(KeyError, match="no_such_table"):
            SQLSession(catalog).execute(sql)

    def test_count_star_keeps_one_column(self, catalog):
        plan = self.bound(catalog, "SELECT COUNT(*) AS n FROM lineitem")
        assert self.scans(plan)["lineitem"].columns == ["l_orderkey"]
        out = execute_plan(plan, catalog)
        assert out.column("n").tolist() == [catalog.table("lineitem").num_rows]

    def test_join_side_contributing_only_its_key(self, catalog):
        sql = "SELECT o_orderdate FROM orders JOIN customer ON o_custkey = c_custkey"
        plan = self.bound(catalog, sql)
        assert self.scans(plan)["customer"].columns == ["c_custkey"]
        count = self.bound(
            catalog, "SELECT COUNT(*) AS n FROM orders JOIN customer ON o_custkey = c_custkey"
        )
        assert execute_plan(count, catalog).column("n").tolist() == [
            catalog.table("orders").num_rows
        ]
        self.assert_same_rows(catalog, sql)

    @pytest.mark.parametrize("distinct", ["", "DISTINCT "])
    def test_select_star_over_a_join_is_unpruned(self, catalog, distinct):
        sql = (
            f"SELECT {distinct}* FROM orders JOIN customer ON o_custkey = c_custkey "
            "WHERE c_custkey < 20 ORDER BY o_orderkey LIMIT 30"
        )
        plan = self.bound(catalog, sql)
        scans = self.scans(plan)
        assert scans["orders"].columns is None and scans["customer"].columns is None
        assert scans["customer"].predicate is not None
        self.assert_same_rows(catalog, sql)

    def test_existing_scan_predicate_is_anded(self, env):
        from repro.plan.rules import push_to_scans

        catalog, _ = env
        join = JoinNode(
            ScanNode("nuc_t", predicate=col("k") < 1500), ScanNode("nsc_t", ["k"]), "k", "k"
        )
        plan = ProjectNode(FilterNode(join, col("v") > 10_000), {"k": "k"})
        schemas = {name: catalog.table(name).schema.names for name in ("nuc_t", "nsc_t")}
        pushed = push_to_scans(plan, schemas)
        scans = self.scans(pushed)
        # ``v`` is in both tables: the conjunct has no single owner
        assert isinstance(pushed.child, FilterNode)
        assert repr(scans["nuc_t"].predicate) == "(col('k') < lit(1500))"
        plan = FilterNode(ScanNode("nuc_t", predicate=col("k") < 1500), col("v") > 10_000)
        pushed = push_to_scans(plan, schemas)
        assert isinstance(pushed, ScanNode)
        assert repr(pushed.predicate) == "((col('k') < lit(1500)) AND (col('v') > lit(10000)))"

    def test_binding_twice_changes_nothing(self, catalog):
        from repro.sql import bind_statement, parse_statement

        stmt = parse_statement(self.Q3)
        bind_statement(stmt, catalog)
        once = stmt.plan
        bind_statement(stmt, catalog)
        assert stmt.plan.explain() == once.explain()
        assert [s.columns for s in self.nodes_of(stmt.plan, ScanNode)] == [
            s.columns for s in self.nodes_of(once, ScanNode)
        ]
