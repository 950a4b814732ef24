"""Integration tests spanning storage, core, plan, sql and baselines."""

import numpy as np

from repro.core import (
    NearlySortedColumn,
    NearlyUniqueColumn,
    PatchIndexManager,
)
from repro.materialization import JoinIndex, MaterializedView, SortKey
from repro.plan import (
    DistinctNode,
    Optimizer,
    ScanNode,
    SortNode,
    execute_plan,
)
from repro.sql import SQLSession
from repro.storage import Catalog, Table
from repro.workloads import generate_dataset, generate_tpch, perturb_order
from repro.workloads.tpch_queries import q3_plan, q12_plan


class TestLifecycleNUC:
    """Create → query → update → query → recompute, distinct scenario."""

    def test_full_lifecycle(self):
        ds = generate_dataset(20_000, 0.1, "nuc", seed=1, name="life")
        catalog = Catalog()
        catalog.register(ds.table)
        mgr = PatchIndexManager(catalog)
        handle = mgr.create(ds.table, "v", NearlyUniqueColumn())
        opt = Optimizer(catalog, mgr, use_cost_model=False)

        def run_distinct():
            plan = opt.optimize(DistinctNode(ScanNode("life", ["v"]), ["v"]))
            return execute_plan(plan, catalog)

        reference = np.unique(ds.table.column("v"))
        assert run_distinct().num_rows == len(reference)

        # mixed updates
        ds.table.insert({"k": np.arange(20_000, 20_100),
                         "v": ds.table.column("v")[:100]})  # all collide
        ds.table.delete(np.arange(50))
        ds.table.modify(np.array([0, 1]), {"v": np.array([-1, -1])})
        assert handle.verify()
        reference = np.unique(ds.table.column("v"))
        assert run_distinct().num_rows == len(reference)

        # drift recovery: a rebuild shrinks the conservative patch set
        before = handle.num_patches
        handle.parts[0].index.rebuild()
        assert handle.num_patches <= before
        assert run_distinct().num_rows == len(reference)


class TestLifecycleNSCPartitioned:
    def test_partitioned_sort_pipeline_under_updates(self):
        ds = generate_dataset(8_000, 0.05, "nsc", num_partitions=4, seed=2, name="pl")
        catalog = Catalog()
        catalog.register(ds.table)
        mgr = PatchIndexManager(catalog)
        handle = mgr.create(ds.table, "v", NearlySortedColumn())
        opt = Optimizer(catalog, mgr, use_cost_model=False)

        def run_sort():
            plan = opt.optimize(SortNode(ScanNode("pl", ["v"]), ["v"]))
            return execute_plan(plan, catalog).column("v")

        np.testing.assert_array_equal(run_sort(), np.sort(ds.table.column("v")))
        ds.table.insert({"k": np.array([90_000]), "v": np.array([-3])})
        ds.table.delete(np.array([10, 4_000]))
        assert handle.verify()
        np.testing.assert_array_equal(run_sort(), np.sort(ds.table.column("v")))


class TestSQLOverTPCH:
    def test_sql_q12_like_query_with_patchindex(self, join_rewrite):
        data = generate_tpch(scale=0.005, seed=3)
        catalog = Catalog()
        data.register(catalog)
        lineitem = perturb_order(data.lineitem, 0.05, seed=4)
        catalog.register(lineitem)
        catalog.add_structure("sortkey", "orders", "o_orderkey", object())
        mgr = PatchIndexManager(catalog)
        mgr.create(lineitem, "l_orderkey", NearlySortedColumn())
        session = SQLSession(catalog, index_manager=mgr, use_cost_model=False)
        sql = (
            "SELECT l_shipmode, COUNT(*) AS n FROM orders "
            "JOIN lineitem ON o_orderkey = l_orderkey "
            "WHERE l_shipmode IN ('MAIL', 'SHIP') "
            "GROUP BY l_shipmode ORDER BY l_shipmode"
        )
        assert join_rewrite(session.prepare(sql).plan) is not None
        out = session.execute(sql)
        plain = SQLSession(catalog)
        reference = plain.execute(sql)
        np.testing.assert_array_equal(out.column("n"), reference.column("n"))

    def test_plan_and_sql_agree_on_q3_and_q12(self):
        data = generate_tpch(scale=0.005, seed=5)
        catalog = Catalog()
        data.register(catalog)
        for make_plan in (q3_plan, q12_plan):
            out = execute_plan(make_plan(), catalog)
            assert out.num_rows >= 0  # executes cleanly end-to-end


class TestBaselinesSideBySide:
    def test_patchindex_and_matview_stay_consistent_under_updates(self):
        ds = generate_dataset(10_000, 0.2, "nuc", seed=6, name="both")
        catalog = Catalog()
        catalog.register(ds.table)
        mgr = PatchIndexManager(catalog)
        handle = mgr.create(ds.table, "v", NearlyUniqueColumn())
        mv = MaterializedView(ds.table, "v")  # immediate refresh
        for step in range(5):
            ds.table.insert({
                "k": np.array([50_000 + step]),
                "v": np.array([step]),  # collides with pool values
            })
        assert handle.verify()
        assert not mv.is_stale
        # both answer the distinct query identically
        opt = Optimizer(catalog, mgr, use_cost_model=False)
        plan = opt.optimize(DistinctNode(ScanNode("both", ["v"]), ["v"]))
        via_pi = np.sort(execute_plan(plan, catalog).column("v"))
        np.testing.assert_array_equal(via_pi, mv.scan_values())
        mv.detach()

    def test_joinindex_and_patchindex_query_agreement(self):
        data = generate_tpch(scale=0.005, seed=7)
        catalog = Catalog()
        data.register(catalog)
        catalog.add_structure("sortkey", "orders", "o_orderkey", object())
        mgr = PatchIndexManager(catalog)
        mgr.create(data.lineitem, "l_orderkey", NearlySortedColumn())
        ji = JoinIndex(data.lineitem, "l_orderkey", data.orders, "o_orderkey",
                       auto_maintain=False)
        joined = ji.join(["l_extendedprice"], ["o_orderdate"])
        opt = Optimizer(catalog, mgr, zero_branch_pruning=True,
                        use_cost_model=False).optimize(q3_plan())
        out = execute_plan(opt, catalog)
        reference = execute_plan(q3_plan(), catalog)
        np.testing.assert_allclose(
            np.sort(out.column("revenue")), np.sort(reference.column("revenue"))
        )
        assert len(joined["o_orderdate"]) == data.lineitem.num_rows


class TestCostModelProtection:
    def test_cost_model_rejects_tiny_join_rewrite(self, join_rewrite):
        """Q12-style protection: the optimizer should not clone subtrees
        when the join is too small to amortize the overhead (§6.3)."""
        dim = Table.from_arrays("d", {"dk": np.arange(50, dtype=np.int64)})
        fact = Table.from_arrays(
            "f",
            {"fk": np.sort(np.arange(100, dtype=np.int64) % 50),
             "pay": np.arange(100)},
        )
        catalog = Catalog()
        catalog.register(dim)
        catalog.register(fact)
        catalog.add_structure("sortkey", "d", "dk", object())
        mgr = PatchIndexManager(catalog)
        mgr.create(fact, "fk", NearlySortedColumn())
        from repro.plan import JoinNode

        plan = JoinNode(ScanNode("d"), ScanNode("f"), "dk", "fk")
        # forced: rewrite fires
        forced = Optimizer(catalog, mgr, use_cost_model=False).optimize(plan)
        assert join_rewrite(forced) is not None
        # cost-gated: the optimizer keeps the small hash join as-is or
        # produces something estimated cheaper — never something the cost
        # model scores worse
        from repro.plan import CostModel

        gated = Optimizer(catalog, mgr, use_cost_model=True).optimize(plan)
        cm = CostModel(catalog)
        assert cm.cost(gated) <= cm.cost(plan)


class TestSortKeyVsPatchIndexQueries:
    def test_same_sorted_output(self):
        ds = generate_dataset(6_000, 0.1, "nsc", seed=9, name="sk")
        catalog = Catalog()
        catalog.register(ds.table)
        sk = SortKey(ds.table, "v", refresh_policy="manual")
        mgr = PatchIndexManager(catalog)
        mgr.create(ds.table, "v", NearlySortedColumn())
        opt = Optimizer(catalog, mgr, use_cost_model=False)
        plan = opt.optimize(SortNode(ScanNode("sk", ["v"]), ["v"]))
        via_pi = execute_plan(plan, catalog).column("v")
        via_sk = sk.scan_sorted(["v"])["v"]
        np.testing.assert_array_equal(via_pi, via_sk)
