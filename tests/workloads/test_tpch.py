"""Unit and integration tests for the TPC-H subset and its queries."""

import numpy as np
import pytest

from repro.core import NearlySortedColumn, PatchIndexManager, discover_nsc_patches
from repro.materialization import JoinIndex
from repro.plan import Optimizer, execute_plan
from repro.storage import Catalog
from repro.workloads import generate_tpch, perturb_order
from repro.workloads.tpch_queries import (
    q3_joinindex,
    q3_plan,
    q7_joinindex,
    q7_plan,
    q12_joinindex,
    q12_plan,
)


@pytest.fixture(scope="module")
def tpch():
    return generate_tpch(scale=0.002, seed=11)


@pytest.fixture(scope="module")
def catalog(tpch):
    cat = Catalog()
    tpch.register(cat)
    cat.add_structure("sortkey", "orders", "o_orderkey", object())
    return cat


class TestGenerator:
    def test_table_sizes_scale(self, tpch):
        assert tpch.orders.num_rows == int(1_500_000 * 0.002)
        assert tpch.customer.num_rows == int(150_000 * 0.002)
        assert tpch.lineitem.num_rows >= tpch.orders.num_rows

    def test_orders_sorted_on_orderkey(self, tpch):
        keys = tpch.orders.column("o_orderkey")
        assert np.all(keys[1:] > keys[:-1])

    def test_lineitem_clustered_on_orderkey(self, tpch):
        keys = tpch.lineitem.column("l_orderkey")
        assert np.all(keys[1:] >= keys[:-1])

    def test_fk_integrity(self, tpch):
        assert np.isin(tpch.lineitem.column("l_orderkey"), tpch.orders.column("o_orderkey")).all()
        assert np.isin(tpch.orders.column("o_custkey"), tpch.customer.column("c_custkey")).all()
        assert np.isin(tpch.lineitem.column("l_suppkey"), tpch.supplier.column("s_suppkey")).all()

    def test_dates_in_range(self, tpch):
        d = tpch.orders.column("o_orderdate")
        assert d.min() >= 19920101 and d.max() <= 19981231

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            generate_tpch(scale=0)


class TestPerturbation:
    def test_zero_fraction_keeps_order(self, tpch):
        li = perturb_order(tpch.lineitem, 0.0)
        np.testing.assert_array_equal(li.column("l_orderkey"), tpch.lineitem.column("l_orderkey"))

    def test_fraction_introduces_exceptions(self, tpch):
        li = perturb_order(tpch.lineitem, 0.10, seed=3)
        patches, _ = discover_nsc_patches(li.column("l_orderkey"))
        rate = len(patches) / li.num_rows
        assert 0.04 <= rate <= 0.12

    def test_rows_stay_intact(self, tpch):
        li = perturb_order(tpch.lineitem, 0.5, seed=4)
        before = np.sort(tpch.lineitem.column("l_extendedprice"))
        after = np.sort(li.column("l_extendedprice"))
        np.testing.assert_array_equal(before, after)

    def test_invalid_fraction(self, tpch):
        with pytest.raises(ValueError):
            perturb_order(tpch.lineitem, 1.5)


class TestQueriesReference:
    def test_q3_shape(self, catalog):
        out = execute_plan(q3_plan(), catalog)
        assert out.num_rows <= 10
        assert "revenue" in out.column_names
        rev = out.column("revenue")
        assert np.all(rev[:-1] >= rev[1:])  # ordered by revenue desc

    def test_q7_shape(self, catalog):
        out = execute_plan(q7_plan(), catalog)
        assert set(out.column_names) == {"supp_nation", "cust_nation", "l_year", "revenue"}
        if out.num_rows:
            assert set(np.unique(out.column("supp_nation"))) <= {"FRANCE", "GERMANY"}

    def test_q12_shape(self, catalog):
        out = execute_plan(q12_plan(), catalog)
        assert out.num_rows <= 2
        assert set(out.column_names) == {"l_shipmode", "high_line_count", "low_line_count"}


class TestPatchIndexPlans:
    @pytest.fixture()
    def pi_env(self, tpch):
        cat = Catalog()
        tpch.register(cat)
        lineitem = perturb_order(tpch.lineitem, 0.05, seed=9)
        cat.register(lineitem)
        cat.add_structure("sortkey", "orders", "o_orderkey", object())
        mgr = PatchIndexManager(cat)
        mgr.create(lineitem, "l_orderkey", NearlySortedColumn())
        return cat, mgr

    @pytest.mark.parametrize("make_plan", [q3_plan, q7_plan, q12_plan])
    def test_rewritten_results_match_reference(self, pi_env, make_plan, join_rewrite):
        cat, mgr = pi_env
        reference = execute_plan(make_plan(), cat)
        opt = Optimizer(cat, mgr, use_cost_model=False).optimize(make_plan())
        assert join_rewrite(opt) is not None
        result = execute_plan(opt, cat)
        assert result.num_rows == reference.num_rows
        for c in reference.column_names:
            ref = reference.column(c)
            got = result.column(c)
            if ref.dtype.kind == "f":
                np.testing.assert_allclose(np.sort(got), np.sort(ref), rtol=1e-9)
            else:
                np.testing.assert_array_equal(np.sort(got), np.sort(ref))

    def test_zbp_on_clean_data_matches(self, tpch):
        cat = Catalog()
        tpch.register(cat)
        cat.add_structure("sortkey", "orders", "o_orderkey", object())
        mgr = PatchIndexManager(cat)
        mgr.create(tpch.lineitem, "l_orderkey", NearlySortedColumn())
        assert mgr.get("lineitem", "l_orderkey").num_patches == 0
        reference = execute_plan(q3_plan(), cat)
        opt = Optimizer(
            cat, mgr, zero_branch_pruning=True, use_cost_model=False
        ).optimize(q3_plan())
        text = opt.explain()
        assert "use_patches" not in text
        result = execute_plan(opt, cat)
        assert result.num_rows == reference.num_rows
        mgr.drop("lineitem", "l_orderkey")


class TestJoinIndexVariants:
    @pytest.fixture()
    def ji(self, tpch, catalog):
        return JoinIndex(tpch.lineitem, "l_orderkey", tpch.orders, "o_orderkey",
                         auto_maintain=False)

    def test_q3_joinindex_matches(self, catalog, ji):
        reference = execute_plan(q3_plan(), catalog)
        result = q3_joinindex(ji, catalog)
        assert result.num_rows == reference.num_rows
        np.testing.assert_allclose(
            np.sort(result.column("revenue")), np.sort(reference.column("revenue")),
            rtol=1e-9,
        )

    def test_q7_joinindex_matches(self, catalog, ji):
        reference = execute_plan(q7_plan(), catalog)
        result = q7_joinindex(ji, catalog)
        assert result.num_rows == reference.num_rows
        if reference.num_rows:
            np.testing.assert_allclose(
                np.sort(result.column("revenue")), np.sort(reference.column("revenue")),
                rtol=1e-9,
            )

    def test_q12_joinindex_matches(self, catalog, ji):
        reference = execute_plan(q12_plan(), catalog)
        result = q12_joinindex(ji, catalog)
        assert result.num_rows == reference.num_rows
        if reference.num_rows:
            np.testing.assert_array_equal(
                np.sort(result.column("high_line_count")),
                np.sort(reference.column("high_line_count")),
            )


class TestRefreshSets:
    def test_rf1_insert_payload(self, tpch):
        orders_cols, line_cols = tpch.refresh_insert_payload(fraction=0.01)
        assert len(orders_cols["o_orderkey"]) == int(round(0.01 * tpch.orders.num_rows))
        assert np.isin(line_cols["l_orderkey"], orders_cols["o_orderkey"]).all()
        # new keys extend the sorted run
        assert orders_cols["o_orderkey"].min() > tpch.orders.column("o_orderkey").max()

    def test_rf2_delete_rowids(self, tpch):
        order_rows, line_rows = tpch.refresh_delete_rowids(fraction=0.01)
        victim_keys = tpch.orders.column("o_orderkey")[order_rows]
        line_keys = tpch.lineitem.column("l_orderkey")[line_rows]
        assert np.isin(line_keys, victim_keys).all()
