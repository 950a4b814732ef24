"""Staged optimizer through the SQL surface: EXPLAIN, join order, TopN."""

import asyncio

import numpy as np
import pytest

from repro.core import PatchIndexManager
from repro.plan import execute_plan
from repro.plan.stats import analyze_table
from repro.sql import AsyncSQLSession, SQLSession
from repro.sql.binder import AmbiguousColumnError, bind_statement
from repro.sql.parser import parse_statement
from repro.storage import Catalog
from repro.workloads import generate_tpch

#: Parser order starts from the fact table; DP should flip it around.
BACKWARDS_Q3 = (
    "SELECT c_custkey, o_orderdate, l_extendedprice FROM lineitem "
    "JOIN orders ON l_orderkey = o_orderkey "
    "JOIN customer ON o_custkey = c_custkey"
)


@pytest.fixture
def session():
    catalog = Catalog()
    generate_tpch(scale=0.002, seed=3).register(catalog)
    for name in ("customer", "orders", "lineitem", "supplier", "nation"):
        analyze_table(catalog, name)
    with SQLSession(catalog, index_manager=PatchIndexManager(catalog)) as s:
        yield s


def parser_plan(session, sql):
    """The bound plan in parser order, before the optimizer sees it."""
    stmt = parse_statement(sql)
    bind_statement(stmt, session.catalog)
    return stmt.plan


def assert_bit_identical(reference, result):
    assert result.num_rows == reference.num_rows
    assert result.column_names == reference.column_names
    for name in reference.column_names:
        np.testing.assert_array_equal(result.column(name), reference.column(name))


class TestNoJoinOrderKnob:
    def test_set_join_order_search_is_unknown(self, session):
        with pytest.raises(ValueError, match="unknown session setting"):
            session.execute("SET join_order_search = dp")
        assert not hasattr(session, "join_order_search")

    def test_async_session_rejects_the_setting(self):
        catalog = Catalog()
        generate_tpch(scale=0.002, seed=3).register(catalog)
        for name in ("customer", "orders", "lineitem"):
            analyze_table(catalog, name)

        async def scenario():
            async with AsyncSQLSession(
                catalog, index_manager=PatchIndexManager(catalog)
            ) as s:
                with pytest.raises(ValueError, match="unknown session setting"):
                    await s.execute("SET join_order_search = dp")
                return await s.execute(BACKWARDS_Q3)

        result = asyncio.run(asyncio.wait_for(scenario(), 60.0))
        assert result.num_rows > 0


class TestExplain:
    def test_costs_surface_order_and_assignments(self, session):
        text = session.explain(BACKWARDS_Q3, costs=True)
        assert "join order search:" in text
        assert "operator assignments:" in text
        assert "admission cost hint:" in text
        assert "[JoinOperatorSelection]" in text
        assert "ParallelVariantSelection" not in text
        assert "[serial]" not in text and "[parallel]" not in text

    def test_dp_picks_non_parser_order_with_lower_cost(self, session):
        text = session.explain(BACKWARDS_Q3, costs=True)
        line = next(
            ln for ln in text.splitlines() if ln.strip().startswith("join order [dp]")
        )
        assert "parser order kept" not in line
        assert "<" in line  # strictly lower modeled cost than the parser order
        # the chosen order leads with a smaller relation, not lineitem
        assert not line.split(":", 1)[1].strip().startswith("lineitem")

    def test_parser_shape_differs_from_the_dp_shape(self, session):
        # parser shape: lineitem scanned in the innermost join
        parser = parser_plan(session, BACKWARDS_Q3).explain()
        assert parser.index("Scan(lineitem)") < parser.index("Scan(customer)")
        assert session.explain(BACKWARDS_Q3) != parser

    def test_explain_rejects_what_execution_rejects(self, session):
        sql = "SELECT o_orderdate FROM orders a JOIN orders b ON o_orderkey = o_orderkey"
        with pytest.raises(AmbiguousColumnError):
            session.execute(sql)
        with pytest.raises(AmbiguousColumnError):
            session.explain(sql)
        with pytest.raises(AmbiguousColumnError):
            session.explain(sql, costs=True)

    def test_explain_shows_the_pushed_plan_that_runs(self, session):
        sql = (
            "SELECT c_custkey, l_extendedprice FROM lineitem "
            "JOIN orders ON l_orderkey = o_orderkey "
            "JOIN customer ON o_custkey = c_custkey "
            "WHERE o_orderdate < 5000 AND l_discount > 0.05"
        )
        text = session.explain(sql)
        assert "Filter(" not in text
        assert "Scan(orders, pred=(col('o_orderdate') < lit(5000)))" in text
        assert "Scan(lineitem, pred=(col('l_discount') > lit(0.05)))" in text
        assert text == session.prepare(sql).plan.explain()

    def test_explain_without_costs_is_just_the_plan(self, session):
        text = session.explain(BACKWARDS_Q3)
        assert "operator assignments:" not in text
        assert "admission cost hint:" not in text


class TestReorderedExecution:
    def test_bit_identical_to_parser_order(self, session):
        reference = execute_plan(parser_plan(session, BACKWARDS_Q3), session.catalog)
        assert_bit_identical(reference, session.execute(BACKWARDS_Q3))

    def test_five_way_join_bit_identical(self, session):
        sql = (
            "SELECT n_name, l_extendedprice FROM lineitem "
            "JOIN orders ON l_orderkey = o_orderkey "
            "JOIN customer ON o_custkey = c_custkey "
            "JOIN supplier ON l_suppkey = s_suppkey "
            "JOIN nation ON s_nationkey = n_nationkey"
        )
        reference = execute_plan(parser_plan(session, sql), session.catalog)
        assert_bit_identical(reference, session.execute(sql))

    def test_filtered_query_bit_identical(self, session):
        sql = (
            "SELECT c_custkey, l_extendedprice FROM lineitem "
            "JOIN orders ON l_orderkey = o_orderkey "
            "JOIN customer ON o_custkey = c_custkey "
            "WHERE o_orderdate < 5000"
        )
        reference = execute_plan(parser_plan(session, sql), session.catalog)
        assert_bit_identical(reference, session.execute(sql))


class TestTopNThroughSQL:
    def test_order_by_limit_becomes_topn(self, session):
        text = session.explain(
            "SELECT l_orderkey FROM lineitem ORDER BY l_extendedprice LIMIT 5",
            costs=True,
        )
        assert "TopN(" in text
        assert "[TopNSelection]" in text

    def test_topn_rows_match_full_sort(self, session):
        full = session.execute(
            "SELECT l_orderkey, l_extendedprice FROM lineitem "
            "ORDER BY l_extendedprice"
        )
        limited = session.execute(
            "SELECT l_orderkey, l_extendedprice FROM lineitem "
            "ORDER BY l_extendedprice LIMIT 25"
        )
        assert limited.num_rows == 25
        for name in full.column_names:
            np.testing.assert_array_equal(
                limited.column(name), full.column(name)[:25]
            )

    def test_descending_topn_matches(self, session):
        full = session.execute(
            "SELECT o_orderkey, o_orderdate FROM orders ORDER BY o_orderdate DESC"
        )
        limited = session.execute(
            "SELECT o_orderkey, o_orderdate FROM orders "
            "ORDER BY o_orderdate DESC LIMIT 10"
        )
        for name in full.column_names:
            np.testing.assert_array_equal(
                limited.column(name), full.column(name)[:10]
            )

    def test_limit_larger_than_payoff_keeps_sort(self, session):
        text = session.explain(
            "SELECT c_custkey FROM customer ORDER BY c_custkey LIMIT 300",
            costs=True,
        )
        assert "TopN(" not in text
        assert "Sort(" in text
