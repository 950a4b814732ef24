"""Join-order search — DP vs parser order on TPC-H joins.

Runs multi-join TPC-H queries phrased with a deliberately bad parser
order (fact table first) twice: as the bound parser plan executed
without the optimizer, and through the session's optimizer, whose
stage-1 DP reorders the joins.  Reports, per query and order: planning
time, the modeled plan cost, and execution wall time.

Two properties are asserted:

* both orders return bit-identical relations (reordering is never
  allowed to change results), and
* the DP order's modeled cost is never above the parser order's, and
  strictly below it on at least one query (the search earns its keep).

Set ``BENCH_QUICK=1`` to shrink the dataset (the CI smoke job).
"""

import os

import numpy as np

from repro.bench import format_table, time_fn, write_report
from repro.core import PatchIndexManager
from repro.plan import execute_plan
from repro.plan.stats import analyze_table
from repro.sql.binder import bind_statement
from repro.sql.parser import parse_statement
from repro.sql.session import SQLSession
from repro.storage import Catalog
from repro.workloads import generate_tpch

QUICK = bool(int(os.environ.get("BENCH_QUICK", "0")))
TPCH_SCALE = 0.01 if QUICK else 0.05
REPEATS = 2 if QUICK else 3
ORDERS = ["parser", "dp"]

QUERIES = [
    (
        "Q3 core, fact first",
        "SELECT c_custkey, o_orderdate, l_extendedprice FROM lineitem "
        "JOIN orders ON l_orderkey = o_orderkey "
        "JOIN customer ON o_custkey = c_custkey",
    ),
    (
        "Q10 core, fact first",
        "SELECT n_name, c_custkey, l_extendedprice FROM lineitem "
        "JOIN orders ON l_orderkey = o_orderkey "
        "JOIN customer ON o_custkey = c_custkey "
        "JOIN nation ON c_nationkey = n_nationkey",
    ),
    (
        "Q5 core, 5-way",
        "SELECT n_name, l_extendedprice FROM lineitem "
        "JOIN orders ON l_orderkey = o_orderkey "
        "JOIN customer ON o_custkey = c_custkey "
        "JOIN supplier ON l_suppkey = s_suppkey "
        "JOIN nation ON s_nationkey = n_nationkey",
    ),
]


def tpch_catalog() -> Catalog:
    catalog = Catalog()
    generate_tpch(scale=TPCH_SCALE, seed=13).register(catalog)
    for name in ("customer", "orders", "lineitem", "supplier", "nation"):
        analyze_table(catalog, name)
    return catalog


def parser_plan(catalog: Catalog, sql: str):
    """The bound plan in parser order, before the optimizer sees it."""
    stmt = parse_statement(sql)
    bind_statement(stmt, catalog)
    return stmt.plan


def run_orders(catalog: Catalog):
    rows, results = [], {}
    with SQLSession(catalog, index_manager=PatchIndexManager(catalog)) as session:
        cost_model = session.optimizer.cost_model
        for qname, sql in QUERIES:
            plan = parser_plan(catalog, sql)
            plan_s = time_fn(lambda: parser_plan(catalog, sql), repeats=REPEATS, warmup=0)
            exec_s = time_fn(lambda: execute_plan(plan, catalog), repeats=REPEATS)
            rows.append([qname, "parser", plan_s, cost_model.cost(plan), exec_s])
            results[(qname, "parser")] = execute_plan(plan, catalog)

            plan_s = time_fn(lambda: session.prepare(sql), repeats=REPEATS, warmup=0)
            exec_s = time_fn(lambda: session.execute(sql), repeats=REPEATS)
            cost = cost_model.cost(session.prepare(sql).plan)
            rows.append([qname, "dp", plan_s, cost, exec_s])
            results[(qname, "dp")] = session.execute(sql)
    return rows, results


def assert_results_identical(results) -> None:
    for qname, _ in QUERIES:
        reference, got = results[(qname, "parser")], results[(qname, "dp")]
        assert got.num_rows == reference.num_rows, qname
        for name in reference.column_names:
            np.testing.assert_array_equal(
                got.column(name), reference.column(name), err_msg=f"{qname} / {name}"
            )


def test_join_order(benchmark):
    catalog = tpch_catalog()
    rows, results = run_orders(catalog)
    assert_results_identical(results)

    costs = {(qname, order): cost for qname, order, _, cost, _ in rows}
    for qname, _ in QUERIES:
        assert costs[(qname, "dp")] <= costs[(qname, "parser")], qname
    assert any(
        costs[(qname, "dp")] < costs[(qname, "parser")] for qname, _ in QUERIES
    ), "DP never beat the parser order on any query"

    lineitem_rows = catalog.table("lineitem").num_rows
    report = format_table(
        ["query", "order", "plan [s]", "modeled cost", "exec [s]"],
        rows,
        title=(
            f"Join-order search: DP vs parser order "
            f"(scale={TPCH_SCALE}, lineitem={lineitem_rows})"
        ),
    )
    write_report("join_order", report)

    with SQLSession(catalog, index_manager=PatchIndexManager(catalog)) as session:
        benchmark.pedantic(
            lambda: session.execute(QUERIES[0][1]), rounds=1, iterations=1
        )
