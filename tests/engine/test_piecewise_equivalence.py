"""Piecewise-vs-whole equivalence: results must be bit-identical.

While a cancellation token is armed, every scan runs piecewise — one
range scan per partition, cut into ``CHECKPOINT_ROWS``-row pieces, with
the minmax runs its ranges keep, PatchIndex rowID restrictions and pushed
predicates applied per piece and the pieces concatenated in row order
(:meth:`repro.engine.operators.Scan.execute`).  This suite pins that the
plans above the scans cannot tell: the TPC-H query plans, PatchIndex-
optimized Figure 7 plans over partitioned tables and randomized operator
pipelines, run with 1 024-row pieces, compared with the unarmed run
column by column with exact equality (dtypes and float bits included).
"""

import numpy as np
import pytest

from repro.core import NearlySortedColumn, NearlyUniqueColumn, PatchIndexManager
from repro.engine import col, lit
from repro.engine.interrupt import CancellationToken, cancellation_scope
from repro.plan import (
    AggregateNode,
    DistinctNode,
    FilterNode,
    JoinNode,
    Optimizer,
    ScanNode,
    SortNode,
    execute_plan,
)
from repro.storage import Catalog, PartitionedTable, Table
from repro.testing import FaultInjector, FaultRule, inject
from repro.workloads import generate_dataset, generate_tpch
from repro.workloads.tpch_queries import q3_plan, q7_plan, q12_plan

#: Rows per piece: small enough that every test table is cut many times.
PIECE_ROWS = 1024


def assert_identical(whole, piecewise):
    assert whole.column_names == piecewise.column_names
    assert whole.num_rows == piecewise.num_rows
    for name in whole.column_names:
        a, b = whole.column(name), piecewise.column(name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def execute_in_pieces(plan, catalog):
    """Run ``plan`` with a far deadline armed, so its scans go piecewise."""
    with cancellation_scope(CancellationToken(timeout_ms=3_600_000)):
        return execute_plan(plan, catalog)


@pytest.fixture
def run_both(piece_rows):
    piece_rows(PIECE_ROWS)

    def run(plan, catalog):
        whole = execute_plan(plan, catalog)
        assert_identical(whole, execute_in_pieces(plan, catalog))
        return whole

    return run


class TestTPCHEquivalence:
    @pytest.fixture(scope="class")
    def catalog(self):
        catalog = Catalog()
        generate_tpch(scale=0.004, seed=7).register(catalog)
        return catalog

    @pytest.mark.parametrize("make_plan", [q3_plan, q7_plan, q12_plan], ids=["q3", "q7", "q12"])
    def test_query_identical(self, catalog, run_both, make_plan):
        run_both(make_plan(), catalog)

    def test_q12_partitioned_lineitem(self, run_both):
        """Pieces must respect partition boundaries of the probe side."""
        catalog = Catalog()
        data = generate_tpch(scale=0.004, seed=7)
        data.register(catalog)
        catalog.drop("lineitem")
        catalog.register(PartitionedTable.from_table(data.lineitem, "l_orderkey", 5))
        run_both(q12_plan(), catalog)

    def test_piece_size_does_not_change_results(self, catalog, piece_rows):
        expected = execute_plan(q3_plan(), catalog)
        lineitem_rows = catalog.table("lineitem").num_rows
        for rows in (1, 333, lineitem_rows - 1, lineitem_rows, lineitem_rows + 1):
            piece_rows(rows)
            assert_identical(expected, execute_in_pieces(q3_plan(), catalog))

    def test_pieces_are_really_cut(self, catalog, piece_rows):
        piece_rows(PIECE_ROWS)
        injector = FaultInjector(
            seed=1, rules={"worker.morsel": FaultRule(action="sleep", sleep_s=0.0)}
        )
        with inject(injector):
            execute_in_pieces(q12_plan(), catalog)
        lineitem_rows = catalog.table("lineitem").num_rows
        assert injector.fired["worker.morsel"] >= -(-lineitem_rows // PIECE_ROWS)


class TestPatchIndexPlanEquivalence:
    """Figure 7 plan shapes: PatchScan flows over partitioned tables."""

    @pytest.mark.parametrize("design", ["bitmap", "identifier"])
    @pytest.mark.parametrize("constraint", ["nuc", "nsc"])
    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.5])
    def test_optimized_plans(self, run_both, constraint, rate, design):
        ds = generate_dataset(
            20_000,
            rate,
            constraint,
            num_partitions=4,
            seed=11,
            name=f"eq_{constraint}_{int(rate * 10)}",
            payload_columns=2,
        )
        catalog = Catalog()
        catalog.register(ds.table)
        mgr = PatchIndexManager(catalog)
        cons = NearlyUniqueColumn() if constraint == "nuc" else NearlySortedColumn()
        mgr.create(ds.table, "v", cons, design=design)
        if constraint == "nuc":
            plan = DistinctNode(ScanNode(ds.table.name, ["v"]), ["v"])
        else:
            plan = SortNode(ScanNode(ds.table.name), ["v"])
        optimized = Optimizer(catalog, mgr, use_cost_model=False).optimize(plan)
        assert optimized.explain() != plan.explain()  # the PatchIndex rewrite took
        run_both(optimized, catalog)


class TestRandomizedWorkloads:
    """Seeded random relations through every operator above a scan."""

    @pytest.fixture(scope="class")
    def catalog(self):
        rng = np.random.default_rng(23)
        n = 30_000
        fact = Table.from_arrays(
            "fact",
            {
                "fk": rng.integers(0, 5_000, n).astype(np.int64),
                "grp": rng.integers(0, 40, n).astype(np.int64),
                "cat": np.array(rng.choice(["x", "y", "z"], n), dtype=object),
                "val": rng.random(n),
                "qty": rng.integers(0, 1000, n).astype(np.int64),
            },
        )
        dim = Table.from_arrays(
            "dim",
            {
                "dk": np.arange(5_000, dtype=np.int64),
                "weight": rng.random(5_000),
            },
        )
        catalog = Catalog()
        catalog.register(fact)
        catalog.register(dim)
        return catalog

    @pytest.mark.parametrize("seed", range(5))
    def test_filter_scan(self, catalog, run_both, seed):
        rng = np.random.default_rng(seed)
        lo = float(rng.random() * 0.5)
        plan = FilterNode(
            ScanNode("fact"), (col("val") > lo) & (col("grp") < int(rng.integers(5, 40)))
        )
        assert run_both(plan, catalog).num_rows > 0

    def test_hash_join_duplicates(self, catalog, run_both):
        plan = JoinNode(ScanNode("dim"), ScanNode("fact"), "dk", "fk", build_side="left")
        run_both(plan, catalog)

    def test_hash_join_auto_build_side(self, catalog, run_both):
        plan = JoinNode(ScanNode("fact"), ScanNode("dim"), "fk", "dk")
        run_both(plan, catalog)

    def test_aggregate_all_functions(self, catalog, run_both):
        plan = AggregateNode(
            ScanNode("fact"),
            ["grp", "cat"],
            {
                "n": ("count", None),
                "int_sum": ("sum", "qty"),
                "float_sum": ("sum", "val"),
                "expr_sum": ("sum", col("val") * (lit(1.0) + col("val"))),
                "lo": ("min", "val"),
                "hi": ("max", "qty"),
                "mean": ("avg", "val"),
            },
        )
        run_both(plan, catalog)

    def test_aggregate_over_filter(self, catalog, run_both):
        plan = AggregateNode(
            FilterNode(ScanNode("fact"), col("val") > 0.3),
            ["grp"],
            {"s": ("sum", "val"), "n": ("count", None)},
        )
        run_both(plan, catalog)

    def test_hash_join_dynamic_range_propagation(self, catalog, run_both):
        """DRP pushes build-side key ranges into probe scans at runtime;
        the pruned piecewise scan must still match the whole scan."""
        narrow = FilterNode(ScanNode("dim"), col("dk") < 500)
        plan = JoinNode(
            narrow,
            ScanNode("fact"),
            "dk",
            "fk",
            build_side="left",
            dynamic_range_propagation=True,
        )
        assert run_both(plan, catalog).num_rows > 0

    def test_sort_after_piecewise_scan(self, catalog, run_both):
        plan = SortNode(FilterNode(ScanNode("fact"), col("val") > 0.5), ["fk", "qty"])
        run_both(plan, catalog)

    def test_join_then_aggregate_pipeline(self, catalog, run_both):
        joined = JoinNode(ScanNode("dim"), ScanNode("fact"), "dk", "fk", build_side="left")
        plan = SortNode(
            AggregateNode(
                joined,
                ["grp"],
                {"wsum": ("sum", col("val") * col("weight")), "n": ("count", None)},
            ),
            ["grp"],
        )
        run_both(plan, catalog)
