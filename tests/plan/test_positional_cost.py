"""The cost model follows the positional PatchIndex kernel.

A ``use_patches`` scan is charged by the patch count (it gathers only
the patches), ``MergeCombine`` by the short-run binary search plus one
pass, and with the cost model on the NSC sort rewrite is taken where the
rewrite wins (e <= 0.2 on the Fig. 7 dataset) and left where it sorts
nearly everything anyway (e = 0.9).  Every plan the gate picks answers
like the plain sort.

The NUC distinct rewrite follows the group kernel: a plain distinct is
a sort and a neighbour compare now, so the rewrite only pays while few
rows take the patch flow — accepted for e <= 0.2, declined at e = 0.5
and 0.9 (``COST_DISTINCT`` was 3.0, fitted to a hash distinct, and took
the rewrite at e = 0.5, where it measures 4.3 ms against 2.6 ms plain).
"""

import math

import numpy as np
import pytest

from repro.core import NearlySortedColumn, NearlyUniqueColumn, PatchIndexManager
from repro.plan import (
    CostModel,
    DistinctNode,
    Optimizer,
    ScanNode,
    SortNode,
    execute_plan,
)
from repro.plan.executor import explain_plan
from repro.plan.nodes import MergeCombineNode, PatchScanNode, UnionNode
from repro.storage import Catalog, Table
from repro.workloads import generate_dataset

FIG7_ROWS = 100_000  # the benchmark's 300 k-row dataset, scaled for test time
FIG7_PARTITIONS = 4
FIG7_PAYLOADS = 4


def fig7_env(e: float):
    ds = generate_dataset(
        FIG7_ROWS, e, "nsc", num_partitions=FIG7_PARTITIONS, seed=3,
        name="nsc", payload_columns=FIG7_PAYLOADS,
    )
    catalog = Catalog()
    catalog.register(ds.table)
    mgr = PatchIndexManager(catalog)
    mgr.create(ds.table, "v", NearlySortedColumn())
    return catalog, mgr, SortNode(ScanNode(ds.table.name), ["v"])


class TestSortRewriteGate:
    @pytest.mark.parametrize("e", [0.0, 0.01, 0.05, 0.1, 0.2])
    def test_accepted_where_the_rewrite_wins(self, e):
        catalog, mgr, plan = fig7_env(e)
        chosen = Optimizer(catalog, mgr, use_cost_model=True).optimize(plan)
        assert isinstance(chosen, MergeCombineNode)
        want, got = execute_plan(plan, catalog), execute_plan(chosen, catalog)
        np.testing.assert_array_equal(got.column("v"), want.column("v"))
        # among equal keys the rewrite emits kept rows before patches
        tie_order = np.lexsort((got.column("k"), got.column("v")))
        for name in want.column_names:
            np.testing.assert_array_equal(got.column(name)[tie_order], want.column(name))

    def test_declined_when_nearly_everything_is_a_patch(self):
        catalog, mgr, plan = fig7_env(0.9)
        model = CostModel(catalog)
        forced = Optimizer(catalog, mgr, use_cost_model=False).optimize(plan)
        assert model.cost(forced) > model.cost(plan)
        assert Optimizer(catalog, mgr, use_cost_model=True).optimize(plan) is plan


def fig7_nuc_env(e: float, partitions: int):
    ds = generate_dataset(
        FIG7_ROWS, e, "nuc", num_partitions=partitions, seed=3, name="nuc"
    )
    catalog = Catalog()
    catalog.register(ds.table)
    mgr = PatchIndexManager(catalog)
    mgr.create(ds.table, "v", NearlyUniqueColumn())
    return catalog, mgr, DistinctNode(ScanNode(ds.table.name, ["v"]), ["v"])


@pytest.mark.parametrize("partitions", [1, FIG7_PARTITIONS])
class TestDistinctRewriteGate:
    @pytest.mark.parametrize("e", [0.0, 0.01, 0.05, 0.2])
    def test_accepted_where_the_rewrite_wins(self, e, partitions):
        catalog, mgr, plan = fig7_nuc_env(e, partitions)
        chosen = Optimizer(catalog, mgr, use_cost_model=True).optimize(plan)
        assert isinstance(chosen, UnionNode)
        want, got = execute_plan(plan, catalog), execute_plan(chosen, catalog)
        # partition-local patch sets repeat a value once per partition it
        # is unique in (ROADMAP item 1, pinned in test_patch_flow_model)
        dedupe = np.sort if partitions == 1 else np.unique
        np.testing.assert_array_equal(dedupe(got.column("v")), want.column("v"))

    @pytest.mark.parametrize("e", [0.5, 0.9])
    def test_declined_when_the_patch_flow_is_most_of_the_table(self, e, partitions):
        catalog, mgr, plan = fig7_nuc_env(e, partitions)
        model = CostModel(catalog)
        forced = Optimizer(catalog, mgr, use_cost_model=False).optimize(plan)
        assert model.cost(forced) > model.cost(plan)
        assert Optimizer(catalog, mgr, use_cost_model=True).optimize(plan) is plan


@pytest.fixture
def small_env():
    """1 000 rows, ascending except ten rows: the NSC index holds 10 patches."""
    values = np.arange(1000, dtype=np.int64) * 2
    values[50:1000:100] = 1  # rows 50, 150, …, 950
    table = Table.from_arrays("t", {"k": np.arange(1000), "v": values})
    catalog = Catalog()
    catalog.register(table)
    mgr = PatchIndexManager(catalog)
    index = mgr.create(table, "v", NearlySortedColumn())
    assert index.num_patches == 10
    return catalog, mgr, index


class TestOperatorCosts:
    def test_patch_scan_is_charged_by_the_rows_it_touches(self, small_env):
        catalog, _, index = small_env
        model = CostModel(catalog)
        use = model.operator_cost(PatchScanNode("t", index, "use_patches"))
        exclude = model.operator_cost(PatchScanNode("t", index, "exclude_patches"))
        per_row = CostModel.COST_SCAN + CostModel.COST_PATCH_SELECT
        assert use["cardinality"] == 10 and use["total"] == pytest.approx(per_row * 10)
        assert exclude["cardinality"] == 990 and exclude["total"] == pytest.approx(per_row * 1000)

    def test_merge_combine_is_short_run_search_plus_one_pass(self, small_env):
        catalog, _, index = small_env
        model = CostModel(catalog)
        flows = [PatchScanNode("t", index, mode) for mode in ("exclude_patches", "use_patches")]
        node = MergeCombineNode(flows, "v")
        cost = model.operator_cost(node)
        search = CostModel.COST_SORT * 10 * math.log2(990)
        assert cost["startup"] == pytest.approx(search)
        assert cost["total"] == pytest.approx(search + CostModel.COST_MERGE_COMBINE * 1000)

    def test_explain_costs_snapshot(self, small_env):
        catalog, mgr, _ = small_env
        plan = SortNode(ScanNode("t"), ["v"])
        chosen = Optimizer(catalog, mgr, use_cost_model=True).optimize(plan)
        assert explain_plan(chosen, catalog, CostModel(catalog)).splitlines() == [
            "MergeCombine(key=v)  [rows~1,000, cost~1,876.5]",
            "  PatchScan(t.v, exclude_patches)  [rows~990, cost~1,100.0]",
            "  Sort(['v'])  [rows~10, cost~77.4]",
            "    PatchScan(t.v, use_patches)  [rows~10, cost~11.0]",
            "admission cost hint: 1,876.5 units",
        ]
        # the plain plan it replaces: scan 1,000 + sort 2 * 1000 * log2(1000)
        assert explain_plan(plan, catalog, CostModel(catalog)).splitlines()[0] == (
            "Sort(['v'])  [rows~1,000, cost~20,931.6]"
        )
