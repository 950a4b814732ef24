"""Stage-2 operator selection: its two passes, the log, and cost dicts."""

import numpy as np
import pytest

from repro.core import NearlyUniqueColumn, PatchIndexManager
from repro.plan import (
    JoinNode,
    LimitNode,
    Optimizer,
    ProjectNode,
    ScanNode,
    SortNode,
    TopNNode,
    execute_plan,
)
from repro.plan.cost import CostModel
from repro.plan.nodes import DistinctNode, FilterNode
from repro.plan.selection import (
    PatchIndexSelection,
    PhysicalOperatorAssignment,
    TopNSelection,
)
from repro.engine import col
from repro.storage import Catalog, Table


@pytest.fixture
def catalog():
    rng = np.random.default_rng(5)
    cat = Catalog()
    cat.register(Table.from_arrays("small", {
        "sk": np.arange(200, dtype=np.int64),
        "sv": rng.integers(0, 9, 200).astype(np.int64),
    }))
    cat.register(Table.from_arrays("big", {
        "bk": rng.integers(0, 200, 5000).astype(np.int64),
        "bv": rng.integers(0, 9, 5000).astype(np.int64),
    }))
    cat.register(Table.from_arrays("huge", {
        "hk": rng.integers(0, 200, 40_000).astype(np.int64),
    }))
    return cat


def nuc_catalog():
    rng = np.random.default_rng(42)
    values = np.arange(2000, dtype=np.int64) + 10_000
    dup_rows = rng.choice(2000, size=200, replace=False)
    values[dup_rows] = rng.integers(0, 50, size=200)
    cat = Catalog()
    table = Table.from_arrays("nuc_t", {"k": np.arange(2000), "v": values})
    cat.register(table)
    mgr = PatchIndexManager(cat)
    mgr.create(table, "v", NearlyUniqueColumn())
    return cat, mgr


class TestPasses:
    def test_rewrites_then_topn(self):
        cat, mgr = nuc_catalog()
        plan = LimitNode(SortNode(DistinctNode(ScanNode("nuc_t", ["v"]), ["v"]), ["v"]), 5)
        opt, report = Optimizer(cat, mgr).optimize_staged(plan)
        assert isinstance(opt, TopNNode)
        assert report.assignment.get(opt).operator == "TopN[n=5]"
        assert report.assignment.get(opt.child).operator == "PatchIndex[distinct]"
        reference = execute_plan(plan, cat)
        np.testing.assert_array_equal(execute_plan(opt, cat).column("v"), reference.column("v"))

    def test_force_mode_is_the_rewrites_alone(self, catalog):
        plan = LimitNode(SortNode(ScanNode("huge"), ["hk"], None), 10)
        forced = Optimizer(catalog, PatchIndexManager(catalog), use_cost_model=False)
        assert forced.optimize(plan) is plan
        assert isinstance(Optimizer(catalog, PatchIndexManager(catalog)).optimize(plan), TopNNode)

    def test_joins_get_no_plan_time_choice(self, catalog):
        # exact cardinalities on both sides: the runtime auto rule decides
        plan = JoinNode(ScanNode("small"), ScanNode("big"), "sk", "bk")
        opt, report = Optimizer(catalog, PatchIndexManager(catalog)).optimize_staged(plan)
        assert opt.build_side == "auto"
        assert len(report.assignment) == 0


class TestAssignmentLog:
    def test_assign_get_describe(self, catalog):
        node = ScanNode("small")
        assignment = PhysicalOperatorAssignment()
        assignment.assign(node, "Scan[test]", CostModel(catalog), "TestLink")
        choice = assignment.get(node)
        assert choice.operator == "Scan[test]"
        assert choice.source == "TestLink"
        assert choice.cost["cardinality"] == 200.0
        lines = assignment.describe(node)
        assert len(lines) == 1
        assert "Scan[test]" in lines[0] and "TestLink" in lines[0]

    def test_cost_model_failure_degrades_to_empty_dict(self, catalog):
        node = ScanNode("missing_table")
        assignment = PhysicalOperatorAssignment()
        assignment.assign(node, "Scan", CostModel(catalog), "TestLink")
        assert assignment.get(node).cost == {}
        assert "Scan [TestLink]" in assignment.get(node).describe()

    def test_identity_keyed_and_last_writer_wins(self, catalog):
        node = ScanNode("small")
        assignment = PhysicalOperatorAssignment()
        assignment.assign(node, "first", None, "TestLink")
        assignment.assign(node, "second", None, "TestLink")
        assert assignment.get(ScanNode("small")) is None  # an equal node is not the node
        assert len(assignment) == 1
        assert assignment.get(node).operator == "second"


class TestOperatorCost:
    def test_total_matches_recursive_cost(self, catalog):
        model = CostModel(catalog)
        join = JoinNode(ScanNode("small"), ScanNode("big"), "sk", "bk")
        plan = FilterNode(join, col("bv") < 4)
        for node in (plan, join, join.left, join.right):
            entry = model.operator_cost(node)
            children = sum(model.cost(c) for c in node.children())
            assert model.cost(node) == pytest.approx(children + entry["total"])

    def test_entry_shape(self, catalog):
        model = CostModel(catalog)
        entry = model.operator_cost(
            SortNode(ScanNode("big"), ["bk"], None)
        )
        assert set(entry) >= {
            "operator", "cardinality", "time_per_row", "startup", "total",
        }
        assert entry["operator"] == "Sort"
        assert entry["startup"] == entry["total"]  # sorts are blocking
        assert entry["time_per_row"] == 0.0

    def test_per_row_time_of_streaming_operator(self, catalog):
        model = CostModel(catalog)
        entry = model.operator_cost(FilterNode(ScanNode("big"), col("bv") < 4))
        assert entry["startup"] == 0.0
        assert entry["time_per_row"] > 0.0
        # time_per_row is per *driving* (input) row, not per output row
        assert entry["total"] == pytest.approx(entry["time_per_row"] * 5000.0)

    def test_hash_join_startup_is_build_side(self, catalog):
        model = CostModel(catalog)
        entry = model.operator_cost(
            JoinNode(ScanNode("small"), ScanNode("big"), "sk", "bk")
        )
        assert entry["startup"] == model.COST_HASH_BUILD * 200.0
        assert entry["total"] > entry["startup"]

    def test_topn_cost_beats_sort_for_small_n(self, catalog):
        model = CostModel(catalog)
        assert model.topn_cost(40_000, 10) < model.sort_cost(40_000)
        assert model.topn_cost(100, 100) >= model.sort_cost(100)


class TestTopNSelection:
    def run(self, catalog, plan):
        assignment = PhysicalOperatorAssignment()
        link = TopNSelection(catalog, CostModel(catalog))
        return link.select_physical_operators(plan, assignment), assignment

    def test_limit_sort_collapses(self, catalog):
        plan = LimitNode(SortNode(ScanNode("huge"), ["hk"], None), 10)
        out, assignment = self.run(catalog, plan)
        assert isinstance(out, TopNNode)
        assert out.n == 10 and out.keys == ["hk"]
        assert assignment.get(out).operator == "TopN[n=10]"

    def test_project_is_hoisted(self, catalog):
        plan = LimitNode(
            ProjectNode(SortNode(ScanNode("huge"), ["hk"], None), {"hk": "hk"}), 25
        )
        out, _ = self.run(catalog, plan)
        assert isinstance(out, ProjectNode)
        assert isinstance(out.child, TopNNode)
        assert out.outputs == {"hk": "hk"}

    def test_large_n_keeps_full_sort(self, catalog):
        plan = LimitNode(SortNode(ScanNode("small"), ["sk"], None), 200)
        out, assignment = self.run(catalog, plan)
        assert isinstance(out, LimitNode)
        assert len(assignment) == 0

    def test_limit_without_sort_untouched(self, catalog):
        plan = LimitNode(ScanNode("huge"), 10)
        out, _ = self.run(catalog, plan)
        assert out is plan


class TestPatchIndexPass:
    def test_distinct_rewrite_assigned(self):
        cat, mgr = nuc_catalog()
        plan = DistinctNode(ScanNode("nuc_t", ["v"]), ["v"])
        assignment = PhysicalOperatorAssignment()
        link = PatchIndexSelection(cat, mgr, None, force=True)
        out = link.select_physical_operators(plan, assignment)
        assert out is not plan
        choice = assignment.get(out)
        assert choice is not None
        assert choice.operator == "PatchIndex[distinct]"
        assert choice.source == "PatchIndexSelection"

    def test_optimize_still_returns_same_plan_when_nothing_applies(self, catalog):
        opt = Optimizer(catalog, PatchIndexManager(catalog), use_cost_model=False)
        plan = FilterNode(ScanNode("big"), col("bv") < 4)
        assert opt.optimize(plan) is plan
