"""Stage-2 operator selection: the chain, its links, and cost dicts."""

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
    JoinOperatorSelection,
    PatchIndexSelection,
    PhysicalOperatorAssignment,
    PhysicalOperatorSelection,
    TopNSelection,
    default_selection_chain,
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


class _Tagger(PhysicalOperatorSelection):
    """Test link: tags the root, records invocation order."""

    def __init__(self, name, trace):
        super().__init__()
        self.name = name
        self.trace = trace

    def _apply_selection(self, plan, assignment):
        self.trace.append(self.name)
        assignment.assign(plan, self.name, None, "Tagger")
        return plan


class TestChain:
    def test_chain_with_appends_and_returns_head(self, catalog):
        trace = []
        a, b, c = (_Tagger(n, trace) for n in "abc")
        head = a.chain_with(b).chain_with(c)
        assert head is a
        assert a.next_selection is b and b.next_selection is c
        plan = ScanNode("small")
        head.select_physical_operators(plan, PhysicalOperatorAssignment())
        assert trace == ["a", "b", "c"]

    def test_later_link_wins_on_same_node(self, catalog):
        trace = []
        head = _Tagger("first", trace).chain_with(_Tagger("second", trace))
        assignment = PhysicalOperatorAssignment()
        head.select_physical_operators(ScanNode("small"), assignment)
        assert assignment.get(ScanNode("small")) is None  # identity-keyed
        # the chain tagged one node twice; last writer is recorded
        assert len(assignment) == 1

    def test_default_chain_composition(self, catalog):
        chain = default_selection_chain(
            catalog, PatchIndexManager(catalog), CostModel(catalog)
        )
        kinds = []
        link = chain
        while link is not None:
            kinds.append(type(link).__name__)
            link = link.next_selection
        assert kinds == [
            "PatchIndexSelection",
            "JoinOperatorSelection",
            "TopNSelection",
        ]

    def test_force_mode_is_patchindex_alone(self, catalog):
        chain = default_selection_chain(
            catalog, PatchIndexManager(catalog), None, force=True
        )
        assert isinstance(chain, PatchIndexSelection)
        assert chain.next_selection is None


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


class TestJoinOperatorSelection:
    def run(self, catalog, plan):
        assignment = PhysicalOperatorAssignment()
        link = JoinOperatorSelection(catalog, CostModel(catalog))
        out = link.select_physical_operators(plan, assignment)
        return out, assignment

    def test_build_side_pinned_to_smaller_exact_side(self, catalog):
        plan = JoinNode(ScanNode("small"), ScanNode("big"), "sk", "bk")
        reference = execute_plan(plan, catalog)
        out, assignment = self.run(catalog, plan)
        assert out is plan  # annotated in place
        assert plan.build_side == "left"
        assert assignment.get(plan).operator == "HashJoin[build=left]"
        result = execute_plan(plan, catalog)
        for name in reference.column_names:
            np.testing.assert_array_equal(result.column(name), reference.column(name))

    def test_build_side_right_when_right_smaller(self, catalog):
        plan = JoinNode(ScanNode("big"), ScanNode("small"), "bk", "sk")
        self.run(catalog, plan)
        assert plan.build_side == "right"

    def test_estimated_cardinality_defers(self, catalog):
        filtered = FilterNode(ScanNode("small"), col("sv") < 4)
        plan = JoinNode(filtered, ScanNode("big"), "sk", "bk")
        _, assignment = self.run(catalog, plan)
        assert plan.build_side == "auto"  # runtime heuristic keeps the call
        assert len(assignment) == 0

    def test_merge_flip_on_doubly_sorted_inputs(self):
        # both inputs carry SortKey structures and really are sorted:
        # the link may safely switch the algorithm to merge
        cat = Catalog()
        cat.register(Table.from_arrays("d1", {
            "k1": np.arange(2000, dtype=np.int64),
            "v1": np.arange(2000, dtype=np.int64) % 7,
        }))
        cat.register(Table.from_arrays("d2", {
            "k2": np.arange(3000, dtype=np.int64),
            "v2": np.arange(3000, dtype=np.int64) % 5,
        }))
        cat.add_structure("sortkey", "d1", "k1", object())
        cat.add_structure("sortkey", "d2", "k2", object())
        plan = JoinNode(ScanNode("d1"), ScanNode("d2"), "k1", "k2")
        reference = execute_plan(
            JoinNode(ScanNode("d1"), ScanNode("d2"), "k1", "k2"), cat
        )
        assignment = PhysicalOperatorAssignment()
        JoinOperatorSelection(cat, CostModel(cat)).select_physical_operators(
            plan, assignment
        )
        assert plan.algorithm == "merge"
        assert assignment.get(plan).operator == "MergeJoin[sortkey]"
        result = execute_plan(plan, cat)
        assert result.num_rows == reference.num_rows
        for name in reference.column_names:
            np.testing.assert_array_equal(result.column(name), reference.column(name))

    def test_explicit_algorithm_untouched(self, catalog):
        plan = JoinNode(
            ScanNode("small"), ScanNode("big"), "sk", "bk", build_side="right"
        )
        _, assignment = self.run(catalog, plan)
        assert plan.build_side == "right"
        assert len(assignment) == 0


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


class TestPatchIndexLink:
    def test_distinct_rewrite_assigned(self):
        rng = np.random.default_rng(42)
        values = np.arange(2000, dtype=np.int64) + 10_000
        dup_rows = rng.choice(2000, size=200, replace=False)
        values[dup_rows] = rng.integers(0, 50, size=200)
        cat = Catalog()
        table = Table.from_arrays("nuc_t", {"k": np.arange(2000), "v": values})
        cat.register(table)
        mgr = PatchIndexManager(cat)
        mgr.create(table, "v", NearlyUniqueColumn())
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
