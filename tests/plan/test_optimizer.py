"""The optimizer's rewriting walk, its report, and the cost dicts it records."""

import itertools

import numpy as np
import pytest

from repro.core import NearlySortedColumn, NearlyUniqueColumn, PatchIndexManager
from repro.materialization import SortKey
from repro.plan import (
    JoinNode,
    LimitNode,
    OptimizationReport,
    Optimizer,
    ProjectNode,
    ScanNode,
    SortNode,
    TopNNode,
    execute_plan,
    reorder_joins,
)
from repro.plan import nodes
from repro.plan.cost import CostModel
from repro.plan.nodes import DistinctNode, FilterNode
from repro.plan.rules import rewrite_distinct, rewrite_join, rewrite_sort
from repro.plan.stats import estimate_rows
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


def label_of(report, node):
    entry = report.rewrites.get(id(node))
    return None if entry is None else entry[1]


class TestWalk:
    def test_rewrites_then_topn(self):
        cat, mgr = nuc_catalog()
        plan = LimitNode(SortNode(DistinctNode(ScanNode("nuc_t", ["v"]), ["v"]), ["v"]), 5)
        opt, report = Optimizer(cat, mgr).optimize_staged(plan)
        assert isinstance(opt, TopNNode)
        assert label_of(report, opt) == "TopN[n=5]"
        assert label_of(report, opt.child) == "PatchIndex[distinct]"
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
        assert report.rewrites == {}


class TestReport:
    def test_record_and_describe(self, catalog):
        node = ScanNode("small")
        report = OptimizationReport()
        assert report.record(node, "Scan[test]", CostModel(catalog)) is node
        _, label, cost = report.rewrites[id(node)]
        assert label == "Scan[test]"
        assert cost["cardinality"] == 200.0
        lines = report.describe(node)
        assert lines[0] == "operator assignments:"
        assert lines[1].startswith("  Scan(small): Scan[test] (rows~200,")
        assert len(lines) == 2

    def test_unpriceable_node_renders_with_no_cost_note(self, catalog):
        node = ScanNode("missing_table")
        report = OptimizationReport()
        report.record(node, "Scan", CostModel(catalog))
        assert report.rewrites[id(node)][2] == {}
        assert report.describe(node) == ["operator assignments:", "  Scan(missing_table): Scan"]

    def test_equal_but_distinct_node_is_not_reported(self, catalog):
        node = ScanNode("small")
        report = OptimizationReport()
        report.record(node, "first", None)
        report.record(node, "second", None)
        assert report.describe(ScanNode("small")) == []  # an equal node is not the node
        assert len(report.rewrites) == 1
        assert report.describe(node) == ["operator assignments:", "  Scan(small): second"]


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


class TestTopN:
    def run(self, catalog, plan):
        return Optimizer(catalog, PatchIndexManager(catalog)).optimize_staged(plan)

    def test_limit_sort_collapses(self, catalog):
        plan = LimitNode(SortNode(ScanNode("huge"), ["hk"], None), 10)
        out, report = self.run(catalog, plan)
        assert isinstance(out, TopNNode)
        assert out.n == 10 and out.keys == ["hk"]
        assert label_of(report, out) == "TopN[n=10]"

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
        out, report = self.run(catalog, plan)
        assert isinstance(out, LimitNode)
        assert report.rewrites == {}

    def test_limit_without_sort_untouched(self, catalog):
        plan = LimitNode(ScanNode("huge"), 10)
        out, _ = self.run(catalog, plan)
        assert out is plan


class TestPatchIndexRewrites:
    def test_distinct_rewrite_recorded(self):
        cat, mgr = nuc_catalog()
        plan = DistinctNode(ScanNode("nuc_t", ["v"]), ["v"])
        out, report = Optimizer(cat, mgr, use_cost_model=False).optimize_staged(plan)
        assert out is not plan
        # a forced plan is not priced
        assert report.rewrites[id(out)][1:] == ("PatchIndex[distinct]", {})

    def test_optimize_still_returns_same_plan_when_nothing_applies(self, catalog):
        opt = Optimizer(catalog, PatchIndexManager(catalog), use_cost_model=False)
        plan = FilterNode(ScanNode("big"), col("bv") < 4)
        assert opt.optimize(plan) is plan


# ----------------------------------------------------------------------
# the one walk against the two passes it replaced
# ----------------------------------------------------------------------
def two_pass_oracle(plan, catalog, mgr, gated, pruning):
    """The optimizer as two whole-plan walks: first every PatchIndex
    rewrite, then (gated only) every Limit-over-Sort collapse.  Returns
    the plan and ``{id(node): (node, label)}`` of the rewrites."""
    model = CostModel(catalog) if gated else None
    labels = {}
    slots = itertools.count()

    def walk(node, visit):
        kids = node.children()
        new_kids = [walk(c, visit) for c in kids]
        if any(a is not b for a, b in zip(kids, new_kids)):
            node = nodes.rebuild_node(node, new_kids)
        return visit(node)

    def patchindex(node):
        for kind, out in (
            ("distinct", rewrite_distinct(node, mgr.get, model, pruning)),
            ("sort", rewrite_sort(node, mgr.get, model, pruning)),
            ("join", rewrite_join(node, mgr.get, catalog, slots, model, pruning)),
        ):
            if out is not None:
                labels[id(out)] = (out, f"PatchIndex[{kind}]")
                return out
        return node

    def topn(node):
        if not isinstance(node, LimitNode) or node.offset:
            return node
        inner = node.child
        project = inner if isinstance(inner, ProjectNode) else None
        sort = inner.child if project is not None else inner
        if not isinstance(sort, SortNode):
            return node
        rows = estimate_rows(sort.child, catalog)
        if model.topn_cost(rows, float(node.n)) >= model.sort_cost(rows):
            return node
        out = TopNNode(sort.child, sort.keys, sort.ascending, node.n)
        labels[id(out)] = (out, f"TopN[n={node.n}]")
        return out if project is None else ProjectNode(out, project.outputs)

    if gated:
        plan, _ = reorder_joins(plan, catalog, model)
    plan = walk(plan, patchindex)
    if gated:
        plan = walk(plan, topn)
    return plan, labels


def preorder_labels(plan, labels):
    out, stack = [], [plan]
    while stack:
        node = stack.pop()
        stack.extend(reversed(node.children()))
        if id(node) in labels:
            out.append((node.label(), labels[id(node)][1]))
    return out


@pytest.fixture(scope="module")
def star():
    """A 200-row dimension stored sorted on its key; a 20 000-row fact
    table with an NSC index on its foreign key and an NUC index; and a
    2 000-row table whose NSC index holds no patch."""
    rng = np.random.default_rng(8)
    cat = Catalog()
    dim = Table.from_arrays("dim", {
        "dk": np.arange(200, dtype=np.int64),
        "dv": rng.integers(0, 1000, 200).astype(np.int64),
    })
    fk = np.sort(rng.integers(0, 200, 20_000)).astype(np.int64)
    moved = rng.choice(20_000, size=400, replace=False)
    fk[moved] = rng.integers(0, 200, 400)
    fu = np.arange(20_000, dtype=np.int64)
    fu[rng.choice(20_000, size=300, replace=False)] = rng.integers(0, 20, 300)
    fact = Table.from_arrays("fact", {"fk": fk, "fu": fu, "fv": rng.integers(0, 9, 20_000)})
    clean = Table.from_arrays("clean", {"ck": np.arange(2000, dtype=np.int64) // 10})
    for table in (dim, fact, clean):
        cat.register(table)
    SortKey(dim, "dk", refresh_policy="manual", catalog=cat)
    mgr = PatchIndexManager(cat)
    mgr.create(fact, "fk", NearlySortedColumn())
    mgr.create(fact, "fu", NearlyUniqueColumn())
    mgr.create(clean, "ck", NearlySortedColumn())
    return cat, mgr


def dim_scan():
    return ScanNode("dim", ["dk", "dv"])


def fact_scan():
    return ScanNode("fact", ["fk", "fu", "fv"])


HAND_BUILT = {
    "join": lambda: JoinNode(dim_scan(), fact_scan(), "dk", "fk"),
    "join_filtered_x": lambda: JoinNode(
        FilterNode(dim_scan(), col("dv") < 700), ProjectNode(fact_scan(), {"fk": "fk"}), "dk", "fk"
    ),
    # the X side is a Limit(Sort): the join rule sees a TopN in the one
    # walk where the two passes showed it the Limit(Sort)
    "join_limit_sort_x": lambda: JoinNode(
        LimitNode(SortNode(dim_scan(), ["dk"], None), 50), fact_scan(), "dk", "fk"
    ),
    # with zero-branch pruning the inner rewrite's output is sorted on
    # ck, so the outer join's rule fires on it as its X side
    "chained_join": lambda: JoinNode(
        JoinNode(dim_scan(), ScanNode("clean"), "dk", "ck"), fact_scan(), "ck", "fk"
    ),
    "join_under_topn": lambda: LimitNode(
        SortNode(JoinNode(dim_scan(), fact_scan(), "dk", "fk"), ["fv"], None), 7
    ),
    "sort_under_limit": lambda: LimitNode(SortNode(fact_scan(), ["fk"], None), 10),
    "project_sort_limit": lambda: LimitNode(
        ProjectNode(SortNode(fact_scan(), ["fv"], None), {"fv": "fv"}), 5
    ),
    "distinct_under_topn": lambda: LimitNode(
        SortNode(DistinctNode(ScanNode("fact", ["fu"]), ["fu"]), ["fu"], None), 5
    ),
    "limit_offset": lambda: LimitNode(SortNode(fact_scan(), ["fv"], None), 5, offset=3),
}


@pytest.mark.parametrize("pruning", [False, True], ids=["plain", "zbp"])
@pytest.mark.parametrize("gated", [True, False], ids=["gated", "forced"])
@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_one_walk_matches_the_two_passes(star, name, gated, pruning):
    cat, mgr = star
    plan = HAND_BUILT[name]()
    expected, labels = two_pass_oracle(plan, cat, mgr, gated, pruning)
    got, report = Optimizer(
        cat, mgr, zero_branch_pruning=pruning, use_cost_model=gated
    ).optimize_staged(plan)
    assert got.explain() == expected.explain()
    assert preorder_labels(got, report.rewrites) == preorder_labels(expected, labels)


def test_limit_sort_x_side_answers_like_the_plain_plan(star):
    cat, mgr = star
    plan = HAND_BUILT["join_limit_sort_x"]()
    opt, report = Optimizer(cat, mgr).optimize_staged(plan)
    assert isinstance(opt.left, TopNNode)  # collapsed; the join itself kept
    assert [label for _, label, _ in report.rewrites.values()] == ["TopN[n=50]"]
    reference = execute_plan(plan, cat)
    result = execute_plan(opt, cat)
    for name in reference.column_names:
        np.testing.assert_array_equal(result.column(name), reference.column(name))


def test_reuse_slots_are_numbered_per_plan(star):
    cat, mgr = star
    opt = Optimizer(cat, mgr, use_cost_model=False)
    plan = nodes.UnionNode([HAND_BUILT["join"](), HAND_BUILT["join"]()])
    first, again = opt.optimize(plan), opt.optimize(plan)
    text = first.explain()
    assert again.explain() == text  # the names depend on the plan alone
    assert "ReuseCache(x-side-0)" in text and "ReuseCache(x-side-1)" in text
    reference, result = execute_plan(plan, cat), execute_plan(first, cat)

    def rows(rel):
        return sorted(zip(*(rel.column(name).tolist() for name in reference.column_names)))

    assert rows(result) == rows(reference)
