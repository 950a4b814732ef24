"""Unit tests for the physical operators."""

import numpy as np
import pytest

from repro.engine import (
    Distinct,
    Filter,
    GroupAggregate,
    HashJoin,
    Limit,
    MergeUnion,
    PatchSelect,
    Project,
    Relation,
    RelationSource,
    ReuseCache,
    ReuseLoad,
    Scan,
    Sort,
    Union,
    col,
)
from repro.engine.operators import ReuseSlot, factorize_rows, find_scans
from repro.storage import PartitionedTable, Table


def rel(**cols):
    return Relation({k: np.asarray(v) for k, v in cols.items()})


def src(**cols):
    return RelationSource(rel(**cols))


def make_table(n=100, name="t"):
    return Table.from_arrays(
        name,
        {"k": np.arange(n, dtype=np.int64), "v": (np.arange(n) * 3) % 7},
        minmax_block_size=10,
    )


class TestScan:
    def test_scan_all_columns(self):
        out = Scan(make_table(10)).execute()
        assert out.num_rows == 10
        assert set(out.column_names) == {"k", "v"}

    def test_scan_predicate(self):
        out = Scan(make_table(10), predicate=col("k") < 3).execute()
        assert out.num_rows == 3

    def test_scan_minmax_pruning(self):
        scan = Scan(make_table(100))
        scan.push_range("k", 25, 34)
        out = scan.execute()
        # block size is 10, so exactly blocks 2 and 3 survive
        assert out.num_rows == 20
        assert out.column("k").min() == 20 and out.column("k").max() == 39

    def test_restrict_rows_takes_global_rowids_on_partitions(self):
        pt = PartitionedTable.from_table(make_table(40), "k", 4)
        rowids = np.array([0, 9, 10, 25, 39])
        scan = Scan(pt)
        scan.restrict_rows(rowids)
        np.testing.assert_array_equal(scan.execute().column("k"), rowids)
        scan.restrict_rows(rowids, complement=True)
        np.testing.assert_array_equal(
            scan.execute().column("k"), np.setdiff1d(np.arange(40), rowids)
        )

    def test_restrict_rows_composes_with_predicate_and_range(self):
        scan = Scan(make_table(100), columns=["k"], predicate=col("v") > 2)
        scan.push_range("k", 25, 34)  # blocks 2 and 3: rows 20..39
        scan.restrict_rows(np.array([5, 21, 22, 30, 77]), complement=True)
        k = np.arange(100)
        want = k[(k >= 20) & (k < 40) & ~np.isin(k, [21, 22, 30]) & ((k * 3) % 7 > 2)]
        np.testing.assert_array_equal(scan.execute().column("k"), want)
        scan.restrict_rows(np.array([5, 21, 22, 30, 77]))
        np.testing.assert_array_equal(
            scan.execute().column("k"), [r for r in (21, 22, 30) if (r * 3) % 7 > 2]
        )

    def test_scan_column_subset(self):
        out = Scan(make_table(5), columns=["v"]).execute()
        assert out.column_names == ["v"]


class TestPatchSelect:
    def test_modes(self):
        table = make_table(10)
        patches = np.array([2, 7])
        ex = PatchSelect(Scan(table), lambda: patches, "exclude_patches").execute()
        us = PatchSelect(Scan(table), lambda: patches, "use_patches").execute()
        assert ex.column("k").tolist() == [0, 1, 3, 4, 5, 6, 8, 9]
        assert us.column("k").tolist() == [2, 7]
        assert ex.column_names == us.column_names == ["k", "v"]

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            PatchSelect(Scan(make_table(1)), lambda: np.zeros(0, np.int64), "bogus")

    def test_rowids_read_at_execute_time(self):
        table = make_table(4)
        patches = []
        op = PatchSelect(Scan(table), lambda: np.array(patches, dtype=np.int64), "use_patches")
        patches.append(1)  # updated after construction
        assert op.execute().column("k").tolist() == [1]


class TestFilterProject:
    def test_filter(self):
        out = Filter(src(a=[1, 2, 3]), col("a") >= 2).execute()
        assert out.column("a").tolist() == [2, 3]

    def test_project_rename_and_compute(self):
        out = Project(src(a=[1, 2], b=[3, 4]), {"x": "a", "s": col("a") + col("b")}).execute()
        assert out.column("x").tolist() == [1, 2]
        assert out.column("s").tolist() == [4, 6]


class TestJoins:
    def test_hash_join_inner(self):
        left = src(k=[1, 2, 3], lv=[10, 20, 30])
        right = src(k=[2, 3, 3, 4], rv=[200, 300, 301, 400])
        out = HashJoin(left, right, "k", "k").execute()
        rows = sorted(
            zip(out.column("k").tolist(), out.column("lv").tolist(), out.column("rv").tolist())
        )
        assert rows == [(2, 20, 200), (3, 30, 300), (3, 30, 301)]

    def test_hash_join_no_matches(self):
        out = HashJoin(src(k=[1]), src(k=[2]), "k", "k").execute()
        assert out.num_rows == 0

    def test_hash_join_column_collision(self):
        with pytest.raises(ValueError):
            HashJoin(src(k=[1], v=[1]), src(k=[1], v=[2]), "k", "k").execute()

    def test_hash_join_different_key_names(self):
        out = HashJoin(src(a=[1, 2]), src(b=[2, 2]), "a", "b").execute()
        assert out.num_rows == 2
        assert set(out.column_names) == {"a", "b"}

    def test_hash_join_drp_prunes_probe_scan(self):
        table = make_table(100)  # block size 10
        probe = Scan(table)
        build = src(k=[42, 44])
        join = HashJoin(build, probe, "k", "k", build_side="left",
                        dynamic_range_propagation=True)
        out = join.execute()
        assert sorted(out.column("k").tolist()) == [42, 44]
        assert probe._ranges == [("k", 42, 44)]

    def test_sorted_build_join(self):
        left = src(k=[1, 2, 2, 5], lv=[1, 2, 3, 4])
        right = src(k=[2, 3, 5], rv=[20, 30, 50])
        out = HashJoin(left, right, "k", "k", build_side="left").execute()
        rows = sorted(zip(out.column("k").tolist(), out.column("rv").tolist()))
        assert rows == [(2, 20), (2, 20), (5, 50)]

    def test_auto_and_sorted_build_agree(self):
        rng = np.random.default_rng(0)
        lk = np.sort(rng.integers(0, 50, 200))
        rk = np.sort(rng.integers(0, 50, 100))
        h = HashJoin(src(k=lk), src(j=rk), "k", "j").execute()
        m = HashJoin(src(k=lk), src(j=rk), "k", "j", build_side="left").execute()
        assert h.num_rows == m.num_rows
        np.testing.assert_array_equal(np.sort(h.column("k")), np.sort(m.column("k")))

    @pytest.mark.parametrize("smaller", ["left", "right"])
    def test_auto_builds_on_the_smaller_input(self, smaller):
        rng = np.random.default_rng(3)
        small = {"k": rng.integers(0, 20, 30), "s": np.arange(30)}
        large = {"j": rng.integers(0, 20, 300), "g": np.arange(300)}
        sides = [(small, "k"), (large, "j")]
        if smaller == "right":
            sides.reverse()
        larger = "right" if smaller == "left" else "left"

        def join(build_side):
            (lcols, lkey), (rcols, rkey) = sides
            return HashJoin(src(**lcols), src(**rcols), lkey, rkey, build_side=build_side).execute()

        auto, pinned, wrong = join("auto"), join(smaller), join(larger)
        # output is probe-major, so the two build sides order rows apart
        assert auto.column_names == pinned.column_names
        for name in auto.column_names:
            np.testing.assert_array_equal(auto.column(name), pinned.column(name))
        assert not np.array_equal(auto.column("s"), wrong.column("s"))


class TestSortDistinctAggregate:
    def test_sort(self):
        out = Sort(src(a=[3, 1, 2]), ["a"]).execute()
        assert out.column("a").tolist() == [1, 2, 3]

    def test_sort_descending(self):
        out = Sort(src(a=[3, 1, 2]), ["a"], [False]).execute()
        assert out.column("a").tolist() == [3, 2, 1]

    def test_distinct_single(self):
        out = Distinct(src(a=[2, 1, 2, 1, 3]), ["a"]).execute()
        assert sorted(out.column("a").tolist()) == [1, 2, 3]

    def test_distinct_multi(self):
        out = Distinct(src(a=[1, 1, 2], b=[1, 1, 2])).execute()
        assert out.num_rows == 2

    def test_group_aggregate(self):
        out = GroupAggregate(
            src(g=[1, 1, 2, 2, 2], v=[1.0, 2.0, 3.0, 4.0, 5.0]),
            ["g"],
            {"s": ("sum", "v"), "c": ("count", None), "mn": ("min", "v"),
             "mx": ("max", "v"), "a": ("avg", "v")},
        ).execute()
        out = out.sort_by(["g"])
        assert out.column("s").tolist() == [3.0, 12.0]
        assert out.column("c").tolist() == [2, 3]
        assert out.column("mn").tolist() == [1.0, 3.0]
        assert out.column("mx").tolist() == [2.0, 5.0]
        assert out.column("a").tolist() == [1.5, 4.0]

    def test_group_aggregate_multi_key(self):
        out = GroupAggregate(
            src(a=[1, 1, 2], b=["x", "x", "y"], v=[1, 2, 3]),
            ["a", "b"],
            {"s": ("sum", "v")},
        ).execute()
        assert out.num_rows == 2

    def test_group_aggregate_expression_input(self):
        out = GroupAggregate(
            src(g=[1, 1], v=[2.0, 3.0]),
            ["g"],
            {"s": ("sum", col("v") * 2)},
        ).execute()
        assert out.column("s").tolist() == [10.0]

    def test_global_aggregate(self):
        aggs = {"s": ("sum", "v"), "c": ("count", None)}
        out = GroupAggregate(src(v=[1, 2, 3]), [], aggs).execute()
        assert out.column("s").tolist() == [6]
        assert out.column("c").tolist() == [3]

    def test_unknown_aggregate(self):
        with pytest.raises(ValueError):
            GroupAggregate(src(v=[1]), [], {"m": ("median", "v")})


class TestUnionMerge:
    def test_union(self):
        out = Union([src(a=[1]), src(a=[2, 3])]).execute()
        assert out.column("a").tolist() == [1, 2, 3]

    def test_merge_union_sorted(self):
        out = MergeUnion([src(a=[1, 4, 9]), src(a=[2, 3, 10])], "a").execute()
        assert out.column("a").tolist() == [1, 2, 3, 4, 9, 10]

    def test_merge_union_three_inputs(self):
        out = MergeUnion([src(a=[1, 5]), src(a=[2]), src(a=[0, 9])], "a").execute()
        assert out.column("a").tolist() == [0, 1, 2, 5, 9]

    def test_merge_union_with_empty(self):
        out = MergeUnion([src(a=np.array([], dtype=np.int64)), src(a=[1, 2])], "a").execute()
        assert out.column("a").tolist() == [1, 2]

    def test_merge_union_descending(self):
        out = MergeUnion([src(a=[9, 4, 1]), src(a=[10, 3, 2])], "a", ascending=False).execute()
        assert out.column("a").tolist() == [10, 9, 4, 3, 2, 1]

    def test_merge_union_carries_payload(self):
        out = MergeUnion(
            [src(a=[1, 3], p=["x", "y"]), src(a=[2], p=["z"])], "a"
        ).execute()
        assert out.column("p").tolist() == ["x", "z", "y"]


class TestReuse:
    def test_cache_and_load_share_result(self):
        calls = []

        class Counting(RelationSource):
            def execute(self):
                calls.append(1)
                return super().execute()

        slot = ReuseSlot()
        cache = ReuseCache(Counting(rel(a=[1, 2])), slot)
        load = ReuseLoad(slot)
        assert cache.execute().num_rows == 2
        assert load.execute().num_rows == 2
        assert len(calls) == 1

    def test_load_before_cache_triggers_producer(self):
        slot = ReuseSlot()
        ReuseCache(src(a=[5]), slot)
        assert ReuseLoad(slot).execute().column("a").tolist() == [5]

    def test_empty_slot_raises(self):
        with pytest.raises(RuntimeError):
            ReuseLoad(ReuseSlot()).execute()


class TestLimitMisc:
    def test_limit(self):
        assert Limit(src(a=[1, 2, 3]), 2).execute().num_rows == 2
        assert Limit(src(a=[1]), 5).execute().num_rows == 1
        with pytest.raises(ValueError):
            Limit(src(a=[1]), -1)

    def test_find_scans(self):
        t = make_table(5)
        scan = Scan(t)
        tree = Filter(scan, col("k") > 0)
        assert find_scans(tree) == [scan]

    def test_factorize_rows_single(self):
        codes, first = factorize_rows([np.array([5, 5, 7])])
        assert codes.tolist() == [0, 0, 1]
        assert first.tolist() == [0, 2]

    def test_explain_renders_tree(self):
        t = make_table(5)
        tree = Filter(Scan(t), col("k") > 0)
        text = tree.explain()
        assert "Filter" in text and "Scan" in text
