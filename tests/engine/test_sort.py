"""The engine's sort order and its k-way merge of sorted runs.

:func:`serial_sort_permutation` is SQL ``ORDER BY``: every key stable in
its own direction, a descending key reversing its equal-key *groups*
only, NaN/None sorting last.  It is pinned here against an in-file
oracle (Python's stable ``sorted``) over int/float/string keys and their
direction mixes, and on the edge cases: NaN/None placement, descending
ties, empty and single-row input.  The merge (:func:`merge_sorted_runs`,
behind ``MergeUnion`` and ``SortKey``) must equal the stable sort of the
concatenated runs in both directions — for 1, 2 and 8 runs cut from one
key (ties straddling the cuts included), for random run sets, and
through its consumers: ``Sort``/``ORDER BY`` over 1, 2 and 8 partitions,
``MergeUnion`` and ``SortKey``.
"""

import math

import numpy as np
import pytest

from repro.engine.batch import Relation
from repro.engine.operators import HashJoin, MergeUnion, RelationSource, Scan, Sort
from repro.engine.sort import (
    merge_run_slots,
    merge_sorted_runs,
    scatter_runs,
    serial_sort_permutation,
)
from repro.materialization.sortkey import SortKey
from repro.sql.session import SQLSession
from repro.storage import Catalog, PartitionedTable, Table
from repro.workloads import generate_tpch

#: Run counts for the merge: one run (no merge), a pair, a bracket of 8.
RUNS = [1, 2, 8]
#: Partition counts for the consumers over partitioned sources.
PARTITIONS = [1, 2, 8]


def oracle_permutation(keys, ascending):
    """ORDER BY by Python's stable ``sorted``, least-significant key first.

    ``reverse=True`` keeps equal elements in their original order, which
    is exactly the per-key descending rule; NaN and None sort last.
    """
    order = list(range(len(keys[0]) if keys else 0))
    for key, asc in reversed(list(zip(keys, ascending))):

        def rank(i, key=key):
            v = key[i]
            missing = v is None or (isinstance(v, float) and math.isnan(v))
            return (1, 0) if missing else (0, v)

        order = sorted(order, key=rank, reverse=not asc)
    return np.array(order, dtype=np.int64)


def merge_of_sorted_chunks(key, ascending, runs):
    """Cut ``key`` into ``runs`` contiguous chunks, sort each, merge them.

    The shape of every merge the engine runs (a partitioned source's
    per-partition sorted runs in ``SortKey``, the sorted flows of an NSC
    rewrite in ``MergeUnion``), so it must equal the stable sort of the
    whole key.
    """
    bounds = np.linspace(0, len(key), runs + 1).astype(np.int64)
    orders = [
        lo + serial_sort_permutation([key[lo:hi]], [ascending])
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    merged = merge_sorted_runs([key[o] for o in orders], ascending=ascending)
    return np.concatenate(orders)[merged]


def assert_merge_matches_sort(key, ascending, runs):
    want = serial_sort_permutation([key], [ascending])
    np.testing.assert_array_equal(want, oracle_permutation([key], [ascending]))
    got = merge_of_sorted_chunks(key, ascending, runs)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)


class TestSingleKey:
    @pytest.mark.parametrize("runs", RUNS)
    @pytest.mark.parametrize("ascending", [True, False])
    def test_int_keys(self, runs, ascending):
        rng = np.random.default_rng(1)
        keys = rng.integers(0, 50, 1500).astype(np.int64)
        assert_merge_matches_sort(keys, ascending, runs)

    @pytest.mark.parametrize("runs", RUNS)
    @pytest.mark.parametrize("ascending", [True, False])
    def test_float_keys_with_nan(self, runs, ascending):
        rng = np.random.default_rng(2)
        keys = rng.integers(0, 20, 1200).astype(np.float64)
        keys[rng.random(1200) < 0.25] = np.nan
        keys[rng.random(1200) < 0.05] = -0.0
        assert_merge_matches_sort(keys, ascending, runs)

    def test_nan_sorts_last_and_ties_stay_stable(self):
        keys = np.array([np.nan, 1.0, np.nan, 0.0, 1.0])
        assert serial_sort_permutation([keys]).tolist() == [3, 1, 4, 0, 2]

    @pytest.mark.parametrize("runs", RUNS)
    def test_all_equal_keys_is_identity(self, runs):
        keys = np.zeros(700, dtype=np.int64)
        for ascending in (True, False):
            # descending reverses the order of distinct-key groups only,
            # so an all-equal input keeps original row order (SQL tie rule)
            identity = np.arange(700)
            np.testing.assert_array_equal(serial_sort_permutation([keys], [ascending]), identity)
            np.testing.assert_array_equal(merge_of_sorted_chunks(keys, ascending, runs), identity)

    def test_empty_and_single_row(self):
        for n in (0, 1):
            perm = serial_sort_permutation([np.arange(n, dtype=np.int64)])
            np.testing.assert_array_equal(perm, np.arange(n))
            assert perm.dtype == np.int64

    @pytest.mark.parametrize("runs", RUNS)
    def test_chunk_boundary_ties(self, runs):
        # 96-row tie groups: at 8 runs of 144 rows every cut splits one;
        # presorted, the runs meet at an equal key (the in-order shortcut),
        # rolled, their value ranges overlap and the ties are searched
        keys = np.repeat(np.arange(12, dtype=np.int64), 96)
        for k in (keys, np.roll(keys, 500)):
            assert_merge_matches_sort(k, True, runs)
            assert_merge_matches_sort(k, False, runs)

    @pytest.mark.parametrize("runs", RUNS)
    def test_presorted_and_reversed_input(self, runs):
        keys = np.arange(900, dtype=np.int64)
        for k in (keys, keys[::-1].copy()):
            assert_merge_matches_sort(k, True, runs)
            assert_merge_matches_sort(k, False, runs)


#: Two-key column pairs: NaN-bearing floats and None-bearing strings
#: take the missing-value paths (NaN groups, NULL ranked after every string).
KEY_KINDS = ["int-float", "float-str", "str-int"]


def make_key(kind, rng, n):
    if kind == "int":
        return rng.integers(0, 8, n).astype(np.int64)
    if kind == "float":
        k = rng.integers(0, 8, n).astype(np.float64)
        k[rng.random(n) < 0.1] = np.nan
        return k
    k = np.array(rng.choice(["pear", "apple", "fig", "plum"], n), dtype=object)
    k[rng.random(n) < 0.1] = None
    return k


class TestMultiKey:
    @pytest.mark.parametrize("kinds", KEY_KINDS)
    @pytest.mark.parametrize(
        "ascending",
        [[True, True], [True, False], [False, True], [False, False]],
    )
    def test_two_key_direction_mixes(self, ascending, kinds):
        rng = np.random.default_rng(3)
        keys = [make_key(kind, rng, 1000) for kind in kinds.split("-")]
        got = serial_sort_permutation(keys, ascending)
        np.testing.assert_array_equal(got, oracle_permutation(keys, ascending))

    @pytest.mark.parametrize(
        "ascending", [[True, False, True], [False, True, False], [False, False, False]]
    )
    def test_three_keys_with_heavy_ties(self, ascending):
        rng = np.random.default_rng(4)
        keys = [
            rng.integers(0, 3, 1100).astype(np.int64),
            rng.integers(0, 3, 1100).astype(np.int64),
            rng.integers(0, 3, 1100).astype(np.float64),
        ]
        got = serial_sort_permutation(keys, ascending)
        np.testing.assert_array_equal(got, oracle_permutation(keys, ascending))

    def test_all_ascending_matches_lexsort(self):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 5, 800).astype(np.int64)
        b = rng.integers(0, 5, 800).astype(np.int64)
        np.testing.assert_array_equal(serial_sort_permutation([a, b]), np.lexsort((b, a)))

    def test_high_cardinality_keys_match_lexsort(self):
        # four ~2^40-cardinality keys: no combined key could hold them
        rng = np.random.default_rng(13)
        n = 60_000
        keys = [rng.integers(0, 1 << 40, n).astype(np.int64) for _ in range(4)]
        np.testing.assert_array_equal(
            serial_sort_permutation(keys, [True] * 4), np.lexsort(keys[::-1])
        )

    def test_one_ascending_flag_per_key(self):
        with pytest.raises(ValueError):
            serial_sort_permutation([np.arange(3), np.arange(3)], [True])


class TestSortOrder:
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_against_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 600))
        keys = []
        for _ in range(int(rng.integers(1, 4))):
            kind = int(rng.integers(0, 3))
            if kind == 0:
                keys.append(rng.integers(-5, 5, n).astype(np.int64))
            elif kind == 1:
                k = rng.integers(0, 6, n).astype(np.float64) * 0.5
                k[rng.random(n) < 0.15] = np.nan
                keys.append(k)
            else:
                k = np.array(rng.choice(["pear", "apple", "fig"], n), dtype=object)
                k[rng.random(n) < 0.15] = None
                keys.append(k)
        ascending = [bool(rng.integers(0, 2)) for _ in keys]
        got = serial_sort_permutation(keys, ascending)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, oracle_permutation(keys, ascending))


class TestObjectAndNoneKeys:
    @pytest.mark.parametrize("runs", RUNS)
    def test_string_keys_merge_like_the_sort(self, runs):
        rng = np.random.default_rng(6)
        keys = np.array(rng.choice(["pear", "apple", "fig", "plum"], 500), dtype=object)
        assert_merge_matches_sort(keys, True, runs)
        assert_merge_matches_sort(keys, False, runs)

    def test_none_sorts_last_and_ties_by_position(self):
        keys = np.array(["b", None, "a", None, "b"], dtype=object)
        assert serial_sort_permutation([keys], [True]).tolist() == [2, 0, 4, 1, 3]

    def test_none_first_under_descending(self):
        keys = np.array([None, "a", "c", None], dtype=object)
        # None group first (it sorts largest), in original row order
        assert serial_sort_permutation([keys], [False]).tolist() == [0, 3, 2, 1]


class TestMergeSortedRuns:
    def test_matches_stable_argsort_of_concat(self):
        rng = np.random.default_rng(7)
        runs = [np.sort(rng.integers(0, 30, int(rng.integers(0, 300)))) for _ in range(5)]
        want = np.argsort(np.concatenate(runs), kind="stable")
        np.testing.assert_array_equal(merge_sorted_runs(runs), want)

    def test_ties_break_by_run_then_offset(self):
        runs = [np.array([1, 1, 2]), np.array([1, 2]), np.array([0, 1])]
        got = merge_sorted_runs(runs)
        # 0 from run 2; then the 1s in (run, offset) order; the 2s likewise
        assert got.tolist() == [5, 0, 1, 3, 6, 2, 4]

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_fuzz(self, seed):
        """Random run sets: 0-300 rows each, int / NaN-float / NULL-string
        keys, either direction; slots scatter the keys into sorted order."""
        rng = np.random.default_rng(100 + seed)
        kind = ["int", "float", "str"][seed % 3]
        ascending = bool(rng.integers(0, 2))
        runs = []
        for _ in range(int(rng.integers(1, 10))):
            n = int(rng.integers(0, 300))
            if kind == "int":
                k = rng.integers(-20, 20, n).astype(np.int64)
            elif kind == "float":
                k = rng.integers(0, 15, n) * 0.5
                k[rng.random(n) < 0.1] = np.nan
            else:
                k = np.array(rng.choice(["fig", "kiwi", "pear", "plum"], n), dtype=object)
                k[rng.random(n) < 0.1] = None
            runs.append(k[serial_sort_permutation([k], [ascending])])
        concat = np.concatenate(runs)
        want = serial_sort_permutation([concat], [ascending])
        np.testing.assert_array_equal(merge_sorted_runs(runs, ascending), want)
        slots = merge_run_slots(runs, ascending)
        np.testing.assert_array_equal(scatter_runs(slots, runs), concat[want])

    def test_empty_runs(self):
        assert merge_sorted_runs([]).tolist() == []
        got = merge_sorted_runs([np.array([], dtype=np.int64), np.array([3, 4])])
        assert got.tolist() == [0, 1]


class TestDescendingMergeSortedRuns:
    """Merging non-increasing runs with ``ascending=False`` must equal
    the descending sort of the concatenation: distinct-key groups in
    descending order, equal keys in (run, offset) order — the SQL tie
    rule (descending never reverses tie order)."""

    def _descending_runs(self, rng, n_runs, with_nan=False):
        runs = []
        for _ in range(n_runs):
            n = int(rng.integers(0, 300))
            vals = rng.integers(0, 12, n).astype(np.float64)
            if with_nan:
                vals[rng.random(n) < 0.2] = np.nan
            # canonical descending order (group-reversed stable argsort)
            runs.append(vals[serial_sort_permutation([vals], [False])])
        return runs

    @pytest.mark.parametrize("runs", RUNS)
    @pytest.mark.parametrize("with_nan", [False, True])
    def test_matches_descending_sort(self, with_nan, runs):
        rng = np.random.default_rng(21)
        for trial in range(5):
            run_keys = self._descending_runs(rng, runs, with_nan)
            concat = np.concatenate(run_keys)
            want = serial_sort_permutation([concat], [False])
            got = merge_sorted_runs(run_keys, ascending=False)
            np.testing.assert_array_equal(got, want, err_msg=f"trial {trial}")

    def test_ties_break_by_run_then_offset(self):
        runs = [np.array([2, 1, 1]), np.array([2, 1]), np.array([1, 0])]
        got = merge_sorted_runs(runs, ascending=False)
        # the 2s in (run, offset) order; then every 1 likewise; the 0
        # last — same tie rule as the ascending merge
        concat = np.concatenate(runs)
        np.testing.assert_array_equal(got, serial_sort_permutation([concat], [False]))
        assert got.tolist() == [0, 3, 1, 2, 4, 5, 6]

    def test_string_runs_supported(self):
        a = np.array(["pear", "fig", "apple"], dtype=object)
        b = np.array(["kiwi", "apple"], dtype=object)
        got = merge_sorted_runs([a, b], ascending=False)
        concat = np.concatenate([a, b])
        np.testing.assert_array_equal(got, serial_sort_permutation([concat], [False]))

    def test_empty_and_single_runs(self):
        assert merge_sorted_runs([], ascending=False).tolist() == []
        one = np.array([3, 3, 1], dtype=np.int64)
        got = merge_sorted_runs([one], ascending=False)
        np.testing.assert_array_equal(got, serial_sort_permutation([one], [False]))

    @pytest.mark.parametrize("parts", [2, 4, 8])
    def test_sortkey_descending_scan_merge_does_not_resort(self, monkeypatch, parts):
        """The descending SortKey scan-merge runs the k-way merge
        instead of re-sorting the concatenation."""
        from repro.materialization import sortkey as sortkey_mod

        rng = np.random.default_rng(22)
        n = 4000
        base = Table.from_arrays(
            "m",
            {
                "mid": np.arange(n, dtype=np.int64),
                "v": rng.integers(0, 50, n).astype(np.float64),
            },
        )
        sk = SortKey(PartitionedTable.from_table(base, "mid", parts), "v", ascending=False)
        # reference: full descending sort of the concatenation
        concat = np.concatenate([p.column("v") for p in sk.sorted_parts])
        want_order = serial_sort_permutation([concat], [False])
        calls = []
        real_argsort = np.argsort

        def spying_argsort(*args, **kwargs):
            calls.append(kwargs.get("kind"))
            return real_argsort(*args, **kwargs)

        monkeypatch.setattr(sortkey_mod.np, "argsort", spying_argsort)
        got = sk.scan_sorted(["v", "mid"])
        assert not calls, "descending scan-merge fell back to a full argsort"
        all_mid = np.concatenate([p.column("mid") for p in sk.sorted_parts])
        np.testing.assert_array_equal(got["v"], concat[want_order])
        np.testing.assert_array_equal(got["mid"], all_mid[want_order])
        sk.detach()


class TestOperators:
    @pytest.mark.parametrize("parts", PARTITIONS)
    def test_sort_operator_matches_the_oracle(self, parts):
        rng = np.random.default_rng(8)
        n = 1500
        table = Table.from_arrays(
            "s",
            {
                "k": rng.integers(0, 40, n).astype(np.int64),
                "f": rng.integers(0, 10, n).astype(np.float64),
                "payload": np.arange(n, dtype=np.int64),
            },
        )
        # range partitions on k regroup the rows the sort receives
        source = PartitionedTable.from_table(table, "k", parts)
        scanned = Scan(source).execute()
        got = Sort(Scan(source), ["k", "f"], [True, False]).execute()
        order = oracle_permutation([scanned.column("k"), scanned.column("f")], [True, False])
        for name in scanned.column_names:
            want = scanned.column(name)[order]
            assert got.column(name).dtype == want.dtype, name
            np.testing.assert_array_equal(got.column(name), want, err_msg=name)

    @pytest.mark.parametrize("inputs", [2, 3, 8])
    def test_merge_union_equals_stable_resort(self, inputs):
        rng = np.random.default_rng(9)
        rels = []
        for i in range(inputs):
            n = 400 + 100 * i
            keys = np.sort(rng.integers(0, 25, n)).astype(np.int64)
            rels.append(Relation({"k": keys, "src": np.full(n, i, dtype=np.int64)}))
        got = MergeUnion([RelationSource(r) for r in rels], "k").execute()
        concat = Relation.concat(rels)
        resorted = concat.take(np.argsort(concat.column("k"), kind="stable"))
        for name in ("k", "src"):
            np.testing.assert_array_equal(got.column(name), resorted.column(name))

    def test_merge_union_descending(self):
        a = Relation({"k": np.array([5.0, 3.0, 1.0])})
        b = Relation({"k": np.array([4.0, 1.0])})
        want = MergeUnion([RelationSource(a), RelationSource(b)], "k", ascending=False).execute()
        assert want.column("k").tolist() == [5.0, 4.0, 3.0, 1.0, 1.0]

    def test_join_sorts_an_unsorted_build(self):
        rng = np.random.default_rng(10)
        build = Relation(
            {
                "k": rng.permutation(np.arange(500)).astype(np.int64),
                "w": rng.random(500),
            }
        )
        probe = Relation({"k2": np.sort(rng.integers(0, 500, 800)).astype(np.int64)})
        out = HashJoin(
            RelationSource(build), RelationSource(probe), "k", "k2", build_side="left"
        ).execute()
        # every probe key matches exactly once and arrives in probe order
        np.testing.assert_array_equal(out.column("k"), probe.column("k2"))
        lookup = build.column("w")[np.argsort(build.column("k"), kind="stable")]
        np.testing.assert_array_equal(out.column("w"), lookup[probe.column("k2")])


class TestSQLOrderBy:
    """``ORDER BY`` over a lineitem of 1, 2 and 8 range partitions equals
    the oracle order of the rows the same query returns unordered."""

    QUERIES = [
        ("l_orderkey, l_extendedprice", [("l_extendedprice", True)]),
        ("l_orderkey, l_discount, l_shipmode", [("l_discount", False), ("l_orderkey", True)]),
        ("l_suppkey, l_orderkey, l_shipmode", [("l_suppkey", True), ("l_orderkey", False)]),
        ("l_shipmode, l_receiptdate", [("l_shipmode", False), ("l_receiptdate", True)]),
    ]

    @pytest.mark.parametrize("parts", PARTITIONS)
    def test_order_by_matches_the_oracle(self, parts):
        data = generate_tpch(scale=0.002, seed=5)
        catalog = Catalog()
        catalog.register(PartitionedTable.from_table(data.lineitem, "l_suppkey", parts))
        session = SQLSession(catalog)
        for columns, order_by in self.QUERIES:
            clause = ", ".join(f"{c} {'ASC' if asc else 'DESC'}" for c, asc in order_by)
            sql = f"SELECT {columns} FROM lineitem ORDER BY {clause}"
            unordered = session.execute(f"SELECT {columns} FROM lineitem")
            got = session.execute(sql)
            order = oracle_permutation(
                [unordered.column(c) for c, _ in order_by], [asc for _, asc in order_by]
            )
            assert got.column_names == unordered.column_names, sql
            for name in got.column_names:
                np.testing.assert_array_equal(
                    got.column(name), unordered.column(name)[order], err_msg=f"{sql} / {name}"
                )


class TestSortKey:
    def _partitioned(self, seed=11, n=4000, parts=4):
        rng = np.random.default_rng(seed)
        table = Table.from_arrays(
            "sk_src",
            {
                "pk": np.arange(n, dtype=np.int64),
                "v": rng.integers(0, 200, n).astype(np.int64),
                "payload": rng.random(n),
            },
        )
        return PartitionedTable.from_table(table, "pk", parts)

    @pytest.mark.parametrize("parts", PARTITIONS)
    @pytest.mark.parametrize("ascending", [True, False])
    def test_scan_equals_stable_sort_of_the_source(self, ascending, parts):
        source = self._partitioned(parts=parts)
        sk = SortKey(source, "v", ascending=ascending, refresh_policy="manual")
        columns = {c: source.column(c) for c in source.schema.names}
        order = serial_sort_permutation([columns["v"]], [ascending])
        got = sk.scan_sorted()
        for name, values in columns.items():
            np.testing.assert_array_equal(got[name], values[order], err_msg=name)

    @pytest.mark.parametrize("ascending", [True, False])
    def test_refresh_and_scan_follow_the_source(self, ascending):
        """An immediate SortKey re-sorts on every write: after modifies,
        deletes and inserts its scan is still the stable sort of the
        source, and its sorted parts are the partitions' stable sorts."""
        source = self._partitioned(seed=12)
        sk = SortKey(source, "v", ascending=ascending)
        try:
            rng = np.random.default_rng(12)
            source.partitions[1].modify(
                np.array([0, 5, 9]), {"v": rng.integers(0, 200, 3).astype(np.int64)}
            )
            source.partitions[2].delete(np.arange(0, 200, 3, dtype=np.int64))
            source.insert(
                {
                    "pk": np.arange(4000, 4100, dtype=np.int64),
                    "v": rng.integers(0, 200, 100).astype(np.int64),
                    "payload": rng.random(100),
                }
            )
            assert sk.refresh_count >= 3 and not sk.is_stale
            for part, sorted_part in zip(source.partitions, sk.sorted_parts):
                perm = serial_sort_permutation([part.column("v")], [ascending])
                for name in part.schema.names:
                    np.testing.assert_array_equal(sorted_part.column(name), part.column(name)[perm])
            columns = {c: source.column(c) for c in source.schema.names}
            order = serial_sort_permutation([columns["v"]], [ascending])
            got = sk.scan_sorted()
            for name, values in columns.items():
                np.testing.assert_array_equal(got[name], values[order], err_msg=name)
        finally:
            sk.detach()

    def test_scan_permutation_is_cached_across_calls(self, monkeypatch):
        sk = SortKey(self._partitioned(), "v", refresh_policy="manual")
        first = sk.scan_sorted(["v"])
        order = sk._scan_order
        assert order is not None
        import repro.materialization.sortkey as sortkey_mod

        def boom(*args, **kwargs):  # pragma: no cover - should not run
            raise AssertionError("permutation re-materialized")

        monkeypatch.setattr(sortkey_mod, "merge_sorted_runs", boom)
        second = sk.scan_sorted(["v", "payload"])
        assert sk._scan_order is order
        np.testing.assert_array_equal(first["v"], second["v"])

    def test_refresh_invalidates_cached_permutation(self):
        pt = self._partitioned()
        sk = SortKey(pt, "v", refresh_policy="manual")
        sk.scan_sorted(["v"])
        assert sk._scan_order is not None
        pt.partitions[0].modify(np.array([0]), {"v": np.array([999])})
        sk.refresh()
        assert sk._scan_order is None

    def test_subset_scan_reads_only_referenced_columns(self, monkeypatch):
        sk = SortKey(self._partitioned(), "v", refresh_policy="manual")
        calls = []
        original = Table.column

        def spy(self, name):
            calls.append(name)
            return original(self, name)

        monkeypatch.setattr(Table, "column", spy)
        sk.scan_sorted(["v"])
        # the key column drives the merge; no payload column is touched
        assert set(calls) == {"v"}
