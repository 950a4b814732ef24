"""Property-based tests of the positional PatchIndex flows and the merge.

``PatchSelect`` splits a table at the patch *positions*; the oracle here
is the selection it replaced — scan everything, look every rowID up in a
full boolean patch mask, filter every column — written out in numpy.
Both modes must return the oracle's rows, in its order, for random
bitmaps (none and all rows patched included), with and without a scan
predicate and a pushed minmax range, for both index designs and for
plain and partitioned tables.

``merge_sorted_runs`` searches the short run of every pair into the long
one; it must still equal ``np.argsort(concat, kind="stable")`` for any
run-length ratio, with ties across runs, NaN, empty runs, in both
directions.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NearlyUniqueColumn, PartitionedPatchIndex, PatchIndex
from repro.core.manager import MaintainedIndex
from repro.engine.batch import Relation
from repro.engine.expressions import col
from repro.engine.operators import MergeUnion, PatchSelect, RelationSource, Scan
from repro.engine.sort import merge_sorted_runs
from repro.storage import PartitionedTable, Table
from repro.storage.minmax import DEFAULT_BLOCK_SIZE

ROWS = 120
BLOCK = 8


def make_table(partitions: int):
    k = np.arange(ROWS, dtype=np.int64)
    names = np.array([f"n{i % 5}" for i in k], dtype=object)
    table = Table.from_arrays(
        "t", {"k": k, "v": (k * 7) % 13, "w": k / 4.0, "name": names}, minmax_block_size=BLOCK
    )
    return table if partitions == 1 else PartitionedTable.from_table(table, "k", partitions)


def make_index(table, design, patch_mask):
    """An index (per partition: one) holding exactly ``patch_mask``'s rows."""
    parts = table.partitions
    indexes, offset = [], 0
    for part in parts:
        index = PatchIndex(part, "v", NearlyUniqueColumn(), design=design, build=False)
        index.add_patches(np.flatnonzero(patch_mask[offset : offset + part.num_rows]))
        indexes.append(index)
        offset += part.num_rows
    return PartitionedPatchIndex(table, [MaintainedIndex(i, p) for i, p in zip(indexes, parts)])


def surviving_blocks(table, lo, hi):
    """Row mask of the minmax blocks of ``k`` (= the rowID) that meet [lo, hi]."""
    if isinstance(table, PartitionedTable):
        starts = table.partition_offsets().tolist()
        bounds, block = list(zip(starts, starts[1:] + [ROWS])), DEFAULT_BLOCK_SIZE
    else:
        bounds, block = [(0, ROWS)], BLOCK
    keep = np.zeros(ROWS, dtype=bool)
    for start, stop in bounds:
        for first in range(start, stop, block):
            last = min(first + block, stop) - 1
            keep[first : last + 1] = last >= lo and first <= hi
    return keep


PATCHES = st.one_of(
    st.just([]),
    st.just(list(range(ROWS))),
    st.lists(st.integers(0, ROWS - 1), max_size=ROWS, unique=True),
)


class TestPatchSelectAgainstMaskOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        patches=PATCHES,
        mode=st.sampled_from(["use_patches", "exclude_patches"]),
        design=st.sampled_from(["bitmap", "identifier"]),
        partitions=st.sampled_from([1, 3]),
        with_predicate=st.booleans(),
        pushed=st.one_of(st.none(), st.tuples(st.integers(0, ROWS), st.integers(0, ROWS))),
    )
    def test_both_modes(self, patches, mode, design, partitions, with_predicate, pushed):
        table = make_table(partitions)
        patch_mask = np.zeros(ROWS, dtype=bool)
        patch_mask[patches] = True
        index = make_index(table, design, patch_mask)

        # the oracle: one boolean per row, every row looked at
        k = np.arange(ROWS)
        keep = patch_mask if mode == "use_patches" else ~patch_mask
        predicate = None
        if with_predicate:
            predicate = (col("v") > 3) & (col("w") < 25.0)
            keep = keep & ((k * 7) % 13 > 3) & (k / 4.0 < 25.0)
        scan = Scan(table, columns=["k", "name"], predicate=predicate)
        if pushed is not None:
            scan.push_range("k", min(pushed), max(pushed))
            keep = keep & surviving_blocks(table, min(pushed), max(pushed))
        want = np.flatnonzero(keep)

        got = PatchSelect(scan, index.patch_rowids, mode).execute()
        assert got.column_names == ["k", "name"]
        np.testing.assert_array_equal(got.column("k"), want)
        np.testing.assert_array_equal(got.column("name"), table.column("name")[want])


def sorted_run(values, ascending):
    run = np.sort(np.asarray(values, dtype=np.float64))  # NaN last
    return run if ascending else run[::-1]


KEYS = st.sampled_from([0.0, 1.0, 1.0, 2.5, 3.0, 7.0, float("nan")])


@st.composite
def runs_with_ratio(draw):
    """2-5 sorted runs; one long run and short ones at ratios 1:1 … 1:1000."""
    long_len = draw(st.sampled_from([0, 1, 10, 1000]))
    ratio = draw(st.sampled_from([1, 3, 30, 1000]))
    short_len = long_len // ratio
    count = draw(st.integers(2, 5))
    long_at = draw(st.integers(0, count - 1))
    runs = []
    for i in range(count):
        size = long_len if i == long_at else draw(st.sampled_from([0, short_len, short_len + 1]))
        runs.append(draw(st.lists(KEYS, min_size=size, max_size=size)))
    return runs


class TestMergeAgainstStableArgsort:
    @settings(max_examples=150, deadline=None)
    @given(runs=runs_with_ratio(), ascending=st.booleans())
    def test_permutation(self, runs, ascending):
        runs = [sorted_run(r, ascending) for r in runs]
        concat = np.concatenate(runs)
        # descending stable order: key groups reversed, ties in input order
        want = np.argsort(concat, kind="stable")
        if not ascending:
            want = _descending_stable(concat)
        np.testing.assert_array_equal(merge_sorted_runs(runs, ascending=ascending), want)

    @settings(max_examples=60, deadline=None)
    @given(runs=runs_with_ratio(), ascending=st.booleans())
    def test_merge_union_scatters_every_column(self, runs, ascending):
        runs = [sorted_run(r, ascending) for r in runs]
        offsets = np.cumsum([0] + [len(r) for r in runs])
        rels = [
            Relation({"key": r, "row": np.arange(offsets[i], offsets[i + 1])})
            for i, r in enumerate(runs)
        ]
        got = MergeUnion([RelationSource(r) for r in rels], "key", ascending).execute()
        concat = np.concatenate(runs)
        order = np.argsort(concat, kind="stable") if ascending else _descending_stable(concat)
        np.testing.assert_array_equal(got.column("row"), order)
        np.testing.assert_array_equal(got.column("key"), concat[order])


def _descending_stable(keys):
    """Stable descending order with NaN first (the largest key), ties in input order."""
    rank = np.where(np.isnan(keys), np.inf, keys)
    return np.argsort(-rank, kind="stable")
