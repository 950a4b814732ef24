"""Unit tests for the PatchIndex structure (both designs)."""

import numpy as np
import pytest

from repro.core import (
    BITMAP_DESIGN,
    IDENTIFIER_DESIGN,
    NearlySortedColumn,
    NearlyUniqueColumn,
    PatchIndex,
)
from repro.storage import Table

DESIGNS = [BITMAP_DESIGN, IDENTIFIER_DESIGN]


def nuc_table(n=100, dup_every=10, name="t"):
    values = np.arange(n, dtype=np.int64)
    values[::dup_every] = -1  # every dup_every-th row shares value -1
    return Table.from_arrays(name, {"k": np.arange(n), "v": values})


def nsc_table(n=100, patches=(), name="t"):
    values = np.arange(n, dtype=np.int64)
    for p in patches:
        values[p] = -5  # breaks the ascending order at p (except p=0)
    return Table.from_arrays(name, {"k": np.arange(n), "v": values})


@pytest.mark.parametrize("design", DESIGNS)
class TestBuild:
    def test_nuc_build(self, design):
        t = nuc_table(100, 10)
        pi = PatchIndex(t, "v", NearlyUniqueColumn(), design=design)
        # 10 rows share value -1 -> all 10 are patches
        assert pi.num_patches == 10
        assert pi.exception_rate == pytest.approx(0.10)
        assert pi.verify()

    def test_nsc_build(self, design):
        t = nsc_table(100, patches=[50, 70])
        pi = PatchIndex(t, "v", NearlySortedColumn(), design=design)
        assert pi.num_patches == 2
        assert sorted(pi.patch_rowids().tolist()) == [50, 70]
        assert pi.last_sorted_value == 99
        assert pi.verify()

    def test_mask_and_rowids_agree(self, design):
        t = nuc_table(50, 5)
        pi = PatchIndex(t, "v", NearlyUniqueColumn(), design=design)
        mask = pi.patch_mask()
        assert len(mask) == 50
        np.testing.assert_array_equal(np.flatnonzero(mask), pi.patch_rowids())

    def test_is_patch(self, design):
        t = nsc_table(20, patches=[7])
        pi = PatchIndex(t, "v", NearlySortedColumn(), design=design)
        assert pi.is_patch_many(np.array([7, 8])).tolist() == [True, False]

    def test_is_patch_many_reads_the_mask(self, design):
        t = nuc_table(300, 7)
        pi = PatchIndex(t, "v", NearlyUniqueColumn(), design=design, shard_bits=64)
        pi.remove_rows(np.array([0, 5, 140, 299]))
        mask = pi.patch_mask()
        rowids = np.array([295, 0, 7, 7, 133, 294])  # unsorted, repeated, last row
        np.testing.assert_array_equal(pi.is_patch_many(rowids), mask[rowids])
        np.testing.assert_array_equal(pi.is_patch_many(np.arange(len(mask))), mask)
        assert pi.is_patch_many(np.array([], dtype=np.int64)).tolist() == []

    def test_empty_table(self, design):
        t = Table.from_arrays("e", {"v": np.array([], dtype=np.int64)})
        pi = PatchIndex(t, "v", NearlyUniqueColumn(), design=design)
        assert pi.num_patches == 0
        assert pi.exception_rate == 0.0
        pi.extend_rows(3)  # no patches at all: nothing to search in
        assert pi.is_patch_many(np.array([0, 2])).tolist() == [False, False]


@pytest.mark.parametrize("design", DESIGNS)
class TestMaintenancePrimitives:
    def test_extend_and_add(self, design):
        t = nuc_table(20, 100)
        pi = PatchIndex(t, "v", NearlyUniqueColumn(), design=design)
        pi.extend_rows(5)
        assert pi.num_rows == 25
        pi.add_patches([22, 24])
        assert sorted(pi.patch_rowids().tolist()) == [22, 24]

    def test_add_patches_idempotent(self, design):
        t = nuc_table(20, 100)
        pi = PatchIndex(t, "v", NearlyUniqueColumn(), design=design)
        pi.add_patches([5])
        pi.add_patches([5])
        assert pi.num_patches == 1

    def test_add_patch_out_of_range(self, design):
        t = nuc_table(10, 100)
        pi = PatchIndex(t, "v", NearlyUniqueColumn(), design=design)
        with pytest.raises(IndexError):
            pi.add_patches([10])

    def test_remove_rows_drops_and_shifts(self, design):
        t = nuc_table(20, 100)
        pi = PatchIndex(t, "v", NearlyUniqueColumn(), design=design)
        pi.add_patches([3, 10, 15])
        pi.remove_rows(np.array([3, 5]))  # patch 3 deleted; 10->8, 15->13
        assert pi.num_rows == 18
        assert sorted(pi.patch_rowids().tolist()) == [8, 13]

    def test_remove_rows_out_of_range(self, design):
        t = nuc_table(10, 100)
        pi = PatchIndex(t, "v", NearlyUniqueColumn(), design=design)
        with pytest.raises(IndexError):
            pi.remove_rows(np.array([10]))

    def test_negative_extend(self, design):
        t = nuc_table(10, 100)
        pi = PatchIndex(t, "v", NearlyUniqueColumn(), design=design)
        with pytest.raises(ValueError):
            pi.extend_rows(-1)

    def test_designs_agree_after_random_ops(self, design):
        rng = np.random.default_rng(0)
        t = nuc_table(200, 100)
        a = PatchIndex(t, "v", NearlyUniqueColumn(), design=BITMAP_DESIGN, build=True)
        b = PatchIndex(t, "v", NearlyUniqueColumn(), design=IDENTIFIER_DESIGN, build=True)
        for _ in range(10):
            n = a.num_rows
            new_patches = rng.choice(n, size=5, replace=False)
            a.add_patches(new_patches)
            b.add_patches(new_patches)
            dels = np.sort(rng.choice(n, size=7, replace=False))
            a.remove_rows(dels)
            b.remove_rows(dels)
        np.testing.assert_array_equal(a.patch_rowids(), b.patch_rowids())

    def test_patch_rowids_cannot_mutate_index_state(self, design):
        # regression: the identifier design copied its storage on every
        # call; it now shares it, so the shared array must be read-only
        t = nsc_table(40, patches=[7, 9])
        pi = PatchIndex(t, "v", NearlySortedColumn(), design=design)
        rowids = pi.patch_rowids()
        with pytest.raises(ValueError):
            rowids[0] = 3
        with pytest.raises(ValueError):
            rowids.sort()
        assert pi.patch_rowids().tolist() == [7, 9]
        assert pi.is_patch_many(np.array([7, 3])).tolist() == [True, False]

    def test_patch_rowids_follow_every_mutator(self, design):
        t = nsc_table(40, patches=[7, 9])
        pi = PatchIndex(t, "v", NearlySortedColumn(), design=design)
        seen = pi.patch_rowids()
        assert pi.patch_rowids() is seen  # extracted once per patch-set change
        pi.extend_rows(5)
        pi.add_patches([41, 3])
        assert pi.patch_rowids().tolist() == [3, 7, 9, 41]
        pi.remove_rows(np.array([0, 7, 20]))
        assert pi.patch_rowids().tolist() == [2, 7, 38]
        pi.condense()
        assert pi.patch_rowids().tolist() == [2, 7, 38]
        pi.rebuild()  # back to what the (unchanged) table says
        assert pi.patch_rowids().tolist() == [7, 9]
        assert seen.tolist() == [7, 9]  # an array handed out never changes


class TestMemory:
    def test_bitmap_memory_is_constant_in_e(self):
        t1 = nuc_table(10000, 2)   # e = 0.5
        t2 = nuc_table(10000, 100)  # e = 0.01
        m1 = PatchIndex(t1, "v", NearlyUniqueColumn(), design=BITMAP_DESIGN).memory_bytes()
        m2 = PatchIndex(t2, "v", NearlyUniqueColumn(), design=BITMAP_DESIGN).memory_bytes()
        assert m1 == m2

    def test_identifier_memory_grows_with_e(self):
        t1 = nuc_table(10000, 2)
        t2 = nuc_table(10000, 100)
        m1 = PatchIndex(t1, "v", NearlyUniqueColumn(), design=IDENTIFIER_DESIGN).memory_bytes()
        m2 = PatchIndex(t2, "v", NearlyUniqueColumn(), design=IDENTIFIER_DESIGN).memory_bytes()
        assert m1 > m2

    def test_crossover_at_1_64(self):
        # identifier cheaper below e=1/64, bitmap cheaper above (§3.2)
        n = 64 * 1000
        values = np.arange(n, dtype=np.int64)
        values[: n // 16] = -1  # e ~ 1/16 > 1/64
        t = Table.from_arrays("t", {"v": values})
        bm = PatchIndex(t, "v", NearlyUniqueColumn(), design=BITMAP_DESIGN)
        ids = PatchIndex(t, "v", NearlyUniqueColumn(), design=IDENTIFIER_DESIGN)
        assert bm.memory_bytes() < ids.memory_bytes()


class TestInvalid:
    def test_unknown_design(self):
        with pytest.raises(ValueError):
            PatchIndex(nuc_table(), "v", NearlyUniqueColumn(), design="roaring")


class TestVerifyNSC:
    """verify() checks sortedness in ORDER BY order: NULL and NaN last."""

    def test_trailing_nan_is_sorted(self):
        t = Table.from_arrays("t", {"v": np.array([1.0, 2.0, np.nan])})
        pi = PatchIndex(t, "v", NearlySortedColumn())
        assert pi.num_patches == 0
        assert pi.verify()

    def test_kept_null(self):
        t = Table.from_arrays("t", {"v": np.array(["a", "b", None], dtype=object)})
        pi = PatchIndex(t, "v", NearlySortedColumn())
        assert pi.num_patches == 0
        assert pi.verify()

    def test_null_first_is_not_sorted(self):
        # no patches over [NULL, a, b]: the kept run is out of ORDER BY
        # order (NULL sorts last), which the old order accepted
        t = Table.from_arrays("t", {"v": np.array([None, "a", "b"], dtype=object)})
        assert not PatchIndex(t, "v", NearlySortedColumn(), build=False).verify()
        descending = NearlySortedColumn(ascending=False)
        assert PatchIndex(t, "v", descending, build=False).verify() is False
        assert PatchIndex(t, "v", NearlySortedColumn()).verify()


class TestCondensePlumbing:
    """Delete plus condense keep the patch set that ``np.delete`` of the
    mask predicts."""

    SHARD = 128

    def _table(self, n=4096):
        values = np.arange(n, dtype=np.int64)
        values[:: n // 8] = -1  # a few NSC violations
        return Table.from_arrays("t", {"k": np.arange(n), "v": values})

    def test_delete_then_condense_matches_mask(self):
        table = self._table()
        index = PatchIndex(table, "v", NearlySortedColumn(), shard_bits=self.SHARD)
        before = index.patch_mask()
        dels = np.arange(0, table.num_rows, 5, dtype=np.int64)
        index.remove_rows(dels)
        np.testing.assert_array_equal(index.patch_mask(), np.delete(before, dels))
        assert index._bitmap.lost_bits() > 0
        index.condense()
        assert index._bitmap.lost_bits() == 0
        assert index.num_rows == table.num_rows - len(dels)
        np.testing.assert_array_equal(index.patch_mask(), np.delete(before, dels))

    def test_designs_agree_after_remove_rows_and_condense(self):
        table = self._table()
        bitmap = PatchIndex(table, "v", NearlySortedColumn(), shard_bits=self.SHARD)
        ids = PatchIndex(table, "v", NearlySortedColumn(), design=IDENTIFIER_DESIGN)
        dels = np.random.default_rng(3).choice(table.num_rows, size=700, replace=False)
        for index in (bitmap, ids):
            index.remove_rows(np.concatenate([dels, dels[:50]]))  # unsorted, repeats
            index.condense()
        assert bitmap._bitmap.lost_bits() == 0
        assert bitmap.num_rows == ids.num_rows == table.num_rows - len(dels)
        np.testing.assert_array_equal(bitmap.patch_rowids(), ids.patch_rowids())

    def test_partitioned_table_delete_keeps_indexes_valid(self):
        from repro.core import PatchIndexManager
        from repro.storage import Catalog, PartitionedTable

        parted = PartitionedTable.from_table(self._table(8192), "k", 4)
        catalog = Catalog()
        catalog.register(parted)
        manager = PatchIndexManager(catalog)
        handle = manager.create(parted, "v", NearlySortedColumn(), shard_bits=self.SHARD)
        parted.delete(np.arange(0, 4096, 3, dtype=np.int64))
        assert handle.verify()
        handle.condense()
        assert handle.verify()
        assert all(p.index._bitmap.lost_bits() == 0 for p in handle.parts)
        manager.drop(parted.name, "v")
        assert manager.get(parted.name, "v") is None

    def test_identifier_design_condense_is_noop(self):
        table = self._table(256)
        index = PatchIndex(table, "v", NearlySortedColumn(), design=IDENTIFIER_DESIGN)
        before = index.patch_rowids()
        index.condense()
        np.testing.assert_array_equal(index.patch_rowids(), before)
