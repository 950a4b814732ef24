"""Unit tests for PatchIndex update maintenance (paper §5)."""

import numpy as np
import pytest

from repro.core import (
    BITMAP_DESIGN,
    IDENTIFIER_DESIGN,
    NearlySortedColumn,
    NearlyUniqueColumn,
    PatchIndexManager,
)
from repro.core.updates import nuc_collision_patches
from repro.storage import PartitionedTable, Table

DESIGNS = [BITMAP_DESIGN, IDENTIFIER_DESIGN]


def unique_table(n=100, name="t"):
    return Table.from_arrays(
        name, {"k": np.arange(n), "v": np.arange(n, dtype=np.int64)},
        minmax_block_size=16,
    )


def sorted_table(n=100, name="t"):
    return Table.from_arrays(
        name, {"k": np.arange(n), "v": np.arange(n, dtype=np.int64) * 2},
        minmax_block_size=16,
    )


@pytest.mark.parametrize("design", DESIGNS)
class TestNUCInsert:
    def test_insert_unique_values_adds_no_patches(self, design):
        t = unique_table()
        mgr = PatchIndexManager()
        pi = mgr.create(t, "v", NearlyUniqueColumn(), design=design)
        t.insert({"k": np.array([100]), "v": np.array([1000])})
        assert pi.num_patches == 0
        assert pi.num_rows == 101
        assert pi.verify()

    def test_insert_collision_with_existing_value(self, design):
        t = unique_table()
        mgr = PatchIndexManager()
        pi = mgr.create(t, "v", NearlyUniqueColumn(), design=design)
        t.insert({"k": np.array([100]), "v": np.array([42])})  # 42 exists
        # both join sides become patches (§5.1)
        assert pi.num_patches == 2
        assert pi.verify()

    def test_insert_duplicates_within_batch(self, design):
        t = unique_table()
        mgr = PatchIndexManager()
        pi = mgr.create(t, "v", NearlyUniqueColumn(), design=design)
        t.insert({"k": np.array([100, 101, 102]), "v": np.array([777, 777, 777])})
        assert pi.num_patches == 3  # the whole colliding group
        assert pi.verify()

    def test_insert_value_equal_to_existing_patch_group(self, design):
        # table has duplicates -> one kept non-patch; inserting the same
        # value again must patch the new tuple, not resurrect old ones
        values = np.arange(100, dtype=np.int64)
        values[10] = values[20]  # duplicate pair
        t = Table.from_arrays("t", {"k": np.arange(100), "v": values})
        mgr = PatchIndexManager()
        pi = mgr.create(t, "v", NearlyUniqueColumn(), design=design)
        assert pi.num_patches == 2
        t.insert({"k": np.array([100]), "v": np.array([values[20]])})
        assert pi.num_patches == 3
        assert pi.verify()

    def test_repeated_small_inserts(self, design):
        t = unique_table()
        mgr = PatchIndexManager()
        pi = mgr.create(t, "v", NearlyUniqueColumn(), design=design)
        for i in range(10):
            t.insert({"k": np.array([200 + i]), "v": np.array([50])})  # always collides
        # the original row with value 50 plus all 10 inserted rows
        assert pi.num_patches == 11
        assert pi.verify()


@pytest.mark.parametrize("design", DESIGNS)
class TestNSCInsert:
    def test_insert_extending_values(self, design):
        t = sorted_table()
        mgr = PatchIndexManager()
        pi = mgr.create(t, "v", NearlySortedColumn(), design=design)
        t.insert({"k": np.array([100, 101]), "v": np.array([200, 202])})
        assert pi.num_patches == 0
        assert pi.verify()

    def test_insert_below_boundary_becomes_patch(self, design):
        t = sorted_table()
        mgr = PatchIndexManager()
        pi = mgr.create(t, "v", NearlySortedColumn(), design=design)
        t.insert({"k": np.array([100]), "v": np.array([-7])})
        assert pi.num_patches == 1
        assert pi.verify()

    def test_insert_mixed_batch(self, design):
        t = sorted_table()
        mgr = PatchIndexManager()
        pi = mgr.create(t, "v", NearlySortedColumn(), design=design)
        # boundary is 198: 500/510 extend; 100 and 505-out-of-order is kept patch-wise
        t.insert({"k": np.arange(100, 104), "v": np.array([500, 100, 510, 505])})
        assert pi.verify()
        assert pi.num_patches == 2  # 100 and 505

    def test_boundary_value_advances(self, design):
        t = sorted_table(10)
        mgr = PatchIndexManager()
        handle = mgr.create(t, "v", NearlySortedColumn(), design=design)
        t.insert({"k": np.array([10]), "v": np.array([300])})
        t.insert({"k": np.array([11]), "v": np.array([299])})  # below new boundary
        assert handle.num_patches == 1
        assert handle.verify()


@pytest.mark.parametrize("design", DESIGNS)
class TestModify:
    def test_nuc_modify_creating_collision(self, design):
        t = unique_table()
        mgr = PatchIndexManager()
        pi = mgr.create(t, "v", NearlyUniqueColumn(), design=design)
        t.modify(np.array([5]), {"v": np.array([42])})  # now two rows = 42
        assert pi.num_patches == 2
        assert pi.verify()

    def test_nuc_modify_to_fresh_value(self, design):
        t = unique_table()
        mgr = PatchIndexManager()
        pi = mgr.create(t, "v", NearlyUniqueColumn(), design=design)
        t.modify(np.array([5]), {"v": np.array([123456])})
        assert pi.num_patches == 0
        assert pi.verify()

    def test_nuc_modify_other_column_ignored(self, design):
        t = unique_table()
        mgr = PatchIndexManager()
        pi = mgr.create(t, "v", NearlyUniqueColumn(), design=design)
        t.modify(np.array([5]), {"k": np.array([999])})
        assert pi.num_patches == 0

    def test_nsc_modify_always_patches(self, design):
        t = sorted_table()
        mgr = PatchIndexManager()
        pi = mgr.create(t, "v", NearlySortedColumn(), design=design)
        t.modify(np.array([5, 6]), {"v": np.array([5000, -1])})
        assert pi.num_patches == 2
        assert sorted(pi.patch_rowids().tolist()) == [5, 6]
        assert pi.verify()

    def test_nsc_modify_other_column_ignored(self, design):
        t = sorted_table()
        mgr = PatchIndexManager()
        pi = mgr.create(t, "v", NearlySortedColumn(), design=design)
        t.modify(np.array([5]), {"k": np.array([999])})
        assert pi.num_patches == 0


@pytest.mark.parametrize("design", DESIGNS)
class TestDelete:
    def test_delete_drops_patch_info(self, design):
        values = np.arange(100, dtype=np.int64)
        values[50] = 0  # rows 0 and 50 duplicated -> both patches
        t = Table.from_arrays("t", {"k": np.arange(100), "v": values})
        mgr = PatchIndexManager()
        pi = mgr.create(t, "v", NearlyUniqueColumn(), design=design)
        assert pi.num_patches == 2
        t.delete(np.array([50]))
        # row 0 stays a (conservative) patch: §5.3's optimality loss
        assert pi.num_patches == 1
        assert pi.num_rows == 99
        assert pi.verify()

    def test_delete_shifts_remaining_patches(self, design):
        values = np.arange(100, dtype=np.int64)
        values[80] = 0  # patches at rows 0 and 80
        t = Table.from_arrays("t", {"k": np.arange(100), "v": values})
        mgr = PatchIndexManager()
        pi = mgr.create(t, "v", NearlyUniqueColumn(), design=design)
        t.delete(np.array([10, 20]))
        assert pi.patch_rowids().tolist() == [0, 78]
        assert pi.verify()

    def test_delete_keeps_conservative_patches(self, design):
        # deleting one duplicate leaves the other as a (now unnecessary
        # but harmless) patch: optimality loss of §5.3
        values = np.arange(100, dtype=np.int64)
        values[60] = values[40]
        t = Table.from_arrays("t", {"k": np.arange(100), "v": values})
        mgr = PatchIndexManager()
        pi = mgr.create(t, "v", NearlyUniqueColumn(), design=design)
        t.delete(np.array([40]))
        assert pi.num_patches == 1  # stays a patch
        assert pi.verify()  # still correct (superset of exceptions)


class TestManager:
    def test_duplicate_index_rejected(self):
        t = unique_table()
        mgr = PatchIndexManager()
        mgr.create(t, "v", NearlyUniqueColumn())
        with pytest.raises(ValueError):
            mgr.create(t, "v", NearlyUniqueColumn())

    def test_drop_detaches_hook(self):
        t = unique_table()
        mgr = PatchIndexManager()
        pi = mgr.create(t, "v", NearlyUniqueColumn())
        mgr.drop("t", "v")
        assert mgr.get("t", "v") is None
        t.insert({"k": np.array([100]), "v": np.array([42])})
        assert pi.num_rows == 100  # not maintained anymore

    def test_catalog_registration(self):
        from repro.storage import Catalog

        cat = Catalog()
        t = unique_table()
        cat.register(t)
        mgr = PatchIndexManager(cat)
        handle = mgr.create(t, "v", NearlyUniqueColumn())
        assert cat.structure("patchindex", "t", "v") is handle
        mgr.drop("t", "v")
        assert cat.structure("patchindex", "t", "v") is None


class TestPartitioned:
    def test_partitioned_index_build_and_mask(self):
        values = np.arange(80, dtype=np.int64)
        values[10] = values[11]  # one duplicate pair
        t = Table.from_arrays("t", {"k": np.arange(80), "v": values})
        pt = PartitionedTable.from_table(t, "k", 4)
        mgr = PatchIndexManager()
        handle = mgr.create(pt, "v", NearlyUniqueColumn())
        assert handle.num_rows == 80
        assert handle.num_patches == 2
        assert handle.patch_rowids().tolist() == [10, 11]  # global rowIDs
        assert handle.verify()

    def test_partitioned_insert_maintains_local_index(self):
        t = Table.from_arrays(
            "t", {"k": np.arange(80), "v": np.arange(80, dtype=np.int64)}
        )
        pt = PartitionedTable.from_table(t, "k", 4)
        mgr = PatchIndexManager()
        handle = mgr.create(pt, "v", NearlyUniqueColumn())
        pt.insert({"k": np.array([100]), "v": np.array([79])})  # collides in last part
        assert handle.num_patches == 2
        assert handle.verify()

    def test_partitioned_delete(self):
        t = Table.from_arrays(
            "t", {"k": np.arange(80), "v": np.arange(80, dtype=np.int64)}
        )
        pt = PartitionedTable.from_table(t, "k", 4)
        mgr = PatchIndexManager()
        handle = mgr.create(pt, "v", NearlyUniqueColumn())
        pt.delete(np.array([0, 25, 79]))
        assert handle.num_rows == 77
        assert handle.verify()


class TestCollisionPatchesUnit:
    def test_whole_colliding_group_becomes_patches(self):
        values = np.array([7, 7, 7, 9])
        candidates = np.array([0, 1, 2, 5])
        is_patch = np.zeros(4, dtype=bool)
        out = nuc_collision_patches(values, candidates, is_patch)
        assert out.tolist() == [0, 1, 2]  # 9 matched only itself

    def test_existing_patches_never_returned(self):
        values = np.array([7, 7, 7])
        candidates = np.array([0, 1, 2])
        is_patch = np.array([True, False, False])
        out = nuc_collision_patches(values, candidates, is_patch)
        assert out.tolist() == [1, 2]  # row 0 already a patch, not re-added

    def test_empty_candidates(self):
        empty = np.array([], dtype=np.int64)
        out = nuc_collision_patches(empty, empty, np.zeros(0, bool))
        assert len(out) == 0
