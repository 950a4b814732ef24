"""Unit tests for NUC/NSC patch discovery."""

import numpy as np

from repro.core import (
    NearlySortedColumn,
    NearlyUniqueColumn,
    discover_nsc_patches,
    discover_nuc_patches,
)


class TestNUCDiscovery:
    def test_unique_column_has_no_patches(self):
        assert len(discover_nuc_patches(np.arange(100))) == 0

    def test_all_occurrences_of_duplicated_values_are_patches(self):
        values = np.array([5, 7, 5, 5, 9, 7])
        patches = discover_nuc_patches(values)
        assert patches.tolist() == [0, 1, 2, 3, 5]

    def test_kept_values_are_globally_unique(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 50, size=300)
        patches = discover_nuc_patches(values)
        mask = np.zeros(len(values), dtype=bool)
        mask[patches] = True
        kept = values[~mask]
        assert len(np.unique(kept)) == len(kept)
        # disjointness with patch values (what the Union rewrite needs)
        assert not np.isin(kept, values[mask]).any()
        # minimality: exactly the single-occurrence values are kept
        uniq, counts = np.unique(values, return_counts=True)
        assert len(kept) == int((counts == 1).sum())

    def test_empty(self):
        assert len(discover_nuc_patches(np.array([]))) == 0

    def test_string_values(self):
        values = np.array(["x", "y", "x"], dtype=object)
        assert discover_nuc_patches(values).tolist() == [0, 2]

    def test_constraint_class_wires_discovery(self):
        c = NearlyUniqueColumn()
        assert c.kind == "nuc"
        assert c.initial_patches(np.array([1, 1])).tolist() == [0, 1]


class TestNSCDiscovery:
    def test_sorted_column_has_no_patches(self):
        patches, last = discover_nsc_patches(np.arange(50))
        assert len(patches) == 0
        assert last == 49

    def test_exclusion_leaves_sorted_and_minimal(self):
        rng = np.random.default_rng(1)
        values = np.arange(200, dtype=np.int64)
        swap = rng.choice(200, size=30, replace=False)
        values[swap] = rng.integers(0, 200, size=30)
        patches, last = discover_nsc_patches(values)
        mask = np.zeros(len(values), dtype=bool)
        mask[patches] = True
        kept = values[~mask]
        assert np.all(kept[1:] >= kept[:-1])
        assert last == kept[-1]

    def test_descending(self):
        values = np.array([9, 8, 10, 7])
        patches, last = discover_nsc_patches(values, ascending=False)
        assert patches.tolist() == [2]
        assert last == 7

    def test_empty(self):
        patches, last = discover_nsc_patches(np.array([]))
        assert len(patches) == 0 and last is None

    def test_constraint_class_wires_discovery(self):
        c = NearlySortedColumn()
        assert c.kind == "nsc"
        assert c.initial_patches(np.array([2, 1, 3])).tolist() in ([0], [1])
        patches, last = c.initial_patches_with_state(np.array([1, 5, 2, 3]))
        assert last == 3


class TestNSCExtension:
    def test_extend_with_larger_values(self):
        c = NearlySortedColumn()
        keep, last = c.extend_sorted_run(np.array([10, 12, 11, 13]), 9)
        assert len(keep) == 3  # 10 12 13 or 10 11 13
        assert last == 13

    def test_values_below_boundary_are_patches(self):
        c = NearlySortedColumn()
        keep, last = c.extend_sorted_run(np.array([1, 2, 3]), 100)
        assert len(keep) == 0
        assert last == 100

    def test_none_boundary_accepts_all(self):
        c = NearlySortedColumn()
        keep, last = c.extend_sorted_run(np.array([5, 6]), None)
        assert keep.tolist() == [0, 1]
        assert last == 6

    def test_descending_extension(self):
        c = NearlySortedColumn(ascending=False)
        keep, last = c.extend_sorted_run(np.array([8, 9, 7]), 10)
        assert last == 7
        assert len(keep) == 2  # 8 7 or 9 7

    def test_paper_optimality_loss_example(self):
        # table (1, 2, 10), inserts (3, 4): the extension keeps nothing
        # beyond 10 even though (1,2,3,4) would be globally longer.
        c = NearlySortedColumn()
        keep, last = c.extend_sorted_run(np.array([3, 4]), 10)
        assert len(keep) == 0
        assert last == 10

    def test_empty_insert(self):
        c = NearlySortedColumn()
        keep, last = c.extend_sorted_run(np.array([]), 5)
        assert len(keep) == 0 and last == 5
