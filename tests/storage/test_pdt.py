"""Unit tests for the positional delta structure."""

import numpy as np
import pytest

from repro.storage import PositionalDelta


def make_pdt(n=10):
    return PositionalDelta(
        {
            "k": np.arange(n, dtype=np.int64),
            "v": np.arange(n, dtype=np.int64) * 10,
        }
    )


class TestReads:
    def test_merged_without_deltas_is_base(self):
        pdt = make_pdt(5)
        np.testing.assert_array_equal(pdt.column("k"), np.arange(5))
        assert pdt.num_rows == 5
        assert not pdt.has_deltas

    def test_mismatched_base_lengths_raise(self):
        with pytest.raises(ValueError):
            PositionalDelta({"a": np.arange(3), "b": np.arange(4)})


class TestInsert:
    def test_insert_appends_rows(self):
        pdt = make_pdt(3)
        rowids = pdt.insert({"k": np.array([100]), "v": np.array([1000])})
        assert rowids.tolist() == [3]
        assert pdt.num_rows == 4
        assert pdt.column("k")[3] == 100

    def test_insert_requires_all_columns(self):
        pdt = make_pdt()
        with pytest.raises(KeyError):
            pdt.insert({"k": np.array([1])})

    def test_insert_unequal_lengths(self):
        pdt = make_pdt()
        with pytest.raises(ValueError):
            pdt.insert({"k": np.array([1, 2]), "v": np.array([1])})

    def test_checkpoint_clears_pending(self):
        pdt = make_pdt(3)
        pdt.insert({"k": np.array([7]), "v": np.array([70])})
        pdt.checkpoint()
        assert pdt.num_rows == 4
        assert not pdt.has_deltas


class TestDelete:
    def test_delete_shifts_rowids(self):
        pdt = make_pdt(5)
        pdt.delete(np.array([1, 3]))
        np.testing.assert_array_equal(pdt.column("k"), [0, 2, 4])
        assert pdt.num_rows == 3

    def test_delete_out_of_range(self):
        pdt = make_pdt(5)
        with pytest.raises(IndexError):
            pdt.delete(np.array([5]))

    def test_delete_after_insert_uses_current_positions(self):
        pdt = make_pdt(3)
        pdt.insert({"k": np.array([99]), "v": np.array([990])})
        pdt.delete(np.array([0, 3]))  # base row 0 and the inserted row
        np.testing.assert_array_equal(pdt.column("k"), [1, 2])

    def test_delete_empty_is_noop(self):
        pdt = make_pdt(3)
        pdt.delete(np.array([], dtype=np.int64))
        assert pdt.num_rows == 3


class TestModify:
    def test_modify_overwrites(self):
        pdt = make_pdt(4)
        pdt.modify(np.array([1, 2]), {"v": np.array([111, 222])})
        np.testing.assert_array_equal(pdt.column("v"), [0, 111, 222, 30])

    def test_modify_unknown_column(self):
        pdt = make_pdt()
        with pytest.raises(KeyError):
            pdt.modify(np.array([0]), {"zzz": np.array([1])})

    def test_modify_out_of_range(self):
        pdt = make_pdt(3)
        with pytest.raises(IndexError):
            pdt.modify(np.array([3]), {"v": np.array([1])})

    def test_modify_then_delete_interplay(self):
        pdt = make_pdt(5)
        pdt.modify(np.array([2]), {"v": np.array([999])})
        pdt.delete(np.array([0]))
        np.testing.assert_array_equal(pdt.column("v"), [10, 999, 30, 40])


class TestCheckpoint:
    def test_checkpoint_folds_everything(self):
        pdt = make_pdt(5)
        pdt.insert({"k": np.array([50]), "v": np.array([500])})
        pdt.delete(np.array([0]))
        pdt.modify(np.array([0]), {"v": np.array([-1])})
        merged_before = {c: pdt.column(c).copy() for c in ("k", "v")}
        pdt.checkpoint()
        for c in ("k", "v"):
            np.testing.assert_array_equal(pdt.column(c), merged_before[c])
        assert pdt.num_rows == 5 and not pdt.has_deltas
