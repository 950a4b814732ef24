"""Unit tests for the materialization baselines."""

import numpy as np
import pytest

from repro.materialization import JoinIndex, MaterializedView, SortKey
from repro.storage import Catalog, PartitionedTable, Table


def make_table(n=100, name="t"):
    values = np.arange(n, dtype=np.int64)
    values[::10] = -1
    return Table.from_arrays(name, {"k": np.arange(n), "v": values})


class TestMaterializedView:
    def test_contains_distinct_values(self):
        t = make_table(100)
        mv = MaterializedView(t, "v")
        expected = np.unique(t.column("v"))
        np.testing.assert_array_equal(mv.scan_values(), expected)

    def test_immediate_refresh_on_update(self):
        t = make_table(100)
        mv = MaterializedView(t, "v")
        n0 = mv.refresh_count
        t.insert({"k": np.array([100]), "v": np.array([12345])})
        assert mv.refresh_count == n0 + 1
        assert 12345 in mv.scan_values()
        assert not mv.is_stale

    def test_manual_policy_goes_stale(self):
        t = make_table(100)
        mv = MaterializedView(t, "v", refresh_policy="manual")
        t.insert({"k": np.array([100]), "v": np.array([777])})
        assert mv.is_stale
        assert 777 not in mv.scan_values()
        mv.refresh()
        assert 777 in mv.scan_values()

    def test_partitioned_source_refreshes_and_detaches(self):
        pt = PartitionedTable.from_table(make_table(100), "k", 4)
        mv = MaterializedView(pt, "v")
        pt.insert({"k": np.array([5, 99]), "v": np.array([4321, 8765])})
        assert {4321, 8765} <= set(mv.scan_values().tolist()) and not mv.is_stale
        mv.detach()
        pt.delete(np.array([0]))
        assert mv.is_stale

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            MaterializedView(make_table(), "v", refresh_policy="never")

    def test_detach_stops_refreshing(self):
        t = make_table(100)
        mv = MaterializedView(t, "v")
        mv.detach()
        t.insert({"k": np.array([100]), "v": np.array([888])})
        assert 888 not in mv.scan_values()

    def test_memory_grows_with_distinct_count(self):
        big = Table.from_arrays("b", {"v": np.arange(10000, dtype=np.int64)})
        small = Table.from_arrays("s", {"v": np.zeros(10000, dtype=np.int64)})
        assert (
            MaterializedView(big, "v").memory_bytes()
            > MaterializedView(small, "v").memory_bytes()
        )


class TestSortKey:
    def test_sorted_scan(self):
        t = Table.from_arrays("t", {"v": np.array([3, 1, 2]), "p": np.array([30, 10, 20])})
        sk = SortKey(t, "v")
        out = sk.scan_sorted()
        np.testing.assert_array_equal(out["v"], [1, 2, 3])
        np.testing.assert_array_equal(out["p"], [10, 20, 30])

    def test_descending(self):
        t = Table.from_arrays("t", {"v": np.array([3, 1, 2])})
        sk = SortKey(t, "v", ascending=False)
        np.testing.assert_array_equal(sk.scan_sorted()["v"], [3, 2, 1])

    def test_partitioned_scan_merges(self):
        base = Table.from_arrays(
            "t", {"k": np.arange(40), "v": np.arange(40, dtype=np.int64)[::-1]}
        )
        pt = PartitionedTable.from_table(base, "k", 4)
        sk = SortKey(pt, "v")
        np.testing.assert_array_equal(sk.scan_sorted(["v"])["v"], np.arange(40))

    def test_refresh_on_update(self):
        t = Table.from_arrays("t", {"k": np.arange(5), "v": np.array([5, 4, 3, 2, 1])})
        sk = SortKey(t, "v")
        t.insert({"k": np.array([5]), "v": np.array([0])})
        assert sk.refresh_count >= 1
        np.testing.assert_array_equal(sk.scan_sorted(["v"])["v"], [0, 1, 2, 3, 4, 5])

    def test_catalog_registration_enables_sortedness(self):
        cat = Catalog()
        t = make_table()
        cat.register(t)
        SortKey(t, "v", catalog=cat)
        assert cat.structure("sortkey", "t", "v") is not None

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            SortKey(make_table(), "v", refresh_policy="sometimes")


class TestJoinIndex:
    def setup_tables(self):
        dim = Table.from_arrays(
            "dim", {"dk": np.arange(10, dtype=np.int64), "dval": np.arange(10) * 100}
        )
        fact = Table.from_arrays(
            "fact",
            {"fk": np.array([0, 3, 3, 9, 5], dtype=np.int64),
             "fval": np.arange(5, dtype=np.int64)},
        )
        return fact, dim

    def test_partners_computed(self):
        fact, dim = self.setup_tables()
        ji = JoinIndex(fact, "fk", dim, "dk")
        np.testing.assert_array_equal(ji.partners, [0, 3, 3, 9, 5])
        assert ji.verify()

    def test_join_gathers_dimension_columns(self):
        fact, dim = self.setup_tables()
        ji = JoinIndex(fact, "fk", dim, "dk")
        out = ji.join(["fval"], ["dval"])
        np.testing.assert_array_equal(out["dval"], [0, 300, 300, 900, 500])

    def test_join_with_mask(self):
        fact, dim = self.setup_tables()
        ji = JoinIndex(fact, "fk", dim, "dk")
        mask = np.array([True, False, True, False, False])
        out = ji.join(["fval"], ["dval"], fact_mask=mask)
        np.testing.assert_array_equal(out["dval"], [0, 300])

    def test_unmatched_fact_rows_dropped(self):
        dim = Table.from_arrays("dim", {"dk": np.array([1, 2], dtype=np.int64)})
        fact = Table.from_arrays("fact", {"fk": np.array([1, 99], dtype=np.int64)})
        ji = JoinIndex(fact, "fk", dim, "dk")
        out = ji.join(["fk"], [])
        np.testing.assert_array_equal(out["fk"], [1])

    def test_insert_maintenance(self):
        fact, dim = self.setup_tables()
        ji = JoinIndex(fact, "fk", dim, "dk")
        fact.insert({"fk": np.array([7]), "fval": np.array([5])})
        assert ji.partners[-1] == 7
        assert ji.verify()

    def test_delete_maintenance(self):
        fact, dim = self.setup_tables()
        ji = JoinIndex(fact, "fk", dim, "dk")
        fact.delete(np.array([0, 2]))
        assert ji.verify()

    def test_modify_maintenance(self):
        fact, dim = self.setup_tables()
        ji = JoinIndex(fact, "fk", dim, "dk")
        fact.modify(np.array([0]), {"fk": np.array([8])})
        assert ji.partners[0] == 8
        assert ji.verify()

    def test_memory_is_one_int_per_fact_row(self):
        fact, dim = self.setup_tables()
        ji = JoinIndex(fact, "fk", dim, "dk")
        assert ji.memory_bytes() == fact.num_rows * 8

    def test_detach(self):
        fact, dim = self.setup_tables()
        ji = JoinIndex(fact, "fk", dim, "dk")
        ji.detach()
        fact.insert({"fk": np.array([1]), "fval": np.array([0])})
        assert len(ji.partners) == 5
