"""Unit tests for tables, partitions, minmax and the catalog."""

import numpy as np
import pytest

from repro.storage import (
    Catalog,
    ColumnType,
    Field,
    MinMaxIndex,
    PartitionedTable,
    Schema,
    Table,
)


def make_table(n=100, name="t"):
    return Table.from_arrays(
        name,
        {"k": np.arange(n, dtype=np.int64), "v": (np.arange(n, dtype=np.int64) * 7) % 13},
    )


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Schema([Field("a", ColumnType.INT64), Field("a", ColumnType.INT64)])

    def test_field_lookup(self):
        s = Schema([Field("a", ColumnType.INT64)])
        assert s.field("a").type is ColumnType.INT64
        assert "a" in s and "b" not in s
        with pytest.raises(KeyError):
            s.field("b")


class TestTableBasics:
    def test_from_arrays_infers_types(self):
        t = Table.from_arrays(
            "t", {"x": np.array([1.5, 2.5]), "s": np.array(["a", "b"], dtype=object)}
        )
        assert t.schema.field("x").type is ColumnType.FLOAT64
        assert t.schema.field("s").type is ColumnType.STRING

    def test_column_mismatch_raises(self):
        schema = Schema([Field("a", ColumnType.INT64)])
        with pytest.raises(ValueError):
            Table("t", schema, {"b": np.arange(3)})

    def test_unknown_column_read(self):
        t = make_table()
        with pytest.raises(KeyError):
            t.column("missing")


class TestTableUpdates:
    def test_insert_returns_rowids_and_bumps_version(self):
        t = make_table(10)
        v0 = t.version
        rowids = t.insert({"k": np.array([100, 101]), "v": np.array([1, 2])})
        assert rowids.tolist() == [10, 11]
        assert t.num_rows == 12
        assert t.version == v0 + 1

    def test_delete_shifts_positions(self):
        t = make_table(10)
        t.delete(np.array([0, 5]))
        assert t.num_rows == 8
        assert t.column("k")[0] == 1

    def test_modify(self):
        t = make_table(5)
        t.modify(np.array([2]), {"v": np.array([99])})
        assert t.column("v")[2] == 99

    def test_update_hooks_receive_events(self):
        t = make_table(5)
        events = []
        t.add_update_hook(lambda table, ev: events.append(ev.kind))
        t.insert({"k": np.array([9]), "v": np.array([9])})
        t.delete(np.array([0]))
        t.modify(np.array([0]), {"v": np.array([1])})
        assert events == ["insert", "delete", "modify"]

    def test_remove_hook(self):
        t = make_table(5)
        calls = []
        hook = lambda table, ev: calls.append(1)
        t.add_update_hook(hook)
        t.remove_update_hook(hook)
        t.delete(np.array([0]))
        assert calls == []


class TestMinMax:
    def test_blocks_and_pruning(self):
        idx = MinMaxIndex(np.arange(100), block_size=10)
        assert idx.num_blocks == 10
        assert idx.blocks_in_range(25, 34).tolist() == [2, 3]
        assert idx.row_ranges_in_range(25, 34) == [(20, 40)]

    def test_row_mask(self):
        idx = MinMaxIndex(np.arange(50), block_size=10)
        mask = idx.row_mask_in_range(0, 9)
        assert mask[:10].all() and not mask[10:].any()

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            MinMaxIndex(np.arange(5), block_size=0)

    def test_table_minmax_cache_invalidated_on_update(self):
        t = make_table(100)
        idx1 = t.minmax("k")
        assert t.minmax("k") is idx1  # cached
        t.insert({"k": np.array([500]), "v": np.array([0])})
        idx2 = t.minmax("k")
        assert idx2 is not idx1
        assert idx2.blocks_in_range(500, 500).size > 0


class TestPartitionedTable:
    def test_from_table_splits_evenly(self):
        t = make_table(100)
        pt = PartitionedTable.from_table(t, "k", 4)
        assert pt.num_partitions == 4
        assert pt.num_rows == 100
        sizes = [p.num_rows for p in pt.partitions]
        assert max(sizes) - min(sizes) <= 1

    def test_column_concat_order(self):
        t = make_table(40)
        pt = PartitionedTable.from_table(t, "k", 4)
        np.testing.assert_array_equal(np.sort(pt.column("k")), np.arange(40))

    def test_insert_routes_to_last_partition_for_new_keys(self):
        pt = PartitionedTable.from_table(make_table(40), "k", 4)
        pt.insert({"k": np.array([1000]), "v": np.array([5])})
        assert pt.partitions[-1].num_rows == 11

    def test_insert_routes_by_range(self):
        pt = PartitionedTable.from_table(make_table(40), "k", 4)
        pt.insert({"k": np.array([0]), "v": np.array([5])})  # re-insert low key
        assert pt.partitions[0].num_rows == 11

    def test_delete_global(self):
        pt = PartitionedTable.from_table(make_table(40), "k", 4)
        pt.delete_global(np.array([0, 10, 39]))
        assert pt.num_rows == 37

    def test_modify_global(self):
        pt = PartitionedTable.from_table(make_table(40), "k", 4)
        pt.modify_global(np.array([0, 39]), {"v": np.array([111, 222])})
        col = pt.column("v")
        assert col[0] == 111 and col[38 + 1 - 0] if False else True
        assert 111 in col and 222 in col

    def test_single_partition(self):
        pt = PartitionedTable.from_table(make_table(10), "k", 1)
        assert pt.num_partitions == 1

    def test_mismatched_schemas_rejected(self):
        a = make_table(5, "a")
        b = Table.from_arrays("b", {"z": np.arange(5)})
        with pytest.raises(ValueError):
            PartitionedTable("p", [a, b], "k", [2])


class TestCatalog:
    def test_register_and_lookup(self):
        cat = Catalog()
        t = make_table()
        cat.register(t)
        assert cat.table("t") is t
        assert "t" in cat

    def test_unknown_table(self):
        with pytest.raises(KeyError):
            Catalog().table("nope")

    def test_structures(self):
        cat = Catalog()
        cat.register(make_table())
        cat.add_structure("patchindex", "t", "v", "OBJ")
        assert cat.structure("patchindex", "t", "v") == "OBJ"
        assert cat.structure("patchindex", "t", "k") is None
        cat.drop("t")
        assert cat.structure("patchindex", "t", "v") is None
