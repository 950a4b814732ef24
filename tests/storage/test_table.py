"""Unit tests for tables, partitions, minmax and the catalog."""

import weakref

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


def make_kv(n=10):
    return Table.from_arrays(
        "kv", {"k": np.arange(n, dtype=np.int64), "v": np.arange(n, dtype=np.int64) * 10}
    )


class TestTableImage:
    """Positional semantics of the column buffers, statement by statement."""

    def test_fresh_table_reads_its_arrays(self):
        t = make_kv(5)
        np.testing.assert_array_equal(t.column("k"), np.arange(5))
        assert t.num_rows == 5

    def test_unequal_column_lengths_raise(self):
        with pytest.raises(ValueError):
            Table.from_arrays("t", {"a": np.arange(3), "b": np.arange(4)})

    def test_insert_appends_rows(self):
        t = make_kv(3)
        assert t.insert({"k": np.array([100]), "v": np.array([1000])}).tolist() == [3]
        assert t.num_rows == 4
        np.testing.assert_array_equal(t.column("k"), [0, 1, 2, 100])

    def test_insert_requires_all_columns(self):
        with pytest.raises(KeyError):
            make_kv().insert({"k": np.array([1])})

    def test_insert_unequal_lengths(self):
        with pytest.raises(ValueError):
            make_kv().insert({"k": np.array([1, 2]), "v": np.array([1])})

    def test_delete_out_of_range(self):
        t = make_kv(5)
        with pytest.raises(IndexError):
            t.delete(np.array([5]))
        with pytest.raises(IndexError):
            t.delete(np.array([-1]))

    def test_delete_after_insert_uses_current_positions(self):
        t = make_kv(3)
        t.insert({"k": np.array([99]), "v": np.array([990])})
        t.delete(np.array([3, 0, 3]))  # row 0 and the inserted row, once each
        np.testing.assert_array_equal(t.column("k"), [1, 2])

    def test_delete_empty_is_noop(self):
        t = make_kv(3)
        t.delete(np.array([], dtype=np.int64))
        np.testing.assert_array_equal(t.column("k"), [0, 1, 2])

    def test_modify_overwrites(self):
        t = make_kv(4)
        t.modify(np.array([1, 2]), {"v": np.array([111, 222])})
        np.testing.assert_array_equal(t.column("v"), [0, 111, 222, 30])

    def test_modify_unknown_column(self):
        with pytest.raises(KeyError):
            make_kv().modify(np.array([0]), {"zzz": np.array([1])})

    def test_modify_out_of_range(self):
        with pytest.raises(IndexError):
            make_kv(3).modify(np.array([3]), {"v": np.array([1])})

    def test_modify_misaligned_values(self):
        t = make_kv(3)
        with pytest.raises(ValueError):
            t.modify(np.array([0, 1]), {"v": np.array([1])})
        np.testing.assert_array_equal(t.column("v"), [0, 10, 20])

    def test_modify_then_delete_interplay(self):
        t = make_kv(5)
        t.modify(np.array([2]), {"v": np.array([999])})
        t.delete(np.array([0]))
        np.testing.assert_array_equal(t.column("v"), [10, 999, 30, 40])

    def test_insert_delete_modify_sequence(self):
        t = make_kv(5)
        t.insert({"k": np.array([50]), "v": np.array([500])})
        t.delete(np.array([0]))
        t.modify(np.array([0]), {"v": np.array([-1])})
        np.testing.assert_array_equal(t.column("k"), [1, 2, 3, 4, 50])
        np.testing.assert_array_equal(t.column("v"), [-1, 20, 30, 40, 500])

    @pytest.mark.parametrize(
        "statement",
        [
            lambda t: t.insert({"k": np.array([7]), "v": np.array([70])}),
            lambda t: t.modify(np.array([0]), {"k": np.array([-5]), "v": np.array([-5])}),
            lambda t: t.delete(np.array([1])),
        ],
        ids=["insert", "modify", "delete"],
    )
    def test_writes_never_touch_the_callers_arrays(self, statement):
        k = np.arange(4, dtype=np.int64)
        backing = np.arange(8, dtype=np.int64)  # spare room past the view
        t = Table.from_arrays("t", {"k": k, "v": backing[:4]})
        statement(t)
        np.testing.assert_array_equal(k, np.arange(4))
        np.testing.assert_array_equal(backing, np.arange(8))

    def test_a_held_column_never_changes(self):
        t = make_kv(4)
        held = t.column("v")  # the constructor's array
        t.modify(np.array([0]), {"v": np.array([5])})
        t.insert({"k": np.arange(10), "v": np.arange(10)})
        grown = t.column("v")
        t.insert({"k": np.array([1]), "v": np.array([1])})  # into spare room
        t.delete(np.array([1]))
        t.modify(np.array([0]), {"v": np.array([6])})
        np.testing.assert_array_equal(held, [0, 10, 20, 30])
        np.testing.assert_array_equal(grown, [5, 10, 20, 30, *range(10)])
        np.testing.assert_array_equal(t.column("v"), [6, 20, 30, *range(10), 1])

    def test_rejected_update_changes_nothing(self):
        t = make_kv(4)
        with pytest.raises(ValueError):
            t.modify(np.array([1]), {"k": np.array([-1]), "v": np.array(["x"], dtype=object)})
        np.testing.assert_array_equal(t.column("k"), np.arange(4))
        np.testing.assert_array_equal(t.column("v"), [0, 10, 20, 30])

    def test_strings_and_nulls(self):
        t = Table.from_arrays("t", {"s": np.array(["a", None], dtype=object)})
        t.insert({"s": np.array(["b", None], dtype=object)})
        t.modify(np.array([0]), {"s": np.array(["z"])})
        assert t.column("s").tolist() == ["z", None, "b", None]
        assert type(t.column("s")[0]) is str


WRITES = [
    lambda t: t.delete(np.array([1, 2, 5])),
    lambda t: t.modify(np.array([0, 6]), {"k": np.array([-1, -2]), "s": np.array(["z", None])}),
]
WRITE_IDS = ["delete", "modify"]


class TestInPlaceWrites:
    """DELETE packs and UPDATE scatters in the column's own buffer when
    nothing but the table refers to it, and into a fresh one otherwise."""

    def owned(self):
        strings = np.array([f"s{i}" for i in range(8)], dtype=object)
        return Table.from_arrays("t", {"k": np.arange(8, dtype=np.int64), "s": strings})

    def view(self, t, name):
        """The column's buffer view: a STRING column's codes."""
        coded = t.codes(name)
        return t.column(name) if coded is None else coded[0]

    def buffer(self, t, name="k"):
        return weakref.ref(self.view(t, name).base)

    @pytest.mark.parametrize("statement", WRITES, ids=WRITE_IDS)
    def test_an_unheld_buffer_is_written_in_place(self, statement):
        t = self.owned()
        before = {name: self.buffer(t, name) for name in ("k", "s")}
        statement(t)
        for name, ref in before.items():
            assert self.view(t, name).base is ref()

    @pytest.mark.parametrize("statement", WRITES, ids=WRITE_IDS)
    @pytest.mark.parametrize(
        "hold",
        [
            lambda t: t.column("k"),
            lambda t: t.column("k")[3:5],
            lambda t: t.column("k")[8:],
            lambda t: memoryview(t.column("k")),
        ],
        ids=["view", "slice", "empty-slice", "memoryview"],
    )
    def test_a_held_buffer_is_copied(self, statement, hold):
        t = self.owned()
        held = hold(t)
        copy = np.array(held)
        before, unheld = self.buffer(t), self.buffer(t, "s")
        statement(t)
        assert t.column("k").base is not before()
        assert self.view(t, "s").base is unheld()
        np.testing.assert_array_equal(np.array(held), copy)

    @pytest.mark.parametrize("statement", WRITES, ids=WRITE_IDS)
    def test_the_callers_constructor_array_is_copied(self, statement):
        k = np.arange(8, dtype=np.int64)
        t = Table.from_arrays("t", {"k": k, "s": self.owned().column("s").copy()})
        statement(t)
        np.testing.assert_array_equal(k, np.arange(8))
        assert t.column("k").base is not k

    def test_in_place_writes_match_the_copying_ones(self):
        t, model = self.owned(), self.owned()
        held = {n: self.view(model, n) for n in ("k", "s")}  # every model buffer is held: copy path
        again = [
            lambda t: t.delete(np.array([0, 4])),
            lambda t: t.modify(
                np.array([1, 2]), {"k": np.array([7, 8]), "s": np.array([None, "y"])}
            ),
        ]
        for statement in WRITES[::-1] + again:
            statement(t)
            statement(model)
            for name in ("k", "s"):
                assert t.column(name).tolist() == model.column(name).tolist()
        assert held["k"].tolist() == list(range(8))

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_a_deleted_string_keeps_its_code(self, at):
        strings = np.array(["a", "b"], dtype=object)
        t = Table.from_arrays("t", {"s": np.insert(strings, at, "gone")})
        codes, dictionary = t.codes("s")
        held = codes.copy()
        t.delete(np.array([at]))
        assert t.column("s").tolist() == ["a", "b"]
        # the dictionary only grows: codes read before the DELETE decode the same
        assert dictionary.decode(held).tolist() == np.insert(strings, at, "gone").tolist()
        assert t.codes("s")[1] is dictionary and len(dictionary) == 3


class TestMinMax:
    def test_blocks_and_pruning(self):
        idx = MinMaxIndex(np.arange(100), block_size=10)
        assert idx.num_blocks == 10
        assert idx.blocks_in_range(25, 34).tolist() == [2, 3]
        assert idx.row_ranges_in_range(25, 34) == [(20, 40)]

    def test_row_ranges_of_a_sorted_column(self):
        idx = MinMaxIndex(np.arange(50), block_size=10)
        assert idx.row_ranges_in_range(0, 9) == [(0, 10)]
        assert idx.row_ranges_in_range(9, 10) == [(0, 20)]  # block maxima are hits
        assert idx.row_ranges_in_range(-np.inf, 15) == [(0, 20)]
        assert idx.row_ranges_in_range(45, np.inf) == [(40, 50)]
        assert idx.row_ranges_in_range(50, np.inf) == []

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
        assert len(pt.partitions) == 4
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
        pt.delete(np.array([0, 10, 39]))
        assert pt.num_rows == 37

    def test_modify_global(self):
        pt = PartitionedTable.from_table(make_table(40), "k", 4)
        pt.modify(np.array([0, 39]), {"v": np.array([111, 222])})
        col = pt.column("v")
        assert col[0] == 111 and col[38 + 1 - 0] if False else True
        assert 111 in col and 222 in col

    def test_single_partition(self):
        pt = PartitionedTable.from_table(make_table(10), "k", 1)
        assert len(pt.partitions) == 1

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
