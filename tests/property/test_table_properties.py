"""Property-based test: a table under random INSERT / DELETE / UPDATE.

Every statement runs against a :class:`~repro.storage.Table` with an
INT64, a FLOAT64 (with NaN) and a STRING (with ``None``) column, and
against a model of plain Python lists.  Between statements the test
holds arrays the way readers do (a whole ``column()`` view, a slice of
one, a ``memoryview``; of the STRING column, its codes) and releases
held ones at random.  After every
statement:

* every column equals the model, dtype included;
* every held array still equals the copy taken when it was taken — a
  write never changes an array a reader holds;
* a DELETE or UPDATE wrote a column's buffer in place exactly when no
  held array referred to it, and replaced it otherwise;
* a rejected INSERT (a value one column cannot take) left the table as
  it was.

The module fixture counts the two write paths over all examples and
fails if either never ran.
"""

import collections
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import ColumnType, Table

TYPES = {"i": ColumnType.INT64, "f": ColumnType.FLOAT64, "s": ColumnType.STRING}
VALUES = {
    "i": st.integers(-(2**62), 2**62),
    "f": st.one_of(st.floats(-1e6, 1e6, allow_nan=False), st.just(float("nan"))),
    "s": st.one_of(st.sampled_from(["", "a", "bc", "ä"]), st.none()),
}
#: what an UPDATE may assign beyond the column's own values: a float
#: into the INT64 column truncates toward zero, as a literal cast does
UPDATE_VALUES = {
    "i": st.one_of(VALUES["i"], st.sampled_from([2.0, -3.5, 7.9])),
    "f": st.one_of(VALUES["f"], st.integers(-5, 5)),
    "s": VALUES["s"],
}
#: a value each column rejects
REJECTED = {"i": "x", "f": "y"}


def stored(name, value):
    if name == "i":
        return int(value)
    if name == "f":
        return float(value)
    return value


def array(name, values):
    if name == "s":
        out = np.empty(len(values), dtype=object)
        out[:] = values
        return out
    return np.array(values, dtype=TYPES[name].numpy_dtype)


def same(got, want):
    if len(got) != len(want):
        return False
    return all(
        g == w or (isinstance(g, float) and math.isnan(g) and math.isnan(w))
        for g, w in zip(got.tolist(), want)
    )


def view(table, name):
    """The column's buffer view: a STRING column's codes."""
    coded = table.codes(name)
    return table.column(name) if coded is None else coded[0]


def contents(held):
    return held.obj if isinstance(held, memoryview) else held


def check(table, model, held, data):
    assert table.num_rows == len(model["i"])
    for name, values in model.items():
        col = table.column(name)
        assert col.dtype == TYPES[name].numpy_dtype
        assert same(col, values), (name, col, values)
    for arr, copy in held:
        np.testing.assert_array_equal(contents(arr), copy)
    held[:] = [entry for entry in held if data.draw(st.booleans())]
    n = table.num_rows
    for name in model:
        how = data.draw(st.sampled_from(["none", "view", "slice", "memoryview"]))
        if how == "view":
            arr = view(table, name)
        elif how == "slice":
            start = data.draw(st.integers(0, n))
            arr = view(table, name)[start : data.draw(st.integers(start, n))]
        elif how == "memoryview":
            arr = memoryview(view(table, name))
        else:
            continue
        held.append((arr, contents(arr).copy()))


def buffers(table, names):
    """A weak reference to each named column's buffer (the view's base)."""
    return {name: weakref.ref(view(table, name).base) for name in names}


def record_paths(paths, table, held, before):
    """Count each written buffer's path; in place exactly when unheld."""
    for name, ref in before.items():
        held_it = any(contents(arr).base is ref() for arr, _ in held)
        in_place = view(table, name).base is ref()
        assert in_place is not held_it, (name, in_place)
        paths["in place" if in_place else "copied"] += 1


@pytest.fixture(scope="module")
def paths():
    """Write-path counts over every example of the module."""
    counts = collections.Counter()
    yield counts
    assert counts["in place"] and counts["copied"], counts


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=8), st.data())
def test_random_statements_match_the_list_model(paths, initial, data):
    model = {
        name: [stored(name, data.draw(VALUES[name])) for _ in initial] for name in TYPES
    }
    table = Table.from_arrays(
        "t", {name: array(name, vals) for name, vals in model.items()}, types=TYPES
    )
    held = []
    check(table, model, held, data)
    for _ in range(data.draw(st.integers(1, 12))):
        n = table.num_rows
        kind = data.draw(st.sampled_from(["insert", "insert", "reject", "delete", "update"]))
        if kind in ("insert", "reject"):
            count = data.draw(st.integers(0 if kind == "insert" else 1, 9))
            rows = {name: [data.draw(VALUES[name]) for _ in range(count)] for name in TYPES}
            if kind == "reject":
                # the failing column comes last, after the others converted
                bad = data.draw(st.sampled_from(sorted(REJECTED)))
                rows[bad][-1] = REJECTED[bad]
                rows = {name: rows[name] for name in sorted(rows, key=lambda c: c == bad)}
                try:
                    table.insert({name: array("s", vals) for name, vals in rows.items()})
                except ValueError:
                    pass
                else:
                    raise AssertionError("a value the column cannot take was stored")
            else:
                rowids = table.insert({name: array(name, vals) for name, vals in rows.items()})
                assert rowids.tolist() == list(range(n, n + count))
                for name, vals in rows.items():
                    model[name].extend(stored(name, v) for v in vals)
        elif kind == "delete" and n:
            gone = data.draw(st.lists(st.integers(0, n - 1), max_size=n + 2))
            before = buffers(table, model if gone else ())
            table.delete(np.array(gone, dtype=np.int64))
            record_paths(paths, table, held, before)
            for name in model:
                model[name] = [v for i, v in enumerate(model[name]) if i not in set(gone)]
        elif kind == "update" and n:
            rowids = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
            names = data.draw(st.sets(st.sampled_from(sorted(TYPES)), min_size=1))
            values = {name: [data.draw(UPDATE_VALUES[name]) for _ in rowids] for name in names}
            before = buffers(table, names)
            table.modify(
                np.array(rowids, dtype=np.int64),
                {name: array("s", vals) for name, vals in values.items()},
            )
            record_paths(paths, table, held, before)
            for name, vals in values.items():
                for rid, value in zip(rowids, vals):  # a repeated rowid: the last value
                    model[name][rid] = stored(name, value)
        check(table, model, held, data)
