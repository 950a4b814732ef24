"""A rejected INSERT leaves the table as it was.

The positional delta store appended each column's rows before it
converted the next column, so a value a later column could not take
raised ``ValueError`` after the earlier columns already held a stray
row.  On ``{a: [0, 1, 2], b: [0, 1, 2]}``, inserting ``{a: [7], b: ['x']}``
raised, and the next valid INSERT of ``{a: [8], b: [80]}`` read back
``a = [0 1 2 7]`` beside ``b = [0 1 2 80]``.

An INSERT now converts every column before it writes any.
"""

import numpy as np
import pytest

from repro.storage import Table


def test_a_rejected_insert_leaves_no_stray_row():
    table = Table.from_arrays("t", {"a": np.arange(3), "b": np.arange(3)})
    events = []
    table.add_update_hook(lambda t, event: events.append(event.kind))
    with pytest.raises(ValueError):
        table.insert({"a": np.array([7]), "b": np.array(["x"], dtype=object)})
    assert table.num_rows == 3 and events == []
    table.insert({"a": np.array([8]), "b": np.array([80])})
    np.testing.assert_array_equal(table.column("a"), [0, 1, 2, 8])
    np.testing.assert_array_equal(table.column("b"), [0, 1, 2, 80])


def test_a_rejected_insert_after_growth_leaves_no_stray_row():
    table = Table.from_arrays("t", {"a": np.arange(3), "f": np.arange(3.0)})
    table.insert({"a": np.array([3]), "f": np.array([3.0])})  # spare room now
    with pytest.raises(ValueError):
        table.insert({"a": np.array([4, 5]), "f": np.array([4.0, "y"], dtype=object)})
    np.testing.assert_array_equal(table.column("a"), [0, 1, 2, 3])
    table.insert({"a": np.array([6]), "f": np.array([6.0])})
    np.testing.assert_array_equal(table.column("a"), [0, 1, 2, 3, 6])
    np.testing.assert_array_equal(table.column("f"), [0.0, 1.0, 2.0, 3.0, 6.0])
