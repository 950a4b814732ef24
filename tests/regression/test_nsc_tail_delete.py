"""An NSC delete or update that takes the kept run's tail lowers its boundary.

The insert handler extends the sorted run from ``last_sorted_value``,
the value of the run's last row.  Deletes never lowered it, so after
deleting the table's tail and re-inserting the same rows every
re-inserted row fell below the stale boundary and became a patch:
20 000 rows at e = .05 held 999 patches, and the sequence below left
1 941 where rediscovery finds 999.  ``verify()`` held throughout,
because extra patches never break the invariant.

The boundary now falls to the value of the last non-patch row left (or
to "empty run" when none is), and the same sequence ends with exactly
the patches rediscovery finds.  An UPDATE that patches the tail lowers
it the same way.
"""

import numpy as np
import pytest

from repro.core import NearlySortedColumn, PatchIndexManager
from repro.core.discovery import discover_nsc_patches
from repro.core.patchindex import BITMAP_DESIGN, IDENTIFIER_DESIGN
from repro.sql import SQLSession
from repro.storage import Catalog, Table


def nearly_sorted_table(n=20_000, e=0.05, seed=0):
    rng = np.random.default_rng(seed)
    k = np.arange(n, dtype=np.int64)
    s = 4 * k
    s[rng.choice(n, int(e * n), replace=False)] = rng.integers(0, 4 * n, int(e * n))
    return Table.from_arrays("t", {"k": k, "s": s})


def indexed(table, design):
    catalog = Catalog()
    catalog.register(table)
    handle = PatchIndexManager(catalog).create(
        table, "s", NearlySortedColumn(), design=design
    )
    return catalog, handle


def rediscovered(table):
    return len(discover_nsc_patches(table.column("s"))[0])


@pytest.mark.parametrize("design", [BITMAP_DESIGN, IDENTIFIER_DESIGN])
@pytest.mark.parametrize("tail", [1_000, 5_000])
def test_tail_delete_and_reinsert_keeps_rediscovery_count(design, tail):
    table = nearly_sorted_table()
    _, handle = indexed(table, design)
    assert handle.num_patches == rediscovered(table) == 999
    n = table.num_rows
    rows = {c: table.column(c)[n - tail :].copy() for c in ("k", "s")}
    table.delete(np.arange(n - tail, n))
    table.insert(rows)
    assert handle.verify()
    assert handle.num_patches == rediscovered(table)


@pytest.mark.parametrize("design", [BITMAP_DESIGN, IDENTIFIER_DESIGN])
def test_delete_all_then_reinsert_is_rediscovery(design):
    """The shape of a WAL restore: delete every row, insert the image."""
    table = nearly_sorted_table(n=5_000)
    _, handle = indexed(table, design)
    image = {c: table.column(c).copy() for c in ("k", "s")}
    table.delete(np.arange(table.num_rows))
    assert handle.num_patches == 0 and handle.parts[0].index.last_sorted_value is None
    table.insert(image)
    assert handle.verify()
    assert handle.num_patches == rediscovered(table)


def test_a_delete_that_spares_the_tail_keeps_the_boundary():
    table = nearly_sorted_table(n=5_000)
    _, handle = indexed(table, BITMAP_DESIGN)
    boundary = handle.parts[0].index.last_sorted_value
    table.delete(np.arange(0, 100))
    assert handle.parts[0].index.last_sorted_value == boundary


def test_the_boundary_falls_to_a_null_tail():
    """A NULL left at the run's end is the boundary, as discovery has it."""
    table = Table.from_arrays(
        "t", {"k": np.arange(4), "s": np.array(["a", None, None, None], dtype=object)}
    )
    _, handle = indexed(table, BITMAP_DESIGN)
    assert handle.num_patches == 0
    table.delete(np.array([3]))
    index = handle.parts[0].index
    assert index.last_sorted_value is None and index.num_patches < index.num_rows
    table.insert({"k": np.array([4]), "s": np.array(["b"], dtype=object)})
    assert handle.verify()
    assert handle.num_patches == rediscovered(table) == 1


def test_tail_delete_through_sql():
    table = nearly_sorted_table(n=2_000, seed=3)
    catalog, handle = indexed(table, BITMAP_DESIGN)
    session = SQLSession(catalog)
    tail = table.column("s")[1_900:].tolist()
    session.execute("DELETE FROM t WHERE k >= 1900")
    values = ", ".join(f"({k}, {s})" for k, s in zip(range(1_900, 2_000), tail))
    session.execute(f"INSERT INTO t (k, s) VALUES {values}")
    assert handle.verify()
    assert handle.num_patches == rediscovered(table)


def sorted_table(n=100):
    return Table.from_arrays("t", {"k": np.arange(n), "s": 4 * np.arange(n)})


@pytest.mark.parametrize("design", [BITMAP_DESIGN, IDENTIFIER_DESIGN])
def test_update_then_delete_of_the_tail_lowers_the_boundary(design):
    """An UPDATE that patches the run's tail lowers the boundary too.

    It made the row a patch and kept the boundary at its old value, so
    the DELETE that followed no longer took the last non-patch row and
    the next INSERT fell below a value no live row held: 1 patch where
    rediscovery finds 0.
    """
    table = sorted_table()
    _, handle = indexed(table, design)
    table.insert({"k": np.array([100]), "s": np.array([100_000])})
    table.modify(np.array([100]), {"s": np.array([5])})
    table.delete(np.array([100]))
    table.insert({"k": np.array([101]), "s": np.array([400])})
    assert handle.verify()
    assert handle.num_patches == rediscovered(table) == 0


@pytest.mark.parametrize("design", [BITMAP_DESIGN, IDENTIFIER_DESIGN])
def test_update_of_the_tail_lowers_the_boundary(design):
    table = sorted_table()
    _, handle = indexed(table, design)
    table.modify(np.array([99]), {"s": np.array([5])})
    assert handle.parts[0].index.last_sorted_value == 4 * 98
    table.insert({"k": np.array([100]), "s": np.array([394])})
    assert handle.verify()
    assert handle.num_patches == rediscovered(table) == 1


def test_an_update_that_spares_the_tail_keeps_the_boundary():
    table = sorted_table()
    _, handle = indexed(table, BITMAP_DESIGN)
    table.modify(np.array([3, 50]), {"s": np.array([1_000, -1])})
    assert handle.parts[0].index.last_sorted_value == 4 * 99
    table.modify(np.array([99]), {"k": np.array([0])})  # not the indexed column
    assert handle.parts[0].index.last_sorted_value == 4 * 99
