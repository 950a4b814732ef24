"""An NSC index over a column holding NULL must order it as ORDER BY does.

``Sort`` ranks NULL after every value (like NaN), so ``ORDER BY s``
returns it last and ``ORDER BY s DESC`` first.  NSC discovery used to
take its order codes from the group kernel, which ranks NULL *first*:
the kept sorted run then started with NULL and the forced NSC plan
returned it first.  The insert handler compared the boundary with
Python ``>=``, so an INSERT of NULL raised ``TypeError`` after the rows
were already in the table, and ``verify()`` raised on a kept NULL.

Every query here runs once through the forced PatchIndex plan
(``use_cost_model=False``) and once through a plain session.  The two
must return the same keys in the same order and the same rows; rows
with equal keys may come out in another order (the merge of the sorted
and patch flows emits the sorted flow's tie first).
"""

import numpy as np
import pytest

from repro.core import NearlySortedColumn, PatchIndexManager
from repro.sql import SQLSession
from repro.storage import Catalog, Table


def rows(rel):
    return sorted(zip(rel.column("k").tolist(), map(repr, rel.column("s"))))


def assert_same_order(got, want):
    assert got.column("s").tolist() == want.column("s").tolist()
    assert rows(got) == rows(want)


def sessions(ascending):
    cat = Catalog()
    cat.register(
        Table.from_arrays(
            "t",
            {
                "k": np.arange(5, dtype=np.int64),
                "s": np.array([None, "a", "b", "d", "c"], dtype=object),
            },
        )
    )
    manager = PatchIndexManager(cat)
    handle = manager.create(cat.table("t"), "s", NearlySortedColumn(ascending))
    forced = SQLSession(cat, index_manager=manager, use_cost_model=False)
    return forced, SQLSession(cat), handle


@pytest.mark.parametrize("ascending", [True, False], ids=["asc", "desc"])
class TestNullOrderedLikeOrderBy:
    def query(self, ascending):
        return f"SELECT k, s FROM t ORDER BY s {'ASC' if ascending else 'DESC'}"

    def test_order_by_matches_plain_session(self, ascending):
        forced, plain, handle = sessions(ascending)
        q = self.query(ascending)
        assert "PatchScan" in forced.explain(q)
        got = forced.execute(q)
        want = plain.execute(q)
        # no equal keys: the order is unique
        assert got.column("k").tolist() == want.column("k").tolist()
        assert got.column("s").tolist() == want.column("s").tolist()
        assert handle.verify()

    def test_null_sits_where_sort_puts_it(self, ascending):
        forced, _, _ = sessions(ascending)
        s = forced.execute(self.query(ascending)).column("s").tolist()
        assert s == (["a", "b", "c", "d", None] if ascending else [None, "d", "c", "b", "a"])

    def test_insert_null_maintains_the_index(self, ascending):
        forced, plain, handle = sessions(ascending)
        forced.execute("INSERT INTO t (k, s) VALUES (5, NULL), (6, 'f')")
        forced.execute("INSERT INTO t (k, s) VALUES (7, NULL), (8, 'a')")
        assert handle.parts[0].index.num_rows == 9
        assert handle.verify()
        q = self.query(ascending)
        assert_same_order(forced.execute(q), plain.execute(q))


def test_null_boundary_keeps_later_values_out_of_the_run():
    # the kept run ends with NULL; a later 'e' sorts before it, so it
    # must become a patch rather than extend the run
    cat = Catalog()
    cat.register(
        Table.from_arrays(
            "t",
            {
                "k": np.arange(3, dtype=np.int64),
                "s": np.array(["a", "b", None], dtype=object),
            },
        )
    )
    manager = PatchIndexManager(cat)
    handle = manager.create(cat.table("t"), "s", NearlySortedColumn())
    assert handle.parts[0].index.num_patches == 0
    forced = SQLSession(cat, index_manager=manager, use_cost_model=False)
    forced.execute("INSERT INTO t (k, s) VALUES (3, 'e'), (4, NULL)")
    assert handle.parts[0].index.patch_rowids().tolist() == [3]
    assert handle.verify()
    q = "SELECT k, s FROM t ORDER BY s"
    assert_same_order(forced.execute(q), SQLSession(cat).execute(q))
