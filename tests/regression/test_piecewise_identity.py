"""Piecewise execution must be bit-identical to whole-table execution.

With a statement deadline armed, scans and DML predicates take their
piecewise, checkpointed path.  The differential corpus' SELECT section
and its seeded DML mix must produce byte-for-byte the same results that
way as without a deadline — at the production piece size and, because
the corpus tables are smaller than one production piece, with pieces
shrunk until every table is cut into many (pieces of 1, 2 and 8 rows
for the DML mix and the sort-order pins, 97 rows per corpus query:
prime, so pieces straddle minmax blocks and partition boundaries).
The descending-sort tie order, whose divergence the cross-engine
harness originally surfaced, is pinned too.
"""

import numpy as np
import pytest

from repro.sql import SQLSession
from repro.storage import Catalog, Table
from repro.testing import build_reference_catalog, default_corpus
from repro.testing.differential import random_dml_corpus

#: A deadline no statement reaches: it only arms the piecewise paths.
ARMED = dict(statement_timeout_ms=3_600_000)
#: Rows per piece for the per-query corpus identity.
CORPUS_PIECE_ROWS = 97
#: Rows per piece for the small DML and sort-order tables.
TINY_PIECES = [1, 2, 8]

CORPUS_SELECTS = [q for q in default_corpus(seed=7) if q.kind == "select"]


@pytest.fixture(scope="module")
def catalog():
    return build_reference_catalog(seed=0)


def assert_relations_identical(want, got, label):
    assert want.column_names == got.column_names, label
    for name in want.column_names:
        a, b = want.column(name), got.column(name)
        assert a.dtype == b.dtype, (label, name)
        if a.dtype.kind == "f":
            # NaN-aware exact equality (NaN is our FLOAT64 NULL)
            both_nan = np.isnan(a) & np.isnan(b)
            assert np.array_equal(a[~both_nan], b[~both_nan]), (label, name)
        else:
            np.testing.assert_array_equal(a, b, err_msg=f"{label} / {name}")


class TestSelectIdentity:
    def test_corpus_selects_bit_identical(self, catalog):
        plain, armed = SQLSession(catalog), SQLSession(catalog, **ARMED)
        for query in CORPUS_SELECTS:
            want = plain.execute(query.sql)
            got = armed.execute(query.sql)
            assert_relations_identical(want, got, query.qid)

    @pytest.mark.parametrize("query", CORPUS_SELECTS, ids=lambda q: q.qid)
    def test_corpus_select_identical_in_small_pieces(self, catalog, piece_rows, query):
        want = SQLSession(catalog).execute(query.sql)
        piece_rows(CORPUS_PIECE_ROWS)
        got = SQLSession(catalog, **ARMED).execute(query.sql)
        assert_relations_identical(want, got, query.qid)


class TestDmlIdentity:
    @pytest.mark.parametrize("rows", TINY_PIECES)
    def test_dml_mix_bit_identical(self, piece_rows, rows):
        piece_rows(rows)
        mix = random_dml_corpus(seed=11, rounds=8)
        plain_cat = build_reference_catalog(seed=0)
        armed_cat = build_reference_catalog(seed=0)
        plain, armed = SQLSession(plain_cat), SQLSession(armed_cat, **ARMED)
        for query in mix:
            want_count = plain.execute(query.sql)
            got_count = armed.execute(query.sql)
            assert int(want_count) == int(got_count), query.qid
        a = plain_cat.table("events")
        b = armed_cat.table("events")
        assert a.num_rows == b.num_rows
        for name in a.schema.names:
            np.testing.assert_array_equal(a.column(name), b.column(name), err_msg=name)


class TestDescendingTieOrder:
    """The bug the harness caught: ``ORDER BY k DESC, name`` must keep
    the secondary key ASCENDING inside equal primary keys — the old
    whole-permutation reversal flipped it."""

    def _catalog(self):
        cat = Catalog()
        cat.register(
            Table.from_arrays(
                "scores",
                {
                    "sid": np.arange(8, dtype=np.int64),
                    "grp": np.array([1, 1, 1, 2, 2, 2, 2, 1], dtype=np.int64),
                    "name": np.array(list("dacbdacb"), dtype=object),
                },
            )
        )
        return cat

    @pytest.mark.parametrize("rows", TINY_PIECES)
    def test_desc_tie_order_identical_in_pieces(self, piece_rows, rows):
        cat = self._catalog()
        sql = "SELECT sid, grp, name FROM scores ORDER BY grp DESC, name"
        want = SQLSession(cat).execute(sql)
        piece_rows(rows)
        got = SQLSession(cat, **ARMED).execute(sql)
        assert_relations_identical(want, got, sql)
        assert got.column("sid").tolist() == [5, 3, 6, 4, 1, 7, 2, 0]

    def test_secondary_key_stays_ascending_within_desc_ties(self):
        s = SQLSession(self._catalog())
        rel = s.execute("SELECT grp, name FROM scores ORDER BY grp DESC, name")
        assert rel.column("grp").tolist() == [2, 2, 2, 2, 1, 1, 1, 1]
        assert rel.column("name").tolist() == ["a", "b", "c", "d", "a", "b", "c", "d"]

    def test_full_row_ties_keep_original_order_descending(self):
        s = SQLSession(self._catalog())
        rel = s.execute("SELECT sid FROM scores WHERE grp = 2 ORDER BY grp DESC")
        # all four rows tie on the sort key: original row order survives
        assert rel.column("sid").tolist() == [3, 4, 5, 6]
