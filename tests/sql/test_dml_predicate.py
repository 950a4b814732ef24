"""UPDATE/DELETE predicate scans: matched rowids and the columns they read.

The session evaluates a DML predicate over the columns it references
only (see :meth:`repro.sql.session.SQLSession._predicate_rowids`).
While a cancellation token is armed the predicate runs in
``CHECKPOINT_ROWS`` chunks; the concatenated chunk rowids must equal
one whole-table pass, and a statement mix run that way must leave
TPC-H and randomized tables bit-identical to the unarmed run — at the
production chunk size and at chunk sizes that cut the test tables into
dozens of chunks (boundaries unaligned with anything).
"""

import numpy as np
import pytest

from repro.engine.interrupt import CHECKPOINT_ROWS, CancellationToken, cancellation_scope
from repro.sql.parser import parse_statement
from repro.sql.session import SQLSession
from repro.storage import Catalog, Table
from repro.storage.table import Table as StorageTable
from repro.workloads import generate_tpch

#: Chunk sizes for the armed DML passes: many chunks, few, one ragged pair.
CHUNK_ROWS = [1_000, 4_096, 30_000]
#: A deadline no statement reaches: it only arms the chunked passes.
ARMED = dict(statement_timeout_ms=3_600_000)


def make_random_catalog(seed: int = 0, n: int = 50_000) -> Catalog:
    rng = np.random.default_rng(seed)
    table = Table.from_arrays(
        "events",
        {
            "eid": np.arange(n, dtype=np.int64),
            "grp": rng.integers(0, 97, n).astype(np.int64),
            "val": rng.random(n),
            "payload": rng.integers(0, 1 << 40, n).astype(np.int64),
        },
    )
    catalog = Catalog()
    catalog.register(table)
    return catalog


def make_tpch_catalog() -> Catalog:
    data = generate_tpch(scale=0.002, seed=5)
    catalog = Catalog()
    for table in (data.orders, data.lineitem):
        catalog.register(table)
    return catalog


def assert_tables_identical(a: Table, b: Table) -> None:
    assert a.num_rows == b.num_rows
    for name in a.schema.names:
        x, y = a.column(name), b.column(name)
        assert x.dtype == y.dtype, name
        np.testing.assert_array_equal(x, y, err_msg=name)


RANDOM_STATEMENTS = [
    "UPDATE events SET val = val * 2 WHERE grp < 30",
    "UPDATE events SET grp = grp + 1, val = val / 2 WHERE val > 0.75",
    "DELETE FROM events WHERE grp % 7 = 3",
    "UPDATE events SET payload = 0 WHERE eid % 11 = 0",
    "DELETE FROM events WHERE val < 0.05",
]

TPCH_STATEMENTS = [
    "UPDATE lineitem SET l_extendedprice = l_extendedprice * 1.05 WHERE l_discount > 0.04",
    "DELETE FROM lineitem WHERE l_shipdate > l_receiptdate",
    "UPDATE orders SET o_shippriority = 1 WHERE o_orderdate < 2500",
    "DELETE FROM orders WHERE o_orderkey % 13 = 0",
]


class TestMatchedRowids:
    @pytest.mark.parametrize("chunk_rows", CHUNK_ROWS)
    def test_predicate_rowids_match_whole_pass(self, piece_rows, chunk_rows):
        catalog = make_random_catalog()
        table = catalog.table("events")
        predicate = parse_statement("DELETE FROM events WHERE val > 0.5").predicate
        session = SQLSession(catalog)
        want = session._predicate_rowids(table, predicate)
        piece_rows(chunk_rows)
        with cancellation_scope(CancellationToken(timeout_ms=3_600_000)):
            got = session._predicate_rowids(table, predicate)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)

    def test_rowids_sorted_and_unique(self):
        catalog = make_random_catalog()
        table = catalog.table("events")
        stmt = parse_statement("DELETE FROM events WHERE grp >= 50")
        rowids = SQLSession(catalog)._predicate_rowids(table, stmt.predicate)
        assert np.all(np.diff(rowids) > 0)

    def test_chunked_pass_under_a_token_matches_whole_pass(self):
        catalog = make_random_catalog(seed=1, n=2 * CHECKPOINT_ROWS + 123)
        table = catalog.table("events")
        session = SQLSession(catalog)
        for sql in (
            "DELETE FROM events WHERE grp % 7 = 3",
            "DELETE FROM events WHERE val > 0.75 AND grp < 30",
        ):
            predicate = parse_statement(sql).predicate
            whole = session._predicate_rowids(table, predicate)
            with cancellation_scope(CancellationToken(timeout_ms=3_600_000)):
                chunked = session._predicate_rowids(table, predicate)
            assert chunked.dtype == whole.dtype
            np.testing.assert_array_equal(chunked, whole, err_msg=sql)

    def test_column_free_predicate(self):
        catalog = make_random_catalog(seed=2, n=2000)
        table = catalog.table("events")
        session = SQLSession(catalog)
        none_match = session._predicate_rowids(
            table, parse_statement("DELETE FROM events WHERE 1 = 0").predicate
        )
        all_match = session._predicate_rowids(
            table, parse_statement("DELETE FROM events WHERE 1 = 1").predicate
        )
        assert none_match.size == 0
        np.testing.assert_array_equal(all_match, table.rowids())

    def test_unknown_predicate_column_is_clear_error(self):
        session = SQLSession(make_random_catalog(seed=3, n=100))
        with pytest.raises(KeyError):
            session.execute("DELETE FROM events WHERE nosuch > 1")


class TestChunkedDMLState:
    @pytest.mark.parametrize("chunk_rows", CHUNK_ROWS)
    def test_randomized_workload(self, piece_rows, chunk_rows):
        piece_rows(chunk_rows)
        plain_catalog, armed_catalog = make_random_catalog(seed=1), make_random_catalog(seed=1)
        plain, armed = SQLSession(plain_catalog), SQLSession(armed_catalog, **ARMED)
        for sql in RANDOM_STATEMENTS:
            assert plain.execute(sql) == armed.execute(sql), sql
            assert_tables_identical(plain_catalog.table("events"), armed_catalog.table("events"))

    @pytest.mark.parametrize("chunk_rows", CHUNK_ROWS)
    def test_tpch_workload(self, piece_rows, chunk_rows):
        piece_rows(chunk_rows)
        plain_catalog, armed_catalog = make_tpch_catalog(), make_tpch_catalog()
        plain, armed = SQLSession(plain_catalog), SQLSession(armed_catalog, **ARMED)
        for sql in TPCH_STATEMENTS:
            assert plain.execute(sql) == armed.execute(sql), sql
        for name in ("lineitem", "orders"):
            assert_tables_identical(plain_catalog.table(name), armed_catalog.table(name))


class TestReferencedColumnsOnly:
    """DML must not materialize columns it does not touch."""

    @pytest.fixture()
    def spied_column(self, monkeypatch):
        calls = []
        original = StorageTable.column

        def spy(self, name):
            calls.append(name)
            return original(self, name)

        monkeypatch.setattr(StorageTable, "column", spy)
        return calls

    def test_delete_reads_only_predicate_columns(self, spied_column):
        session = SQLSession(make_random_catalog(seed=6, n=5000))
        spied_column.clear()
        session.execute("DELETE FROM events WHERE grp > 90")
        assert set(spied_column) == {"grp"}

    def test_update_reads_only_referenced_columns(self, spied_column):
        session = SQLSession(make_random_catalog(seed=6, n=5000))
        spied_column.clear()
        session.execute("UPDATE events SET val = val + 1 WHERE grp > 90")
        assert set(spied_column) == {"grp", "val"}
        assert "payload" not in spied_column and "eid" not in spied_column

    def test_literal_update_reads_only_predicate_columns(self, spied_column):
        session = SQLSession(make_random_catalog(seed=6, n=5000))
        spied_column.clear()
        session.execute("UPDATE events SET val = 0 WHERE grp > 90")
        assert set(spied_column) == {"grp"}

    def test_chunked_pass_reads_only_predicate_columns(self, spied_column, piece_rows):
        piece_rows(1_000)
        session = SQLSession(make_random_catalog(seed=6, n=5000), **ARMED)
        spied_column.clear()
        session.execute("DELETE FROM events WHERE grp > 90")
        assert set(spied_column) == {"grp"}
