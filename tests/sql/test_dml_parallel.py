"""Morsel-parallel DML: parallel UPDATE/DELETE must be bit-identical.

The session evaluates UPDATE/DELETE predicates per morsel on the shared
execution context (see :meth:`repro.sql.session.SQLSession.
_predicate_rowids`).  This suite pins the bit-identity contract over
``parallelism`` in {1, 2, 8}: matched rowids, post-DML table state on
TPC-H and randomized workloads, plus the satellite guarantees — only
predicate/assignment-referenced columns are materialized, and the
``parallelism`` knobs reject invalid input.
"""

import numpy as np
import pytest

from repro.engine.parallel import ExecutionContext, validate_parallelism
from repro.sql.parser import parse_statement
from repro.sql.session import SQLSession
from repro.storage import Catalog, Table
from repro.storage.table import Table as StorageTable
from repro.workloads import generate_tpch

PARALLELISMS = [1, 2, 8]
#: Tiny morsels force many parallel tasks even on test-sized tables.
MORSEL_ROWS = 1024


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


def session_for(catalog: Catalog, parallelism: int) -> SQLSession:
    return SQLSession(catalog, parallelism=parallelism, morsel_rows=MORSEL_ROWS)


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


class TestMatchedRowidEquivalence:
    @pytest.mark.parametrize("parallelism", PARALLELISMS)
    def test_predicate_rowids_match_serial(self, parallelism):
        catalog = make_random_catalog()
        table = catalog.table("events")
        stmt = parse_statement("DELETE FROM events WHERE val > 0.5")
        serial = SQLSession(catalog)
        want = serial._predicate_rowids(table, stmt.predicate)
        with session_for(catalog, parallelism) as session:
            got = session._predicate_rowids(table, stmt.predicate)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)

    def test_rowids_sorted_and_unique_under_parallelism(self):
        catalog = make_random_catalog(seed=9)
        table = catalog.table("events")
        stmt = parse_statement("DELETE FROM events WHERE grp >= 50")
        with session_for(catalog, 8) as session:
            rowids = session._predicate_rowids(table, stmt.predicate)
        assert np.all(np.diff(rowids) > 0)

    def test_column_free_predicate(self):
        catalog = make_random_catalog(seed=2, n=2000)
        table = catalog.table("events")
        with session_for(catalog, 2) as session:
            none_match = session._predicate_rowids(
                table, parse_statement("DELETE FROM events WHERE 1 = 0").predicate
            )
            all_match = session._predicate_rowids(
                table, parse_statement("DELETE FROM events WHERE 1 = 1").predicate
            )
        assert none_match.size == 0
        np.testing.assert_array_equal(all_match, table.rowids())

    def test_unknown_predicate_column_is_clear_error(self):
        catalog = make_random_catalog(seed=3, n=100)
        with session_for(catalog, 2) as session:
            with pytest.raises(KeyError):
                session.execute("DELETE FROM events WHERE nosuch > 1")


class TestDMLStateEquivalence:
    @pytest.mark.parametrize("parallelism", PARALLELISMS)
    def test_randomized_workload(self, parallelism):
        serial_catalog = make_random_catalog(seed=1)
        parallel_catalog = make_random_catalog(seed=1)
        serial = SQLSession(serial_catalog)
        with session_for(parallel_catalog, parallelism) as parallel:
            for sql in RANDOM_STATEMENTS:
                assert serial.execute(sql) == parallel.execute(sql), sql
                assert_tables_identical(
                    serial_catalog.table("events"), parallel_catalog.table("events")
                )

    @pytest.mark.parametrize("parallelism", PARALLELISMS)
    def test_tpch_workload(self, parallelism):
        serial_catalog = make_tpch_catalog()
        parallel_catalog = make_tpch_catalog()
        serial = SQLSession(serial_catalog)
        with session_for(parallel_catalog, parallelism) as parallel:
            for sql in TPCH_STATEMENTS:
                assert serial.execute(sql) == parallel.execute(sql), sql
        for name in ("lineitem", "orders"):
            assert_tables_identical(
                serial_catalog.table(name), parallel_catalog.table(name)
            )

    def test_set_parallelism_midstream_dml(self):
        a = make_random_catalog(seed=4)
        b = make_random_catalog(seed=4)
        serial = SQLSession(a)
        with SQLSession(b, morsel_rows=MORSEL_ROWS) as switching:
            for i, sql in enumerate(RANDOM_STATEMENTS):
                switching.execute(f"SET parallelism = {1 + (i % 2) * 7}")
                assert serial.execute(sql) == switching.execute(sql), sql
        assert_tables_identical(a.table("events"), b.table("events"))


class TestReferencedColumnsOnly:
    """Satellite: DML must not materialize columns it does not touch."""

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
        catalog = make_random_catalog(seed=6, n=5000)
        session = SQLSession(catalog)
        spied_column.clear()
        session.execute("DELETE FROM events WHERE grp > 90")
        assert set(spied_column) == {"grp"}

    def test_update_reads_only_referenced_columns(self, spied_column):
        catalog = make_random_catalog(seed=6, n=5000)
        session = SQLSession(catalog)
        spied_column.clear()
        session.execute("UPDATE events SET val = val + 1 WHERE grp > 90")
        assert set(spied_column) == {"grp", "val"}
        assert "payload" not in spied_column and "eid" not in spied_column

    def test_literal_update_reads_only_predicate_columns(self, spied_column):
        catalog = make_random_catalog(seed=6, n=5000)
        session = SQLSession(catalog)
        spied_column.clear()
        session.execute("UPDATE events SET val = 0 WHERE grp > 90")
        assert set(spied_column) == {"grp"}

    def test_parallel_path_reads_only_predicate_columns(self, spied_column):
        catalog = make_random_catalog(seed=6)
        with session_for(catalog, 4) as session:
            spied_column.clear()
            session.execute("DELETE FROM events WHERE grp > 90")
        assert set(spied_column) == {"grp"}


class TestParallelismValidation:
    """Satellite: SET / constructor parallelism inputs are validated."""

    def test_validate_parallelism_contract(self):
        assert validate_parallelism(3) == 3
        assert validate_parallelism(np.int64(2)) == 2
        for bad in (0, -1, -8):
            with pytest.raises(ValueError):
                validate_parallelism(bad)
        for bad in (2.5, 1.0, "4", None, True, False):
            with pytest.raises(TypeError):
                validate_parallelism(bad)

    def test_set_statement_rejects_invalid_values(self):
        catalog = make_random_catalog(seed=7, n=100)
        session = SQLSession(catalog)
        with pytest.raises(ValueError):
            session.execute("SET parallelism = 0")
        with pytest.raises(ValueError):
            session.execute("SET parallelism = -3")
        with pytest.raises(TypeError):
            session.execute("SET parallelism = 2.5")
        with pytest.raises(TypeError):
            session.execute("SET parallelism = many")
        assert session.parallelism == 1  # knob untouched by failed SETs

    def test_constructor_rejects_invalid_values(self):
        catalog = make_random_catalog(seed=7, n=100)
        with pytest.raises(ValueError):
            SQLSession(catalog, parallelism=0)
        with pytest.raises(TypeError):
            SQLSession(catalog, parallelism=1.5)
        with pytest.raises(ValueError):
            ExecutionContext(parallelism=-2)
        with pytest.raises(TypeError):
            ExecutionContext(parallelism="8")


class TestDMLCostModel:
    def test_parallel_dml_scan_is_cheaper_at_scale(self):
        from repro.plan.cost import CostModel

        catalog = make_random_catalog(seed=8, n=100)
        serial = CostModel(catalog, parallelism=1)
        parallel = CostModel(catalog, parallelism=8)
        rows = 4_000_000
        assert parallel.dml_scan_cost(rows) < serial.dml_scan_cost(rows)
        # tiny statements stay serial: no phantom dispatch overhead
        assert parallel.dml_scan_cost(100) == serial.dml_scan_cost(100)

    def test_payoff_respects_morsel_size(self):
        from repro.plan.cost import CostModel

        catalog = make_random_catalog(seed=8, n=100)
        serial = CostModel(catalog, parallelism=1)
        assert not serial.dml_parallel_payoff(10_000_000)
        parallel = CostModel(catalog, parallelism=8)
        assert parallel.dml_parallel_payoff(4_000_000)
        # sub-morsel inputs cannot fan out, so there is no payoff ...
        assert not parallel.dml_parallel_payoff(30_000)
        # ... unless the morsel size shrinks with the session knob
        small = CostModel(catalog, parallelism=8, morsel_rows=1024)
        assert small.dml_parallel_payoff(30_000)

    def test_session_consults_cost_model_for_dml(self):
        catalog = make_random_catalog(seed=8, n=50_000)
        with session_for(catalog, 8) as session:
            model = session._dml_cost_model
            assert model.parallelism == 8
            assert model.morsel_rows == MORSEL_ROWS
            assert model.dml_parallel_payoff(50_000, 1)
        serial = SQLSession(catalog)
        assert not serial._dml_cost_model.dml_parallel_payoff(50_000, 1)
