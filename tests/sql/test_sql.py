"""Tests for the SQL front-end."""

import asyncio

import numpy as np
import pytest

from repro.core import NearlySortedColumn, NearlyUniqueColumn, PatchIndexManager
from repro.sql import AsyncSQLSession, SQLSession, parse_statement, tokenize
from repro.sql.lexer import SQLSyntaxError, TokenKind
from repro.sql.parser import (
    DeleteStatement,
    InsertStatement,
    SelectStatement,
    SetStatement,
    UpdateStatement,
)
from repro.storage import Catalog, Table


@pytest.fixture
def session():
    users = Table.from_arrays(
        "users",
        {
            "uid": np.arange(10, dtype=np.int64),
            "age": np.array([30, 25, 30, 40, 25, 35, 20, 45, 50, 30]),
            "city": np.array(["a", "b", "a", "c", "b", "a", "d", "c", "a", "b"], dtype=object),
        },
    )
    orders = Table.from_arrays(
        "orders",
        {
            "oid": np.arange(6, dtype=np.int64),
            "uid_fk": np.array([0, 0, 1, 3, 3, 9], dtype=np.int64),
            "amount": np.array([10.0, 20.0, 5.0, 7.5, 2.5, 100.0]),
        },
    )
    catalog = Catalog()
    catalog.register(users)
    catalog.register(orders)
    return SQLSession(catalog)


class TestLexer:
    def test_tokenizes_keywords_idents_numbers(self):
        toks = tokenize("SELECT x FROM t WHERE y >= 1.5")
        kinds = [t.kind for t in toks]
        assert kinds[0] is TokenKind.KEYWORD
        assert toks[1].value == "x"
        assert toks[-2].value == "1.5"
        assert kinds[-1] is TokenKind.EOF

    def test_string_literals(self):
        toks = tokenize("SELECT 'hello world'")
        assert toks[1].kind is TokenKind.STRING
        assert toks[1].value == "hello world"

    def test_unterminated_string(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT 'oops")

    def test_unexpected_character(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT @")

    def test_two_char_operators(self):
        toks = tokenize("a <> b <= c >= d")
        ops = [t.value for t in toks if t.kind is TokenKind.OPERATOR]
        assert ops == ["<>", "<=", ">="]


class TestParser:
    def test_simple_select(self):
        stmt = parse_statement("SELECT age FROM users")
        assert isinstance(stmt, SelectStatement)
        assert stmt.tables == ["users"]

    def test_insert(self):
        stmt = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert isinstance(stmt, InsertStatement)
        assert stmt.columns == ["a", "b"]
        # the same values the row-shaped statement held as [[1, "x"], [2, "y"]]
        assert [stmt.values(0), stmt.values(1)] == [[1, 2], ["x", "y"]]
        assert stmt.texts == [["1", "2"], ["x", "y"]] and stmt.kinds == ["II", "SS"]

    def test_insert_arity_mismatch(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("INSERT INTO t (a, b) VALUES (1)")

    def test_update(self):
        stmt = parse_statement("UPDATE t SET a = 5 WHERE b < 3")
        assert isinstance(stmt, UpdateStatement)
        assert "a" in stmt.assignments

    def test_delete(self):
        stmt = parse_statement("DELETE FROM t WHERE a = 1")
        assert isinstance(stmt, DeleteStatement)

    def test_garbage_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("FROB THE KNOB")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("SELECT a FROM t extra nonsense")

    def test_non_grouped_select_item_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_statement("SELECT age, SUM(uid) FROM users GROUP BY city")


class TestSelectExecution:
    def test_select_star(self, session):
        out = session.execute("SELECT * FROM users")
        assert out.num_rows == 10
        assert "age" in out.column_names

    def test_where(self, session):
        out = session.execute("SELECT uid FROM users WHERE age > 35")
        assert sorted(out.column("uid").tolist()) == [3, 7, 8]

    def test_where_string_and_boolean_ops(self, session):
        out = session.execute(
            "SELECT uid FROM users WHERE city = 'a' AND NOT age = 30"
        )
        assert sorted(out.column("uid").tolist()) == [5, 8]

    def test_in_and_between(self, session):
        out = session.execute(
            "SELECT uid FROM users WHERE city IN ('c', 'd') AND age BETWEEN 20 AND 44"
        )
        assert sorted(out.column("uid").tolist()) == [3, 6]

    def test_distinct(self, session):
        out = session.execute("SELECT DISTINCT age FROM users")
        assert sorted(out.column("age").tolist()) == [20, 25, 30, 35, 40, 45, 50]

    def test_order_by_desc_limit(self, session):
        out = session.execute("SELECT uid FROM users ORDER BY age DESC LIMIT 2")
        assert out.column("uid").tolist() == [8, 7]

    def test_group_by_aggregates(self, session):
        out = session.execute(
            "SELECT city, COUNT(*) AS n, AVG(age) AS a FROM users "
            "GROUP BY city ORDER BY city"
        )
        assert out.column("city").tolist() == ["a", "b", "c", "d"]
        assert out.column("n").tolist() == [4, 3, 2, 1]

    def test_join(self, session):
        out = session.execute(
            "SELECT uid, amount FROM users JOIN orders ON uid = uid_fk "
            "WHERE amount > 6 ORDER BY amount"
        )
        assert out.column("amount").tolist() == [7.5, 10.0, 20.0, 100.0]

    def test_computed_projection(self, session):
        out = session.execute("SELECT age * 2 AS dbl FROM users WHERE uid = 0")
        assert out.column("dbl").tolist() == [60]

    def test_case_expression(self, session):
        out = session.execute(
            "SELECT SUM(CASE WHEN age >= 30 THEN 1 ELSE 0 END) AS older "
            "FROM users"
        )
        assert out.column("older").tolist() == [7]

    def test_global_aggregate(self, session):
        out = session.execute("SELECT SUM(amount) AS total FROM orders")
        assert out.column("total")[0] == pytest.approx(145.0)


class TestExplain:
    def test_explain_renders_plan_nodes(self, session):
        text = session.explain(
            "SELECT uid FROM users WHERE age > 35 ORDER BY age DESC LIMIT 2"
        )
        assert "Scan(users" in text
        assert "Sort" in text
        assert "Limit(2)" in text

    def test_explain_join_plan(self, session):
        text = session.explain("SELECT uid, amount FROM users JOIN orders ON uid = uid_fk")
        assert "Join[build=auto](uid=uid_fk)" in text
        assert "Scan(orders" in text

    def test_explain_without_optimizer_is_raw_plan(self, session):
        assert session.optimizer is None
        text = session.explain("SELECT DISTINCT age FROM users")
        assert "Distinct" in text
        assert "PatchScan" not in text

    def test_explain_rejects_dml_without_optimizer(self, session):
        with pytest.raises(ValueError):
            session.explain("INSERT INTO users (uid, age, city) VALUES (99, 1, 'q')")
        with pytest.raises(ValueError):
            session.explain("UPDATE users SET age = 1")


class TestPredicateRowids:
    def test_no_predicate_returns_all_rowids(self, session):
        table = session.catalog.table("users")
        rowids = session._predicate_rowids(table, None)
        assert rowids.tolist() == list(range(10))

    def test_predicate_selects_matching_rowids(self, session):
        table = session.catalog.table("users")
        stmt = parse_statement("DELETE FROM users WHERE age > 35")
        rowids = session._predicate_rowids(table, stmt.predicate)
        assert rowids.dtype == np.int64
        assert rowids.tolist() == [3, 7, 8]

    def test_predicate_no_match_is_empty(self, session):
        table = session.catalog.table("users")
        stmt = parse_statement("DELETE FROM users WHERE age > 1000")
        assert session._predicate_rowids(table, stmt.predicate).tolist() == []

    def test_rowids_reflect_prior_deletes(self, session):
        # positional rowIDs shift after a delete; the next statement's
        # predicate must be evaluated against the post-delete image
        session.execute("DELETE FROM users WHERE uid = 0")
        table = session.catalog.table("users")
        stmt = parse_statement("DELETE FROM users WHERE age = 25")
        assert session._predicate_rowids(table, stmt.predicate).tolist() == [0, 3]


class TestSetStatement:
    def test_set_statement_parsed(self):
        stmt = parse_statement("SET statement_timeout_ms = 4")
        assert isinstance(stmt, SetStatement)
        assert stmt.name == "statement_timeout_ms"
        assert stmt.value == 4

    def test_unknown_setting_rejected(self, session):
        with pytest.raises(ValueError):
            session.execute("SET frobnication = 7")


class TestNoParallelismKnob:
    """Execution is serial: the setting and its constructor knobs are gone."""

    def test_set_parallelism_is_unknown(self, session):
        with pytest.raises(ValueError, match="unknown session setting"):
            session.execute("SET parallelism = 2")
        assert not hasattr(session, "parallelism")

    @pytest.mark.parametrize("name", ["parallelism", "morsel_rows", "context"])
    def test_constructor_knobs_rejected(self, name):
        with pytest.raises(TypeError):
            SQLSession(Catalog(), **{name: 2})

    def test_async_session_rejects_the_setting(self):
        async def scenario():
            async with AsyncSQLSession(SQLSession(Catalog())) as db:
                with pytest.raises(ValueError, match="unknown session setting"):
                    await db.execute("SET parallelism = 2")
                assert not hasattr(db, "parallelism")
                assert await db.execute("SET statement_timeout_ms = 5") == 5

        asyncio.run(asyncio.wait_for(scenario(), 60.0))

    @pytest.mark.parametrize("name", ["parallelism", "morsel_rows", "stall_timeout_s"])
    def test_async_constructor_knobs_rejected(self, name):
        with pytest.raises(TypeError):
            AsyncSQLSession(SQLSession(Catalog()), **{name: 2})


class TestDMLExecution:
    def test_insert_then_select(self, session):
        n = session.execute("INSERT INTO users (uid, age, city) VALUES (10, 33, 'e')")
        assert n == 1
        out = session.execute("SELECT age FROM users WHERE uid = 10")
        assert out.column("age").tolist() == [33]

    def test_insert_missing_columns_rejected(self, session):
        with pytest.raises(ValueError):
            session.execute("INSERT INTO users (uid) VALUES (11)")

    def test_update(self, session):
        n = session.execute("UPDATE users SET age = age + 1 WHERE city = 'a'")
        assert n == 4
        out = session.execute("SELECT age FROM users WHERE uid = 0")
        assert out.column("age").tolist() == [31]

    def test_update_no_match(self, session):
        assert session.execute("UPDATE users SET age = 1 WHERE uid = 999") == 0

    def test_delete(self, session):
        n = session.execute("DELETE FROM users WHERE age >= 45")
        assert n == 2
        assert session.execute("SELECT * FROM users").num_rows == 8

    def test_delete_all(self, session):
        assert session.execute("DELETE FROM orders") == 6


class TestPatchIndexIntegration:
    @pytest.fixture
    def pi_session(self):
        n = 3000
        values = np.arange(n, dtype=np.int64) + n
        values[::100] = 7  # shared value -> patches
        t = Table.from_arrays("events", {"eid": np.arange(n), "val": values})
        catalog = Catalog()
        catalog.register(t)
        mgr = PatchIndexManager(catalog)
        mgr.create(t, "val", NearlyUniqueColumn())
        return SQLSession(catalog, index_manager=mgr, use_cost_model=False)

    def test_distinct_query_uses_patchindex(self, pi_session):
        plan_text = pi_session.explain("SELECT DISTINCT val FROM events")
        assert "PatchScan" in plan_text

    def test_distinct_result_correct(self, pi_session):
        out = pi_session.execute("SELECT DISTINCT val FROM events")
        assert out.num_rows == 3000 - 30 + 1  # 30 rows collapsed into value 7

    def test_sql_update_maintains_index(self, pi_session):
        pi_session.execute("INSERT INTO events (eid, val) VALUES (3000, 7)")
        out = pi_session.execute("SELECT DISTINCT val FROM events")
        assert out.num_rows == 3000 - 30 + 1  # still one group for value 7

    def test_explain_rejects_dml(self, pi_session):
        with pytest.raises(ValueError):
            pi_session.explain("DELETE FROM events")

    def test_sort_query_uses_patchindex(self):
        n = 2000
        vals = np.arange(n, dtype=np.int64)
        vals[[100, 900]] = 0
        t = Table.from_arrays("logs", {"ts": vals, "lid": np.arange(n)})
        catalog = Catalog()
        catalog.register(t)
        mgr = PatchIndexManager(catalog)
        mgr.create(t, "ts", NearlySortedColumn())
        session = SQLSession(catalog, index_manager=mgr, use_cost_model=False)
        plan_text = session.explain("SELECT * FROM logs ORDER BY ts")
        assert "MergeCombine" in plan_text
        out = session.execute("SELECT * FROM logs ORDER BY ts")
        ts = out.column("ts")
        assert bool(np.all(ts[1:] >= ts[:-1]))
