"""Property-based tests: the precedence-climbing expression parser
against the recursive-descent cascade it replaced.

``_Parser._parse_expr`` reads an expression with one loop over an
operator table.  The oracle is the six-level cascade (OR, AND, NOT,
comparison, additive, multiplicative) it replaced, kept here verbatim as
``_CascadeParser``: the statement parser's other methods reach it
through ``_parse_expr``, so both sides parse whole statements.

For every generated statement (a predicate and select items or SET
assignments, from AND/OR/NOT nesting, the seven comparison operators,
``IS [NOT] NULL``, ``IN (...)``, ``BETWEEN ... AND ...``, unary minus,
``* / % + -``, parentheses and CASE; a share of them edited by a
token to be malformed), both sides must build the same statement (the
same expression trees, plan nodes and column references with their
positions) or raise the same exception with the same message.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.expressions import Expression, col, is_null, lit, where
from repro.plan.nodes import PlanNode
from repro.sql.lexer import SQLSyntaxError, TokenKind, tokenize
from repro.sql.parser import _Parser


# ----------------------------------------------------------------------
# the oracle: the recursive-descent cascade, verbatim
# ----------------------------------------------------------------------
class _CascadeParser(_Parser):
    def _parse_expr(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        expr = self._parse_and()
        while self._keyword("OR"):
            expr = expr | self._parse_and()
        return expr

    def _parse_and(self) -> Expression:
        expr = self._parse_not()
        while self._keyword("AND"):
            expr = expr & self._parse_not()
        return expr

    def _parse_not(self) -> Expression:
        if self._keyword("NOT"):
            return ~self._parse_not()
        return self._parse_comparison()

    def _parse_comparison(self) -> Expression:
        expr = self._parse_additive()
        tok = self._peek()
        if tok.kind is TokenKind.OPERATOR and tok.value in ("=", "<>", "!=", "<", "<=", ">", ">="):
            self._advance()
            right = self._parse_additive()
            ops = {
                "=": lambda a, b: a == b,
                "<>": lambda a, b: a != b,
                "!=": lambda a, b: a != b,
                "<": lambda a, b: a < b,
                "<=": lambda a, b: a <= b,
                ">": lambda a, b: a > b,
                ">=": lambda a, b: a >= b,
            }
            return ops[tok.value](expr, right)
        if tok.matches(TokenKind.KEYWORD, "IS"):
            self._advance()
            negate = self._keyword("NOT")
            self._expect(TokenKind.KEYWORD, "NULL")
            return is_null(expr, negate)
        if tok.matches(TokenKind.KEYWORD, "IN"):
            self._advance()
            return expr.isin(self._parse_literal_list())
        if tok.matches(TokenKind.KEYWORD, "BETWEEN"):
            self._advance()
            lo = self._parse_additive()
            self._expect(TokenKind.KEYWORD, "AND")
            hi = self._parse_additive()
            return (expr >= lo) & (expr <= hi)
        return expr

    def _parse_additive(self) -> Expression:
        expr = self._parse_multiplicative()
        while True:
            if self._accept(TokenKind.OPERATOR, "+"):
                expr = expr + self._parse_multiplicative()
            elif self._accept(TokenKind.OPERATOR, "-"):
                expr = expr - self._parse_multiplicative()
            else:
                return expr

    def _parse_multiplicative(self) -> Expression:
        expr = self._parse_unary()
        while True:
            if self._accept(TokenKind.OPERATOR, "*"):
                expr = expr * self._parse_unary()
            elif self._accept(TokenKind.OPERATOR, "/"):
                expr = expr / self._parse_unary()
            elif self._accept(TokenKind.OPERATOR, "%"):
                expr = expr % self._parse_unary()
            else:
                return expr

    def _parse_unary(self) -> Expression:
        if self._accept(TokenKind.OPERATOR, "-"):
            tok = self._peek()
            if tok.kind is TokenKind.STRING:
                raise SQLSyntaxError(
                    f"cannot negate string literal {tok.value!r} "
                    f"at position {tok.position}"
                )
            if tok.matches(TokenKind.KEYWORD, "NULL"):
                raise SQLSyntaxError(f"cannot negate NULL at position {tok.position}")
            return lit(0) - self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        tok = self._peek()
        if tok.kind is TokenKind.NUMBER:
            self._advance()
            return lit(float(tok.value) if "." in tok.value else int(tok.value))
        if tok.kind is TokenKind.STRING:
            self._advance()
            return lit(tok.value)
        if tok.matches(TokenKind.KEYWORD, "NULL"):
            self._advance()
            return lit(None)
        if tok.kind is TokenKind.IDENT:
            return col(self._parse_column_ref())
        if tok.matches(TokenKind.PUNCT, "("):
            self._advance()
            inner = self._parse_expr()
            self._expect(TokenKind.PUNCT, ")")
            return inner
        if tok.matches(TokenKind.KEYWORD, "CASE"):
            self._advance()
            self._expect(TokenKind.KEYWORD, "WHEN")
            cond = self._parse_expr()
            self._expect(TokenKind.KEYWORD, "THEN")
            then = self._parse_expr()
            self._expect(TokenKind.KEYWORD, "ELSE")
            otherwise = self._parse_expr()
            self._expect(TokenKind.KEYWORD, "END")
            return where(cond, then, otherwise)
        raise SQLSyntaxError(f"unexpected token {tok.value!r} at {tok.position}")


# ----------------------------------------------------------------------
# both sides over one statement
# ----------------------------------------------------------------------
def _render(obj):
    """A comparable form of a parsed statement: plan nodes by their
    fields, expressions by their ``repr`` (which spells their structure)."""
    if isinstance(obj, PlanNode) or dataclasses.is_dataclass(obj):
        return type(obj).__name__, {k: _render(v) for k, v in vars(obj).items()}
    if isinstance(obj, dict):
        return {k: _render(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_render(v) for v in obj]
    return repr(obj)


def _outcome(parser, sql):
    try:
        tokens = tokenize(sql)
    except SQLSyntaxError as exc:  # both sides share the lexer
        return "lexer", str(exc)
    try:
        return _render(parser(tokens).parse())
    except Exception as exc:
        return type(exc).__name__, str(exc)


def assert_same_outcome(sql):
    new = _outcome(_Parser, sql)
    assert new == _outcome(_CascadeParser, sql), sql
    return new


# ----------------------------------------------------------------------
# generated statements
# ----------------------------------------------------------------------
COMPARISONS = ["=", "<>", "!=", "<", "<=", ">", ">="]
ARITHMETIC = ["*", "/", "%", "+", "-"]
COLUMNS = st.sampled_from(["a", "b", "c", "t.a", "x.b"])
NUMBERS = st.sampled_from(["0", "1", "7", "2.5", "007", ".5", "5."])
LITERALS = st.one_of(NUMBERS, st.sampled_from(["'x'", "''", "'a b'", "NULL", "-1", "- 2.5"]))


def _arith(children):
    """Arithmetic over smaller expressions, with unary minus and CASE."""
    return st.one_of(
        st.tuples(children, st.sampled_from(ARITHMETIC), children).map(" ".join),
        st.tuples(children, st.sampled_from(ARITHMETIC), children).map(" ".join),
        st.tuples(st.sampled_from(["-", "- "]), children).map("".join),
        children.map(lambda e: f"({e})"),
    )


#: leaves, mostly columns and numbers; a string or NULL leaf under unary
#: minus is malformed
LEAVES = st.one_of(COLUMNS, NUMBERS, COLUMNS, NUMBERS, LITERALS)
ARITH = st.recursive(LEAVES, _arith, max_leaves=6)


def _comparison():
    return st.one_of(
        st.tuples(ARITH, st.sampled_from(COMPARISONS), ARITH).map(" ".join),
        st.tuples(ARITH, st.sampled_from(["IS NULL", "IS NOT NULL", "is not null"])).map(
            " ".join
        ),
        st.tuples(ARITH, st.lists(LITERALS, min_size=1, max_size=3)).map(
            lambda t: f"{t[0]} IN ({', '.join(t[1])})"
        ),
        st.tuples(ARITH, ARITH, ARITH).map(lambda t: f"{t[0]} BETWEEN {t[1]} AND {t[2]}"),
        # comparisons do not chain: malformed
        st.tuples(ARITH, st.sampled_from(COMPARISONS + ["IS NULL"]), ARITH).map(
            lambda t: f"{t[0]} {t[1]} {t[2]} = {t[0]}"
        ),
    )


def _logic(children):
    return st.one_of(
        st.tuples(children, st.sampled_from(["AND", "OR", "and", "or"]), children).map(" ".join),
        children.map(lambda e: f"NOT {e}"),
        children.map(lambda e: f"({e})"),
        st.tuples(children, ARITH, ARITH).map(
            lambda t: f"CASE WHEN {t[0]} THEN {t[1]} ELSE {t[2]} END"
        ),
    )


PREDICATES = st.recursive(_comparison(), _logic, max_leaves=5)
ITEMS = st.one_of(ARITH, PREDICATES)
#: one token inserted: a stray operator, a dangling connective, a lone NOT
NOISE = [
    "AND", "OR", "NOT", "=", "<", "IS", "NULL", "IN", "BETWEEN", "(", ")", "-", "*", "+",
    "a", "1", "'x'", "CASE", "END", ",", "NOT NOT",
]


@st.composite
def statements(draw):
    """One statement around generated expressions; a third edited by one
    token (inserted, dropped or doubled) into something usually malformed."""
    predicate = draw(PREDICATES)
    shape = draw(st.sampled_from(["select", "aggregate", "update", "delete"]))
    if shape == "select":
        items = draw(st.lists(ITEMS, min_size=1, max_size=2))
        sql = f"SELECT {', '.join(f'{e} AS o{i}' for i, e in enumerate(items))} FROM t"
    elif shape == "aggregate":
        sql = f"SELECT SUM({draw(ARITH)}) AS s, COUNT(*) FROM t"
    elif shape == "update":
        sql = f"UPDATE t SET a = {draw(ITEMS)}, b = {draw(ARITH)}"
    else:
        sql = "DELETE FROM t"
    sql += f" WHERE {predicate}"
    if draw(st.integers(0, 2)) == 0:
        words = sql.split(" ")
        at = draw(st.integers(1, len(words) - 1))
        edit = draw(st.sampled_from(["insert", "drop", "double"]))
        if edit == "insert":
            words.insert(at, draw(st.sampled_from(NOISE)))
        elif edit == "drop":
            del words[at]
        else:
            words.insert(at, words[at])
        sql = " ".join(words)
    return sql


@settings(max_examples=1500, deadline=None)
@given(statements())
def test_climbing_builds_what_the_cascade_built(sql):
    assert_same_outcome(sql)


@pytest.mark.parametrize(
    "expr",
    [
        "a OR b AND c",
        "a AND b OR c AND NOT d",
        "NOT a = b AND c",
        "NOT NOT a",
        "a = b + c * d - e / f % g",
        "a - b - c",
        "a / b * c",
        "- a * b",
        "- - a",
        "a BETWEEN b AND c AND d",
        "a BETWEEN b + 1 AND c * 2 OR d",
        "NOT a BETWEEN 1 AND 2",
        "a IS NOT NULL AND b IS NULL",
        "a IN (1, 'x', NULL, -2.5) OR b IN (3)",
        "(a OR b) AND c",
        "CASE WHEN a = 1 THEN b ELSE c + 1 END = 2",
        "a + (b = c)",
    ],
)
def test_pinned_trees(expr):
    assert assert_same_outcome(f"UPDATE t SET a = {expr} WHERE {expr}")[0] == "UpdateStatement"


@pytest.mark.parametrize(
    "expr, message",
    [
        ("a = b = c", "expected eof, found '='"),
        ("a < b <> c", "expected eof, found '<>'"),
        ("a IS NULL = b", "expected eof, found '='"),
        ("NOT a = b = c", "expected eof, found '='"),
        ("a AND", "unexpected token ''"),
        ("a OR b AND", "unexpected token ''"),
        ("NOT", "unexpected token ''"),
        ("a AND NOT", "unexpected token ''"),
        ("a = NOT b", "unexpected token 'NOT'"),
        ("a + NOT b", "unexpected token 'NOT'"),
        ("- NOT a", "unexpected token 'NOT'"),
        ("- 'x'", "cannot negate string literal 'x'"),
        ("- NULL", "cannot negate NULL"),
        ("a BETWEEN 1 OR 2", "expected AND, found 'OR'"),
        ("a BETWEEN 1", "expected AND, found ''"),
        ("a BETWEEN b = c AND d", "expected AND, found '='"),
        ("a BETWEEN NOT b AND c", "unexpected token 'NOT'"),
        ("a BETWEEN 1 AND 2 = 3", "expected eof, found '='"),
        ("a IS NOT 1", "expected NULL, found '1'"),
        ("(a = b", "expected ), found ''"),
    ],
)
def test_malformed_expressions_raise_the_cascade_error(expr, message):
    kind, text = assert_same_outcome(f"DELETE FROM t WHERE {expr}")
    assert kind == "SQLSyntaxError" and text.startswith(message), text
