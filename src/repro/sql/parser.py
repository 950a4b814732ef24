"""Recursive-descent SQL parser lowering onto logical plans.

The engine resolves columns by bare name, so column names must be
unique across joined tables (the TPC-H style this repo uses
throughout).  Qualified references like ``l.l_orderkey`` keep their
qualifier in the parsed statement's ``column_refs``; the binder
(:mod:`repro.sql.binder`) validates them against the catalog at
prepare time and raises typed errors for ambiguous or unresolvable
references instead of silently resolving to whichever side wins.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple, Union

from repro.engine.expressions import Expression, col, is_null, lit, where
from repro.plan import nodes
from repro.sql.lexer import SQLSyntaxError, Token, TokenKind, tokenize

__all__ = [
    "parse_statement",
    "ColumnRefInfo",
    "SelectStatement",
    "InsertStatement",
    "UpdateStatement",
    "DeleteStatement",
    "SetStatement",
]

AGG_FUNCS = {"SUM": "sum", "COUNT": "count", "MIN": "min", "MAX": "max", "AVG": "avg"}


@dataclasses.dataclass(frozen=True)
class ColumnRefInfo:
    """One column reference as written: optional qualifier + column.

    ``position`` is the character offset of the reference in the
    statement text, for error messages.
    """

    qualifier: Optional[str]
    column: str
    position: int


@dataclasses.dataclass
class SelectStatement:
    """A parsed SELECT, lowered to a logical plan.

    ``sources`` maps each FROM range variable (the alias when one is
    given, else the table name) to its table; ``column_refs`` lists
    every column reference as written (qualifiers preserved);
    ``derived_names`` are select-list outputs that introduce NEW names
    (explicit aliases, aggregate/expression defaults) — ORDER BY may
    legally reference these.  A bare passthrough column is deliberately
    excluded: its output name cannot excuse the reference it came from.
    """

    plan: nodes.PlanNode
    tables: List[str]
    sources: Dict[str, str] = dataclasses.field(default_factory=dict)
    column_refs: List[ColumnRefInfo] = dataclasses.field(default_factory=list)
    derived_names: List[str] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class InsertStatement:
    """A parsed ``INSERT INTO ... VALUES`` with literal rows."""

    table: str
    columns: List[str]
    rows: List[List[object]]


@dataclasses.dataclass
class UpdateStatement:
    """A parsed ``UPDATE ... SET`` with an optional predicate."""

    table: str
    assignments: Dict[str, Expression]
    predicate: Optional[Expression]
    column_refs: List[ColumnRefInfo] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class DeleteStatement:
    """A parsed ``DELETE FROM`` with an optional predicate."""

    table: str
    predicate: Optional[Expression]
    column_refs: List[ColumnRefInfo] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class SetStatement:
    """``SET <name> = <value>`` — a session configuration knob."""

    name: str
    value: object


Statement = Union[
    SelectStatement, InsertStatement, UpdateStatement, DeleteStatement, SetStatement
]


def parse_statement(sql: str) -> Statement:
    """Parse one SQL statement."""
    return _Parser(tokenize(sql)).parse()


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0
        self._refs: List[ColumnRefInfo] = []
        self._sources: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # token plumbing
    # ------------------------------------------------------------------
    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _accept(self, kind: TokenKind, value: Optional[str] = None) -> Optional[Token]:
        if self._peek().matches(kind, value):
            return self._advance()
        return None

    def _expect(self, kind: TokenKind, value: Optional[str] = None) -> Token:
        tok = self._accept(kind, value)
        if tok is None:
            actual = self._peek()
            raise SQLSyntaxError(
                f"expected {value or kind.value}, found {actual.value!r} "
                f"at position {actual.position}"
            )
        return tok

    def _keyword(self, word: str) -> bool:
        return self._accept(TokenKind.KEYWORD, word) is not None

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def parse(self) -> Statement:
        """Parse the token stream into exactly one statement."""
        if self._peek().matches(TokenKind.KEYWORD, "SELECT"):
            stmt = self._parse_select()
        elif self._peek().matches(TokenKind.KEYWORD, "INSERT"):
            stmt = self._parse_insert()
        elif self._peek().matches(TokenKind.KEYWORD, "UPDATE"):
            stmt = self._parse_update()
        elif self._peek().matches(TokenKind.KEYWORD, "DELETE"):
            stmt = self._parse_delete()
        elif self._peek().matches(TokenKind.KEYWORD, "SET"):
            stmt = self._parse_set()
        else:
            raise SQLSyntaxError(f"unsupported statement start {self._peek().value!r}")
        self._accept(TokenKind.PUNCT, ";")
        self._expect(TokenKind.EOF)
        return stmt

    # -- SELECT ----------------------------------------------------------
    def _parse_select(self) -> SelectStatement:
        self._expect(TokenKind.KEYWORD, "SELECT")
        distinct = self._keyword("DISTINCT")
        items = self._parse_select_items()
        self._expect(TokenKind.KEYWORD, "FROM")
        plan, tables = self._parse_from()
        if self._keyword("WHERE"):
            # a Filter over the FROM tree; binding moves its conjuncts
            # onto the scans (repro.plan.rules.push_to_scans)
            plan = nodes.FilterNode(plan, self._parse_expr())
        group_keys: List[str] = []
        if self._keyword("GROUP"):
            self._expect(TokenKind.KEYWORD, "BY")
            group_keys = self._parse_column_list()
        plan = self._apply_projection(plan, items, distinct, group_keys)
        if self._keyword("ORDER"):
            self._expect(TokenKind.KEYWORD, "BY")
            keys, ascending = self._parse_order_list()
            plan = self._apply_order_by(plan, keys, ascending)
        if self._keyword("LIMIT"):
            n = self._parse_count("LIMIT")
            offset = 0
            if self._accept(TokenKind.PUNCT, ","):
                # SQLite's LIMIT <offset>, <count> form
                offset, n = n, self._parse_count("LIMIT")
            elif self._keyword("OFFSET"):
                offset = self._parse_count("OFFSET")
            plan = nodes.LimitNode(plan, n, offset)
        derived_names = [
            name
            for name, spec in items
            if spec != "*" and getattr(spec, "name", None) != name
        ]
        return SelectStatement(
            plan=plan,
            tables=tables,
            sources=dict(self._sources),
            column_refs=list(self._refs),
            derived_names=derived_names,
        )

    def _parse_count(self, clause: str) -> int:
        """A validated non-negative integer for LIMIT/OFFSET."""
        negative = self._accept(TokenKind.OPERATOR, "-") is not None
        tok = self._expect(TokenKind.NUMBER)
        if negative or "." in tok.value:
            sign = "-" if negative else ""
            raise SQLSyntaxError(
                f"{clause} requires a non-negative integer, got "
                f"{sign}{tok.value} at position {tok.position}"
            )
        return int(tok.value)

    def _parse_select_items(self) -> List[Tuple[str, object]]:
        """List of (output name, spec) where spec is '*', an Expression,
        or an aggregate tuple (func, input expr or None)."""
        if self._accept(TokenKind.OPERATOR, "*"):
            return [("*", "*")]
        items: List[Tuple[str, object]] = []
        while True:
            spec: object
            tok = self._peek()
            if tok.kind is TokenKind.KEYWORD and tok.value in AGG_FUNCS:
                self._advance()
                self._expect(TokenKind.PUNCT, "(")
                if self._accept(TokenKind.OPERATOR, "*"):
                    inner: Optional[Expression] = None
                else:
                    inner = self._parse_expr()
                self._expect(TokenKind.PUNCT, ")")
                spec = (AGG_FUNCS[tok.value], inner)
                default_name = tok.value.lower()
            else:
                expr = self._parse_expr()
                spec = expr
                default_name = expr.name if hasattr(expr, "name") else "expr"
            if self._keyword("AS"):
                name = self._expect(TokenKind.IDENT).value
            else:
                name = default_name
            items.append((name, spec))
            if not self._accept(TokenKind.PUNCT, ","):
                return items

    def _parse_from(self) -> Tuple[nodes.PlanNode, List[str]]:
        table = self._expect(TokenKind.IDENT).value
        self._register_source(table, self._maybe_alias())
        plan: nodes.PlanNode = nodes.ScanNode(table)
        tables = [table]
        while True:
            if self._keyword("INNER"):
                self._expect(TokenKind.KEYWORD, "JOIN")
            elif not self._keyword("JOIN"):
                break
            right = self._expect(TokenKind.IDENT).value
            self._register_source(right, self._maybe_alias())
            self._expect(TokenKind.KEYWORD, "ON")
            left_key = self._parse_column_ref()
            self._expect(TokenKind.OPERATOR, "=")
            right_key = self._parse_column_ref()
            plan = nodes.JoinNode(plan, nodes.ScanNode(right), left_key, right_key)
            tables.append(right)
        return plan, tables

    def _register_source(self, table: str, alias: Optional[str]) -> None:
        """Record one FROM range variable (the alias hides the table name)."""
        self._sources[alias or table] = table

    def _maybe_alias(self) -> Optional[str]:
        # accept "table alias" and "table AS alias"; returns the alias
        if self._keyword("AS"):
            return self._expect(TokenKind.IDENT).value
        if self._peek().kind is TokenKind.IDENT:
            nxt = self._tokens[self._pos + 1]
            # a bare identifier followed by something that cannot start a
            # clause is an alias
            if nxt.kind in (TokenKind.KEYWORD, TokenKind.EOF) or nxt.matches(
                TokenKind.PUNCT, ";"
            ):
                return self._advance().value
        return None

    def _apply_projection(
        self,
        plan: nodes.PlanNode,
        items: List[Tuple[str, object]],
        distinct: bool,
        group_keys: List[str],
    ) -> nodes.PlanNode:
        has_aggs = any(isinstance(spec, tuple) for _, spec in items)
        if group_keys or has_aggs:
            aggs = {
                name: spec for name, spec in items if isinstance(spec, tuple)
            }
            for name, spec in items:
                if not isinstance(spec, tuple):
                    if not hasattr(spec, "name") or spec.name not in group_keys:
                        raise SQLSyntaxError(
                            f"non-aggregate select item {name!r} must be a "
                            "GROUP BY column"
                        )
            return nodes.AggregateNode(plan, group_keys, aggs)
        if items == [("*", "*")]:
            if distinct:
                return nodes.DistinctNode(plan)
            return plan
        simple = all(hasattr(spec, "name") and name == spec.name for name, spec in items)
        columns = [name for name, _ in items]
        if distinct and simple:
            # keep the scan subtree bare so the distinct rewrite matches
            return nodes.DistinctNode(plan, columns)
        outputs: Dict[str, object] = {}
        for name, spec in items:
            outputs[name] = spec.name if hasattr(spec, "name") else spec
        projected = nodes.ProjectNode(plan, outputs)
        if distinct:
            return nodes.DistinctNode(projected, columns)
        return projected

    def _apply_order_by(
        self, plan: nodes.PlanNode, keys: List[str], ascending: List[bool]
    ) -> nodes.PlanNode:
        # SQL permits ordering by columns the projection drops; sort
        # beneath the projection in that case.
        if isinstance(plan, nodes.ProjectNode) and any(
            k not in plan.outputs for k in keys
        ):
            return nodes.ProjectNode(
                nodes.SortNode(plan.child, keys, ascending), plan.outputs
            )
        return nodes.SortNode(plan, keys, ascending)

    def _parse_column_list(self) -> List[str]:
        cols = [self._parse_column_ref()]
        while self._accept(TokenKind.PUNCT, ","):
            cols.append(self._parse_column_ref())
        return cols

    def _parse_order_list(self) -> Tuple[List[str], List[bool]]:
        keys: List[str] = []
        ascending: List[bool] = []
        while True:
            keys.append(self._parse_column_ref())
            if self._keyword("DESC"):
                ascending.append(False)
            else:
                self._keyword("ASC")
                ascending.append(True)
            if not self._accept(TokenKind.PUNCT, ","):
                return keys, ascending

    def _parse_column_ref(self) -> str:
        tok = self._expect(TokenKind.IDENT)
        name = tok.value
        qualifier: Optional[str] = None
        if self._accept(TokenKind.PUNCT, "."):
            qualifier = name
            name = self._expect(TokenKind.IDENT).value
        # the engine resolves by bare name; the qualifier is preserved
        # here and validated by the binder against the FROM sources
        self._refs.append(ColumnRefInfo(qualifier, name, tok.position))
        return name

    # -- INSERT ----------------------------------------------------------
    def _parse_insert(self) -> InsertStatement:
        self._expect(TokenKind.KEYWORD, "INSERT")
        self._expect(TokenKind.KEYWORD, "INTO")
        table = self._expect(TokenKind.IDENT).value
        self._expect(TokenKind.PUNCT, "(")
        columns = [self._expect(TokenKind.IDENT).value]
        while self._accept(TokenKind.PUNCT, ","):
            columns.append(self._expect(TokenKind.IDENT).value)
        self._expect(TokenKind.PUNCT, ")")
        self._expect(TokenKind.KEYWORD, "VALUES")
        rows: List[List[object]] = []
        while True:
            self._expect(TokenKind.PUNCT, "(")
            row = [self._parse_literal()]
            while self._accept(TokenKind.PUNCT, ","):
                row.append(self._parse_literal())
            self._expect(TokenKind.PUNCT, ")")
            if len(row) != len(columns):
                raise SQLSyntaxError(
                    f"VALUES row has {len(row)} items, expected {len(columns)}"
                )
            rows.append(row)
            if not self._accept(TokenKind.PUNCT, ","):
                return InsertStatement(table, columns, rows)

    def _parse_literal(self) -> object:
        if self._accept(TokenKind.KEYWORD, "NULL"):
            return None
        negative = self._accept(TokenKind.OPERATOR, "-") is not None
        tok = self._advance()
        if tok.kind is TokenKind.NUMBER:
            value: object = float(tok.value) if "." in tok.value else int(tok.value)
            return -value if negative else value
        if tok.kind is TokenKind.STRING:
            if negative:
                raise SQLSyntaxError(
                    f"cannot negate string literal {tok.value!r} "
                    f"at position {tok.position}"
                )
            return tok.value
        if tok.matches(TokenKind.KEYWORD, "NULL"):
            raise SQLSyntaxError(f"cannot negate NULL at position {tok.position}")
        raise SQLSyntaxError(
            f"expected literal, found {tok.value!r} at position {tok.position}"
        )

    # -- UPDATE ----------------------------------------------------------
    def _parse_update(self) -> UpdateStatement:
        self._expect(TokenKind.KEYWORD, "UPDATE")
        table = self._expect(TokenKind.IDENT).value
        self._expect(TokenKind.KEYWORD, "SET")
        assignments: Dict[str, Expression] = {}
        while True:
            column = self._expect(TokenKind.IDENT).value
            self._expect(TokenKind.OPERATOR, "=")
            assignments[column] = self._parse_expr()
            if not self._accept(TokenKind.PUNCT, ","):
                break
        predicate = self._parse_expr() if self._keyword("WHERE") else None
        return UpdateStatement(table, assignments, predicate, column_refs=list(self._refs))

    # -- DELETE ----------------------------------------------------------
    def _parse_delete(self) -> DeleteStatement:
        self._expect(TokenKind.KEYWORD, "DELETE")
        self._expect(TokenKind.KEYWORD, "FROM")
        table = self._expect(TokenKind.IDENT).value
        predicate = self._parse_expr() if self._keyword("WHERE") else None
        return DeleteStatement(table, predicate, column_refs=list(self._refs))

    # -- SET -------------------------------------------------------------
    def _parse_set(self) -> SetStatement:
        self._expect(TokenKind.KEYWORD, "SET")
        name = self._expect(TokenKind.IDENT).value
        self._expect(TokenKind.OPERATOR, "=")
        tok = self._advance()
        if tok.kind is TokenKind.NUMBER:
            value: object = float(tok.value) if "." in tok.value else int(tok.value)
        elif tok.kind in (TokenKind.STRING, TokenKind.IDENT, TokenKind.KEYWORD):
            # KEYWORD covers bare enum values that collide with SQL
            # keywords, e.g. ``SET wal_sync = group``.
            value = tok.value.lower() if tok.kind is TokenKind.KEYWORD else tok.value
        else:
            raise SQLSyntaxError(
                f"expected a literal SET value, found {tok.value!r} "
                f"at position {tok.position}"
            )
        return SetStatement(name, value)

    # ------------------------------------------------------------------
    # expressions (precedence climbing)
    # ------------------------------------------------------------------
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
            self._expect(TokenKind.PUNCT, "(")
            values = [self._parse_literal()]
            while self._accept(TokenKind.PUNCT, ","):
                values.append(self._parse_literal())
            self._expect(TokenKind.PUNCT, ")")
            return expr.isin(values)
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
