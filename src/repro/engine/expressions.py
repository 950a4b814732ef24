"""Scalar/predicate expressions evaluated vectorized over relations."""

from __future__ import annotations

import operator
from typing import Callable, Union

import numpy as np

from repro.engine.batch import Relation

__all__ = [
    "Expression",
    "ColumnRef",
    "Literal",
    "BinaryExpr",
    "ComparisonExpr",
    "UnaryExpr",
    "IsNullExpr",
    "CaseExpr",
    "col",
    "lit",
    "where",
    "is_null",
    "expression_columns",
]


class Expression:
    """Base class; subclasses implement :meth:`evaluate`."""

    def evaluate(self, rel: Relation) -> np.ndarray:
        """Evaluate to a numpy array aligned with ``rel``'s rows."""
        raise NotImplementedError

    # -- comparison operators ------------------------------------------
    def __eq__(self, other: object):  # type: ignore[override]
        return ComparisonExpr(operator.eq, "=", self, _wrap(other))

    def __ne__(self, other: object):  # type: ignore[override]
        return ComparisonExpr(operator.ne, "<>", self, _wrap(other))

    def __lt__(self, other: object):
        return ComparisonExpr(operator.lt, "<", self, _wrap(other))

    def __le__(self, other: object):
        return ComparisonExpr(operator.le, "<=", self, _wrap(other))

    def __gt__(self, other: object):
        return ComparisonExpr(operator.gt, ">", self, _wrap(other))

    def __ge__(self, other: object):
        return ComparisonExpr(operator.ge, ">=", self, _wrap(other))

    # -- boolean connectives -------------------------------------------
    def __and__(self, other: object):
        return BinaryExpr(np.logical_and, "AND", self, _wrap(other))

    def __or__(self, other: object):
        return BinaryExpr(np.logical_or, "OR", self, _wrap(other))

    def __invert__(self):
        return UnaryExpr(np.logical_not, "NOT", self)

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other: object):
        return BinaryExpr(operator.add, "+", self, _wrap(other))

    def __sub__(self, other: object):
        return BinaryExpr(operator.sub, "-", self, _wrap(other))

    def __mul__(self, other: object):
        return BinaryExpr(operator.mul, "*", self, _wrap(other))

    def __truediv__(self, other: object):
        return BinaryExpr(operator.truediv, "/", self, _wrap(other))

    def __floordiv__(self, other: object):
        return BinaryExpr(operator.floordiv, "//", self, _wrap(other))

    def __mod__(self, other: object):
        return BinaryExpr(operator.mod, "%", self, _wrap(other))

    def isin(self, values) -> "Expression":
        """Membership test against a fixed value set."""
        return IsInExpr(self, values)

    def __hash__(self) -> int:  # __eq__ is overloaded, keep hashability
        return id(self)


class ColumnRef(Expression):
    """Reference to a column of the input relation."""

    def __init__(self, name: str) -> None:
        self.name = name

    def evaluate(self, rel: Relation) -> np.ndarray:
        return rel.column(self.name)

    def __repr__(self) -> str:
        return f"col({self.name!r})"


class Literal(Expression):
    """A constant, broadcast over the input rows."""

    def __init__(self, value: object) -> None:
        self.value = value

    def evaluate(self, rel: Relation) -> np.ndarray:
        if isinstance(self.value, str):
            out = np.empty(rel.num_rows, dtype=object)
            out[:] = self.value
            return out
        return np.full(rel.num_rows, self.value)

    def __repr__(self) -> str:
        return f"lit({self.value!r})"


class BinaryExpr(Expression):
    """Vectorized binary operation."""

    def __init__(self, fn: Callable, symbol: str, left: Expression, right: Expression) -> None:
        self.fn = fn
        self.symbol = symbol
        self.left = left
        self.right = right

    def evaluate(self, rel: Relation) -> np.ndarray:
        return self.fn(self.left.evaluate(rel), self.right.evaluate(rel))

    def __repr__(self) -> str:
        return f"({self.left!r} {self.symbol} {self.right!r})"


def not_null_mask(arr: np.ndarray) -> np.ndarray:
    """True where a value is present (SQL not-NULL).

    NULL is represented as ``None`` in object (string) columns and as
    NaN in float columns; integer columns cannot hold NULLs.
    """
    if arr.dtype == object:
        return np.not_equal(arr, None)
    if np.issubdtype(arr.dtype, np.floating):
        return ~np.isnan(arr)
    return np.ones(arr.shape, dtype=bool)


def _operand(expr: Expression, rel: Relation) -> np.ndarray:
    """An operand's values; a literal stays 0-d and broadcasts in numpy."""
    if isinstance(expr, Literal):
        as_object = expr.value is None or isinstance(expr.value, str)
        return np.asarray(expr.value, dtype=object if as_object else None)
    return np.asarray(expr.evaluate(rel))


class ComparisonExpr(BinaryExpr):
    """Comparison with SQL NULL semantics: NULL never matches.

    SQL three-valued logic collapses to two values at the predicate
    boundary: a comparison involving NULL evaluates to NULL, and NULL
    rows are excluded — so here any comparison where either operand is
    NULL (``None`` in object columns, NaN in float columns) yields
    ``False``.  This matches SQLite/DuckDB row selection for plain
    predicates (``WHERE x = NULL`` matches nothing, ``x <> 1`` skips
    NULL rows); ``NOT`` over a NULL comparison still differs from
    strict three-valued logic and is tracked in the differential
    harness's xfail manifest.
    """

    def evaluate(self, rel: Relation) -> np.ndarray:
        left = _operand(self.left, rel)
        right = _operand(self.right, rel)
        if left.ndim == 0 and right.ndim == 0:  # constant predicate
            left = np.broadcast_to(left, rel.num_rows)
        if left.dtype != object and right.dtype != object:
            out = np.asarray(self.fn(left, right), dtype=bool)
            # numpy says NaN != x is True; SQL says NULL <> x is NULL
            if self.symbol == "<>":
                if np.issubdtype(left.dtype, np.floating):
                    out &= ~np.isnan(left)
                if np.issubdtype(right.dtype, np.floating):
                    out &= ~np.isnan(right)
            return out
        # a literal side costs one test here, not an n-row mask
        valid = not_null_mask(left) & not_null_mask(right)
        if not valid.all():  # compare the non-NULL rows only
            left, right = (side[valid] if side.ndim else side for side in (left, right))
        out = np.zeros(len(valid), dtype=bool)
        out[valid] = np.asarray(self.fn(left, right), dtype=bool)
        return out


class UnaryExpr(Expression):
    """Vectorized unary operation."""

    def __init__(self, fn: Callable, symbol: str, child: Expression) -> None:
        self.fn = fn
        self.symbol = symbol
        self.child = child

    def evaluate(self, rel: Relation) -> np.ndarray:
        return self.fn(self.child.evaluate(rel))

    def __repr__(self) -> str:
        return f"{self.symbol}({self.child!r})"


class IsNullExpr(Expression):
    """SQL ``x IS NULL`` / ``x IS NOT NULL`` membership-in-NULL test.

    The only predicate form that *selects* NULL rows (comparisons never
    do, see :class:`ComparisonExpr`).  NULL is ``None`` in object
    columns and NaN in float columns; integer columns have no NULLs,
    so ``IS NULL`` over them is constant-false.
    """

    def __init__(self, child: Expression, negate: bool = False) -> None:
        self.child = child
        self.negate = negate

    def evaluate(self, rel: Relation) -> np.ndarray:
        present = not_null_mask(np.asarray(self.child.evaluate(rel)))
        return present if self.negate else ~present

    def __repr__(self) -> str:
        op = "IS NOT NULL" if self.negate else "IS NULL"
        return f"({self.child!r} {op})"


class IsInExpr(Expression):
    """Membership test (``x IN (v1, v2, ...)``)."""

    def __init__(self, child: Expression, values) -> None:
        self.child = child
        self.values = list(values)

    def evaluate(self, rel: Relation) -> np.ndarray:
        vals = np.asarray(self.child.evaluate(rel))
        # SQL: NULL IN (...) is NULL (row excluded), and a NULL member
        # of the value list can never produce a match
        members = [v for v in self.values if v is not None]
        out = np.asarray(np.isin(vals, members), dtype=bool)
        if vals.dtype == object or np.issubdtype(vals.dtype, np.floating):
            out &= not_null_mask(vals)
        return out

    def __repr__(self) -> str:
        return f"({self.child!r} IN {self.values!r})"


class CaseExpr(Expression):
    """Two-branch conditional (``CASE WHEN cond THEN a ELSE b END``)."""

    def __init__(self, cond: Expression, then: Expression, otherwise: Expression) -> None:
        self.cond = cond
        self.then = then
        self.otherwise = otherwise

    def evaluate(self, rel: Relation) -> np.ndarray:
        return np.where(
            self.cond.evaluate(rel),
            self.then.evaluate(rel),
            self.otherwise.evaluate(rel),
        )

    def __repr__(self) -> str:
        return f"where({self.cond!r}, {self.then!r}, {self.otherwise!r})"


def col(name: str) -> ColumnRef:
    """Shorthand column reference."""
    return ColumnRef(name)


def lit(value: object) -> Literal:
    """Shorthand literal."""
    return Literal(value)


def where(
    cond: Expression,
    then: Union[Expression, object],
    otherwise: Union[Expression, object],
) -> CaseExpr:
    """Shorthand conditional expression."""
    return CaseExpr(cond, _wrap(then), _wrap(otherwise))


def is_null(expr: Expression, negate: bool = False) -> IsNullExpr:
    """Shorthand ``IS [NOT] NULL`` test."""
    return IsNullExpr(expr, negate)


def _wrap(value: object) -> Expression:
    return value if isinstance(value, Expression) else Literal(value)


def expression_columns(expr: Expression) -> set:
    """Names of all columns an expression references."""
    out: set = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ColumnRef):
            out.add(node.name)
        elif isinstance(node, BinaryExpr):
            stack.extend([node.left, node.right])
        elif isinstance(node, (UnaryExpr, IsInExpr, IsNullExpr)):
            stack.append(node.child)
        elif isinstance(node, CaseExpr):
            stack.extend([node.cond, node.then, node.otherwise])
    return out
