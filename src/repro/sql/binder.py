"""Catalog-aware validation of parsed column references.

The parser keeps every column reference as written — qualifier
included (see :class:`~repro.sql.parser.ColumnRefInfo`) — because the
engine itself resolves columns by bare name only.  Binding runs at
prepare time, when the catalog is available, and turns what used to be
silent wrong-answer behavior into typed errors:

* an *unqualified* reference whose bare name lives in more than one
  FROM source raises :class:`AmbiguousColumnError` (SQLite:
  ``ambiguous column name``) instead of resolving to whichever join
  side happens to win;
* a *qualified* reference is checked against its range variable — an
  unknown alias raises :class:`UnknownQualifierError`, a column the
  aliased table does not have raises :class:`UnknownColumnError`;
* a qualified reference that is valid SQL but that the bare-name
  engine cannot honor (the column exists in several joined tables, so
  the qualifier would be the only disambiguator) raises
  :class:`QualifiedRefUnsupportedError` — an honest "unsupported"
  instead of a wrong answer; the differential harness tracks it in the
  xfail manifest.

Once a SELECT's references check out, binding also places them:
:func:`~repro.plan.rules.push_to_scans` moves each single-table WHERE
conjunct into its table's scan and cuts every scan to the columns the
statement reads.  Binding is the one step every planner path runs
(``SQLSession.prepare`` and ``explain``, the benchmark tracer), so they
all plan the same tree.

Statements naming tables the catalog does not know are left unbound;
execution raises the ordinary unknown-table error.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.plan.rules import push_to_scans
from repro.sql.parser import (
    ColumnRefInfo,
    DeleteStatement,
    SelectStatement,
    Statement,
    UpdateStatement,
)
from repro.storage.catalog import Catalog

__all__ = [
    "BindError",
    "AmbiguousColumnError",
    "UnknownColumnError",
    "UnknownQualifierError",
    "QualifiedRefUnsupportedError",
    "bind_statement",
]


class BindError(ValueError):
    """A column reference failed catalog validation."""


class AmbiguousColumnError(BindError):
    """An unqualified column name matches more than one FROM source."""


class UnknownQualifierError(BindError):
    """A qualifier names no table or alias in the FROM clause."""


class UnknownColumnError(BindError, KeyError):
    """A referenced column exists in no candidate table.

    Subclasses :class:`KeyError` as well: pre-binder code surfaced
    unknown columns as ``KeyError`` from schema lookups, and callers
    catching that keep working.
    """

    def __str__(self) -> str:  # KeyError.__str__ would repr()-quote the message
        return self.args[0] if self.args else ""


class QualifiedRefUnsupportedError(BindError):
    """A qualified reference needs per-table resolution we don't have.

    The engine resolves columns by bare name, so a column duplicated
    across joined tables cannot be disambiguated even by a valid
    qualifier.  Raised instead of silently picking a side.
    """


def bind_statement(stmt: Statement, catalog: Catalog) -> None:
    """Validate every column reference of a parsed statement, then place
    a SELECT's conjuncts and column lists on its scans (``stmt.plan`` is
    replaced).

    Raises a :class:`BindError` subclass on the first invalid
    reference; statements without recorded references (INSERT, SET)
    pass through untouched.
    """
    if isinstance(stmt, SelectStatement):
        schemas = _source_schemas(stmt.sources, catalog)
        if schemas is not None:
            _bind_refs(stmt.column_refs, schemas, set(stmt.derived_names))
            names = {stmt.sources[rv]: schema.names for rv, schema in schemas.items()}
            stmt.plan = push_to_scans(stmt.plan, names)
    elif isinstance(stmt, (UpdateStatement, DeleteStatement)):
        schemas = _source_schemas({stmt.table: stmt.table}, catalog)
        if schemas is not None:
            _bind_refs(stmt.column_refs, schemas, set())


def _source_schemas(sources: Dict[str, str], catalog: Catalog) -> Optional[Dict[str, object]]:
    """Each FROM range variable's schema; None if a table is unknown
    (binding is skipped and execution raises the real error)."""
    try:
        return {rv: catalog.table(table).schema for rv, table in sources.items()}
    except KeyError:
        return None


def _bind_refs(refs: List[ColumnRefInfo], schemas: Dict[str, object], derived: Set[str]) -> None:
    """Check refs against the FROM sources' schemas (see module doc)."""
    for ref in refs:
        if ref.qualifier is not None:
            _bind_qualified(ref, schemas)
        else:
            _bind_bare(ref, schemas, derived)


def _bind_qualified(ref: ColumnRefInfo, schemas: Dict[str, object]) -> None:
    """Validate one qualified reference (``alias.column``)."""
    if ref.qualifier not in schemas:
        raise UnknownQualifierError(
            f"unknown table or alias {ref.qualifier!r} in reference "
            f"{ref.qualifier}.{ref.column} at position {ref.position}; "
            f"FROM sources are {sorted(schemas)}"
        )
    if ref.column not in schemas[ref.qualifier]:
        raise UnknownColumnError(
            f"table {ref.qualifier!r} has no column {ref.column!r} "
            f"(reference at position {ref.position})"
        )
    holders = [rv for rv, schema in schemas.items() if ref.column in schema]
    if len(holders) > 1:
        raise QualifiedRefUnsupportedError(
            f"column {ref.column!r} exists in multiple joined tables "
            f"({', '.join(sorted(holders))}); the engine resolves columns "
            f"by bare name and cannot honor the qualifier "
            f"{ref.qualifier!r} (reference at position {ref.position})"
        )


def _bind_bare(
    ref: ColumnRefInfo, schemas: Dict[str, object], derived: Set[str]
) -> None:
    """Validate one unqualified reference."""
    holders = [rv for rv, schema in schemas.items() if ref.column in schema]
    if len(holders) > 1:
        raise AmbiguousColumnError(
            f"ambiguous column name {ref.column!r}: present in "
            f"{', '.join(sorted(holders))} (reference at position "
            f"{ref.position}); qualify it as <table>.{ref.column}"
        )
    if not holders and ref.column not in derived:
        raise UnknownColumnError(
            f"unknown column {ref.column!r} at position {ref.position}; "
            f"no FROM source or select-list alias provides it"
        )
