"""Catalog: named tables plus registered auxiliary structures.

The optimizer consults the catalog to find PatchIndexes, materialized
views, SortKeys and JoinIndexes applicable to a query (§3.3/§6).
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple, Union

from repro.storage.partition import PartitionedTable
from repro.storage.table import Table

__all__ = ["Catalog"]

AnyTable = Union[Table, PartitionedTable]


class Catalog:
    """Registry of tables and the index/materialization structures on them."""

    def __init__(self) -> None:
        self._tables: Dict[str, AnyTable] = {}
        self._structures: Dict[Tuple[str, str, str], object] = {}

    # ------------------------------------------------------------------
    # tables
    # ------------------------------------------------------------------
    def register(self, table: AnyTable) -> AnyTable:
        """Add a table under its name; replaces any previous entry."""
        self._tables[table.name] = table
        return table

    def table(self, name: str) -> AnyTable:
        """Look a table up by name."""
        if name not in self._tables:
            raise KeyError(f"unknown table {name!r}")
        return self._tables[name]

    def drop(self, name: str) -> None:
        """Remove a table and every structure registered on it."""
        self._tables.pop(name, None)
        for key in [k for k in self._structures if k[0] == name]:
            del self._structures[key]

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[AnyTable]:
        return iter(self._tables.values())

    # ------------------------------------------------------------------
    # auxiliary structures (PatchIndexes, matviews, sortkeys, joinindexes)
    # ------------------------------------------------------------------
    def add_structure(self, kind: str, table: str, column: str, obj: object) -> None:
        """Register an auxiliary structure for (kind, table, column)."""
        self._structures[(table, column, kind)] = obj

    def structure(self, kind: str, table: str, column: str) -> Optional[object]:
        """Look an auxiliary structure up, or None."""
        return self._structures.get((table, column, kind))

    def remove_structure(self, kind: str, table: str, column: str) -> None:
        """Drop one auxiliary structure if present."""
        self._structures.pop((table, column, kind), None)
