"""Tables with positional rowIDs and update hooks.

A table owns a :class:`~repro.storage.pdt.PositionalDelta` holding its
current image.  RowIDs are positional: tuple ``i`` of the current image
has rowID ``i``, and deleting tuples shifts the rowIDs of all subsequent
tuples — the semantics both PatchIndex designs maintain under deletes
(§4.2.3 / §5.3).

Update hooks let index structures (PatchIndexes, JoinIndexes,
materialized views) observe statements: each hook receives the
:class:`~repro.storage.pdt.UpdateEvent` *after* the table image changed,
mirroring the paper's design where maintenance queries run as part of the
update statement and can scan the statement's PDT deltas.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.storage.column import ColumnType
from repro.storage.minmax import DEFAULT_BLOCK_SIZE, MinMaxIndex
from repro.storage.pdt import PositionalDelta, UpdateEvent

__all__ = ["Field", "Schema", "Table"]

UpdateHook = Callable[["Table", UpdateEvent], None]


@dataclasses.dataclass(frozen=True)
class Field:
    """A named, typed schema entry."""

    name: str
    type: ColumnType


class Schema:
    """Ordered collection of fields."""

    def __init__(self, fields: Sequence[Field]) -> None:
        names = [f.name for f in fields]
        if len(set(names)) != len(names):
            raise ValueError("duplicate column names in schema")
        self._fields = list(fields)
        self._by_name = {f.name: f for f in fields}

    @property
    def fields(self) -> List[Field]:
        return list(self._fields)

    @property
    def names(self) -> List[str]:
        return [f.name for f in self._fields]

    def field(self, name: str) -> Field:
        if name not in self._by_name:
            raise KeyError(f"unknown column {name!r}")
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._fields)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._fields == other._fields

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cols = ", ".join(f"{f.name}:{f.type.value}" for f in self._fields)
        return f"Schema({cols})"


class Table:
    """An in-memory columnar table with positional update semantics."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        columns: Dict[str, np.ndarray],
        minmax_block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> None:
        if set(columns) != set(schema.names):
            raise ValueError("columns must match the schema exactly")
        coerced = {}
        for field in schema.fields:
            arr = columns[field.name]
            if field.type is ColumnType.STRING:
                if arr.dtype != object:
                    obj = np.empty(len(arr), dtype=object)
                    # NULL (None) survives coercion; see repro.sql NULL rules
                    obj[:] = [None if v is None else str(v) for v in arr]
                    arr = obj
            else:
                arr = np.asarray(arr, dtype=field.type.numpy_dtype)
            coerced[field.name] = arr
        self.name = name
        self.schema = schema
        self._delta = PositionalDelta(coerced)
        self._minmax_block_size = minmax_block_size
        self._minmax: Dict[str, MinMaxIndex] = {}
        self._minmax_version = -1
        self._hooks: List[UpdateHook] = []
        self._version = 0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        name: str,
        columns: Dict[str, np.ndarray],
        types: Optional[Dict[str, ColumnType]] = None,
        minmax_block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> "Table":
        """Build a table, inferring the schema from the arrays."""
        fields = []
        arrays = {}
        for col, values in columns.items():
            arr = np.asarray(values) if not isinstance(values, np.ndarray) else values
            ctype = (types or {}).get(col) or ColumnType.infer(arr)
            fields.append(Field(col, ctype))
            arrays[col] = arr
        return cls(name, Schema(fields), arrays, minmax_block_size=minmax_block_size)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Rows in the current image."""
        return self._delta.num_rows

    @property
    def version(self) -> int:
        """Monotone statement counter, bumped on every update."""
        return self._version

    def column(self, name: str) -> np.ndarray:
        """Current-image array for one column (merged with deltas)."""
        self.schema.field(name)
        return self._delta.column(name)

    def columns(self, names: Optional[Iterable[str]] = None) -> Dict[str, np.ndarray]:
        """Current-image arrays for several (default: all) columns."""
        names = list(names) if names is not None else self.schema.names
        return {n: self.column(n) for n in names}

    def rowids(self) -> np.ndarray:
        """All current rowIDs (0..num_rows)."""
        return np.arange(self.num_rows, dtype=np.int64)

    # ------------------------------------------------------------------
    # minmax summaries
    # ------------------------------------------------------------------
    def minmax(self, column: str) -> MinMaxIndex:
        """Lazily built minmax summary over the current image of a column."""
        if self._minmax_version != self._version:
            self._minmax = {}
            self._minmax_version = self._version
        cached = self._minmax.get(column)
        if cached is None:
            cached = MinMaxIndex(self.column(column), self._minmax_block_size)
            self._minmax[column] = cached
        return cached

    # ------------------------------------------------------------------
    # update statements
    # ------------------------------------------------------------------
    def add_update_hook(self, hook: UpdateHook) -> None:
        """Register a maintenance hook called after each update statement."""
        self._hooks.append(hook)

    def remove_update_hook(self, hook: UpdateHook) -> None:
        """Unregister a previously added hook."""
        self._hooks.remove(hook)

    def _fire(self, event: UpdateEvent) -> None:
        self._version += 1
        for hook in list(self._hooks):
            hook(self, event)

    def insert(self, values: Dict[str, np.ndarray]) -> np.ndarray:
        """Insert tuples; returns their rowIDs in the post-statement image."""
        rowids = self._delta.insert(values)
        event = UpdateEvent(
            kind="insert",
            rowids=rowids,
            values={k: np.asarray(v) for k, v in values.items()},
        )
        self._fire(event)
        return rowids

    def delete(self, rowids: np.ndarray) -> None:
        """Delete tuples at the given (pre-statement) rowIDs."""
        rowids = np.unique(np.asarray(rowids, dtype=np.int64))
        self._delta.delete(rowids)
        self._fire(UpdateEvent(kind="delete", rowids=rowids))

    def modify(self, rowids: np.ndarray, values: Dict[str, np.ndarray]) -> None:
        """Overwrite column values at the given rowIDs."""
        rowids = np.asarray(rowids, dtype=np.int64)
        self._delta.modify(rowids, values)
        self._fire(
            UpdateEvent(
                kind="modify",
                rowids=rowids,
                values={k: np.asarray(v) for k, v in values.items()},
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Table({self.name!r}, rows={self.num_rows}, cols={len(self.schema)})"
