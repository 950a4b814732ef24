"""Tables with positional rowIDs and update hooks.

RowIDs are positional: tuple ``i`` of the current image has rowID ``i``,
and deleting tuples shifts the rowIDs of all subsequent tuples — the
semantics both PatchIndex designs maintain under deletes (§4.2.3 /
§5.3).

The paper's column store buffers updates in positional delta trees
(PDTs, its [17]) so that a statement does not rewrite read-optimised
columns.  Here each column is a numpy buffer with spare capacity, the
table publishes one row count ``n`` and :meth:`Table.column` is the view
``buf[:n]``; a STRING column's buffer holds int32 codes into the
column's append-only :class:`~repro.storage.column.StringDictionary`,
which :meth:`Table.column` decodes and :meth:`Table.codes` hands the
engine as they are.  INSERT converts every column, writes into the spare
capacity (a full buffer doubles) and publishes ``n`` last.  It never
writes below ``n``, so it costs the rows it inserts and no array a
reader holds changes: what the PDT buys, without the PDT's merge on the
next read.  DELETE moves each column's kept runs down over the rows it
deletes and UPDATE scatters its values, both within the column's buffer
when nothing but the table refers to it, so a write costs the rows it
shifts (§4.2.3); a buffer anything else refers to is first packed or
copied into a fresh one.  Every array that can alias a buffer (a
``column()`` view, a slice of one, a memoryview, the caller's
constructor array) holds a reference to it, and statements run with
readers excluded, so no write changes an array a reader holds.  The
``sys.getrefcount`` baseline is probed at import through the helper
that checks it, as CPython versions count a call's arguments
differently.  Traced ``pi_update`` (seeds 11–13, 2-CPU x86 box): a
DELETE statement 2.35 → 1.27 ms, an UPDATE 1.91 → 1.45 ms.  Each hook
receives the statement's :class:`UpdateEvent` after the image changed,
so maintenance runs as part of the statement (§5).

Measured and not kept: packing through ``np.compress`` of a keep mask,
loop-free — 0.7–2 ms against the run copy's 0.14–0.17 ms for a 200 k-row
column with one deleted range.
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.storage.column import Coded, ColumnType, StringDictionary
from repro.storage.minmax import DEFAULT_BLOCK_SIZE, MinMaxIndex

__all__ = ["Field", "Schema", "Table", "UpdateEvent"]


@dataclasses.dataclass
class UpdateEvent:
    """Statement-level delta description passed to update hooks (§5).

    ``kind`` is one of ``"insert"``, ``"delete"``, ``"modify"``.

    For inserts, ``rowids`` are the positions the new tuples occupy in the
    post-statement image and ``values`` holds their column values.  For
    deletes, ``rowids`` are pre-statement positions (sorted and distinct).
    For modifies, ``rowids`` are the touched positions and ``values`` the
    new values of changed columns.
    """

    kind: str
    rowids: np.ndarray
    values: Dict[str, np.ndarray] = dataclasses.field(default_factory=dict)


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
    """An in-memory columnar table with positional update semantics.

    A plain table is its own one-partition list (§3.2): no partition
    key, no bounds, ``partitions == [self]`` at offset 0.
    """

    partition_key: Optional[str] = None
    upper_bounds: Sequence = ()

    def __init__(
        self,
        name: str,
        schema: Schema,
        columns: Dict[str, np.ndarray],
        minmax_block_size: int = DEFAULT_BLOCK_SIZE,
        dictionaries: Optional[Dict[str, StringDictionary]] = None,
    ) -> None:
        if set(columns) != set(schema.names):
            raise ValueError("columns must match the schema exactly")
        # one per STRING column, shared with any table passing the same map
        dictionaries = {} if dictionaries is None else dictionaries
        self._dicts: Dict[str, StringDictionary] = {}
        coerced = {}
        for field in schema.fields:
            arr = columns[field.name]
            if field.type is ColumnType.STRING:
                if arr.dtype != object:
                    # NULL (None) survives coercion; see repro.sql NULL rules
                    arr = [None if v is None else str(v) for v in arr]
                self._dicts[field.name] = dictionaries.setdefault(field.name, StringDictionary())
                arr = self._dicts[field.name].encode(arr)
            else:
                arr = np.asarray(arr, dtype=field.type.numpy_dtype)
            coerced[field.name] = arr
        lengths = {len(arr) for arr in coerced.values()}
        if len(lengths) > 1:
            raise ValueError("columns must have equal length")
        self.name = name
        self.schema = schema
        # the caller's arrays, full: the first INSERT grows out of them
        self._buffers = coerced
        self._n = lengths.pop() if lengths else 0
        self._minmax_block_size = minmax_block_size
        self._minmax: Dict[str, MinMaxIndex] = {}
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
        return self._n

    @property
    def version(self) -> int:
        """Monotone statement counter, bumped on every update."""
        return self._version

    def column(self, name: str) -> np.ndarray:
        """Current-image array for one column: a view no write changes,
        or for a STRING column its decoded values."""
        self.schema.field(name)
        if name in self._dicts:
            return self._dicts[name].decode(self._buffers[name][: self._n])
        return self._buffers[name][: self._n]

    def codes(self, name: str) -> Optional[Coded]:
        """``(codes view, dictionary)`` of a STRING column, else None."""
        self.schema.field(name)
        if name not in self._dicts:
            return None
        return self._buffers[name][: self._n], self._dicts[name]

    def rowids(self) -> np.ndarray:
        """All current rowIDs (0..num_rows)."""
        return np.arange(self.num_rows, dtype=np.int64)

    @property
    def partitions(self) -> List["Table"]:
        return [self]

    def partition_offsets(self) -> List[int]:
        return [0]

    # ------------------------------------------------------------------
    # minmax summaries
    # ------------------------------------------------------------------
    def minmax(self, column: str) -> MinMaxIndex:
        """Lazily built minmax summary over the current image of a column;
        INSERT and DELETE drop all, UPDATE those of the columns it sets."""
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
        if set(values) != set(self._buffers):
            raise KeyError("insert must provide every column exactly once")
        counts = {len(v) for v in values.values()}
        if len(counts) != 1:
            raise ValueError("insert columns must have equal length")
        start, stop = self._n, self._n + counts.pop()
        rows = {name: self._convert(name, vals) for name, vals in values.items()}
        buffers = dict(self._buffers)
        for name, new in rows.items():
            buf = buffers[name]
            if stop > len(buf):
                grown = np.empty(max(stop, 2 * len(buf)), dtype=buf.dtype)
                grown[:start] = buf[:start]
                buffers[name] = buf = grown
            buf[start:stop] = new
        self._buffers = buffers
        self._n = stop
        self._minmax = {}
        rowids = np.arange(start, stop, dtype=np.int64)
        self._fire(UpdateEvent("insert", rowids, {k: np.asarray(v) for k, v in values.items()}))
        return rowids

    def delete(self, rowids: np.ndarray) -> None:
        """Delete tuples at the given (pre-statement) rowIDs."""
        rowids = np.unique(np.asarray(rowids, dtype=np.int64))
        if len(rowids):
            if rowids[0] < 0 or rowids[-1] >= self._n:
                raise IndexError("rowid out of range")
            # the runs of kept rows between ranges of deleted positions
            gaps = np.flatnonzero(np.diff(rowids) != 1) + 1
            starts = np.concatenate([[0], rowids[gaps - 1] + 1, rowids[-1:] + 1])
            stops = np.concatenate([rowids[:1], rowids[gaps], [self._n]])
            runs = list(zip(starts.tolist(), stops.tolist()))
            for name in self._buffers:
                _pack_runs(self._buffers, name, runs)
            self._n -= len(rowids)
            self._minmax = {}
        self._fire(UpdateEvent(kind="delete", rowids=rowids))

    def modify(self, rowids: np.ndarray, values: Dict[str, np.ndarray]) -> None:
        """Overwrite column values at the given rowIDs."""
        rowids = np.asarray(rowids, dtype=np.int64)
        if len(rowids) and (rowids.min() < 0 or rowids.max() >= self._n):
            raise IndexError("rowid out of range")
        for name, vals in values.items():
            self.schema.field(name)
            if len(vals) != len(rowids):
                raise ValueError("modify values must align with rowids")
        # through Python scalars, so a value casts as a literal would
        new = {n: self._convert(n, np.asarray(vals).tolist()) for n, vals in values.items()}
        for name, vals in new.items():
            _pack_runs(self._buffers, name, [(0, self._n)])  # copies a held buffer
            self._buffers[name][rowids] = vals
        self._minmax = {c: mm for c, mm in self._minmax.items() if c not in new}
        self._fire(UpdateEvent("modify", rowids, {k: np.asarray(v) for k, v in values.items()}))

    def _convert(self, name: str, values) -> np.ndarray:
        """``values`` as column ``name`` stores them: a STRING column's
        codes (its dictionary learns new values), else its dtype (raises,
        writes nothing)."""
        if name in self._dicts:
            return self._dicts[name].encode(values)
        return np.asarray(values, dtype=self._buffers[name].dtype)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Table({self.name!r}, rows={self.num_rows}, cols={len(self.schema)})"


def _refs(buffers: Dict[str, np.ndarray], name: str) -> int:
    return sys.getrefcount(buffers[name])


#: ``_refs`` of a buffer that only its dict refers to, on this interpreter
_SOLE_REFS = _refs({"": np.empty(0)}, "")


def _pack_runs(buffers: Dict[str, np.ndarray], name: str, runs: List[tuple]) -> None:
    """Move the ``(start, stop)`` runs of ``buffers[name]`` to its front.

    When the buffer owns its data and only ``buffers`` refers to it, the
    runs move within it: the first is already in place, and numpy makes
    each later, overlapping slice move safe.
    Otherwise they are packed into a fresh buffer of its capacity.  Each
    run is one slice copy (~0.6 µs): a range delete is one run whatever
    its length, while ``k`` scattered deletes cost ``k`` runs.
    """
    sole = buffers[name].flags.owndata and _refs(buffers, name) == _SOLE_REFS
    buf = buffers[name]
    out = buf if sole else np.empty(len(buf), dtype=buf.dtype)
    at = 0
    for start, stop in runs:
        if out is not buf or at != start:
            out[at : at + stop - start] = buf[start:stop]
        at += stop - start
    buffers[name] = out
