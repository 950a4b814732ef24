"""Positional delta structure (the paper's PDT stand-in, [17]).

Read-optimized column stores buffer table updates in memory rather than
rewriting the columnar storage on every statement.  The PatchIndex update
handlers of §5 query this structure for the tuples touched by the current
statement — e.g. the insert handler "scans the PDTs of the current query".

This implementation keeps three delta layers against the base image:

* **inserts** — columnar buffers appended after the base rows,
* **deletes** — current-image positions removed,
* **modifies** — per-column value overrides at current-image positions.

Reads merge the deltas positionally on demand (cached until the next
write); :meth:`PositionalDelta.checkpoint` folds the deltas into new base
arrays.  This trades the PDT's tree for simplicity while offering the
same interface to the index-maintenance layer: cheap update buffering,
positional rowID semantics (deletes shift subsequent rowIDs) and
statement-level delta scans.

The first read after a write merges *every* column (:meth:`merged`),
each into one allocation (:func:`_copy_runs`).  Measured and not kept:

* a loop-free merge, ``np.compress`` of a keep mask into that
  allocation: 0.7–2 ms against 0.14–0.17 ms for a 200 k-row column with
  one deleted range and 50 buffered rows, and slower ``pi_update``
  INSERTs;
* merging per column, lazily on its first read (ROADMAP item 4(d)).
  It moved ~0.5 ms per column onto that read, and the update
  workload's sort and aggregate statements rose 10–25 %.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

__all__ = ["PositionalDelta", "UpdateEvent"]


@dataclasses.dataclass
class UpdateEvent:
    """Statement-level delta description passed to update hooks (§5).

    ``kind`` is one of ``"insert"``, ``"delete"``, ``"modify"``.

    For inserts, ``rowids`` are the positions the new tuples occupy in the
    post-statement image and ``values`` holds their column values.  For
    deletes, ``rowids`` are pre-statement positions (descending-safe input
    to the sharded bitmap bulk delete).  For modifies, ``rowids`` are the
    touched positions and ``values`` the new values of changed columns.
    """

    kind: str
    rowids: np.ndarray
    values: Dict[str, np.ndarray] = dataclasses.field(default_factory=dict)


class PositionalDelta:
    """Delta layers over a dict of base column arrays."""

    def __init__(self, base: Dict[str, np.ndarray]) -> None:
        lengths = {len(arr) for arr in base.values()}
        if len(lengths) > 1:
            raise ValueError("base columns must have equal length")
        self._base = dict(base)
        self._base_rows = lengths.pop() if lengths else 0
        self._insert_buffers: Dict[str, List[np.ndarray]] = {c: [] for c in base}
        self._insert_rows = 0
        self._deleted_base = np.zeros(0, dtype=np.int64)  # base positions, sorted
        self._modify: Dict[str, Dict[int, object]] = {}
        self._cache: Optional[Dict[str, np.ndarray]] = None

    # ------------------------------------------------------------------
    # size
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Rows in the merged (current) image."""
        return self._base_rows - len(self._deleted_base) + self._insert_rows

    @property
    def has_deltas(self) -> bool:
        """Whether any un-checkpointed deltas exist."""
        return bool(
            self._insert_rows or len(self._deleted_base) or any(self._modify.values())
        )

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def column(self, name: str) -> np.ndarray:
        """Merged current-image array for one column."""
        return self.merged()[name]

    def merged(self) -> Dict[str, np.ndarray]:
        """Merged current-image arrays for all columns (cached)."""
        if self._cache is None:
            self._cache = {name: self._merge_column(name) for name in self._base}
        return self._cache

    def _merge_column(self, name: str) -> np.ndarray:
        arr = self._base[name]
        overrides = self._modify.get(name)
        if overrides:
            arr = arr.copy()
            idx = np.fromiter(overrides.keys(), dtype=np.int64, count=len(overrides))
            vals = list(overrides.values())
            if arr.dtype == object:
                for i, v in zip(idx, vals):
                    arr[i] = v
            else:
                arr[idx] = np.asarray(vals, dtype=arr.dtype)
        deleted = self._deleted_base
        buffers = self._insert_buffers.get(name, [])
        if not len(deleted) and not buffers:
            return arr
        return _copy_runs(arr, deleted, buffers, self.num_rows)

    # ------------------------------------------------------------------
    # writes (positions refer to the *current* image at call time)
    # ------------------------------------------------------------------
    def insert(self, values: Dict[str, np.ndarray]) -> np.ndarray:
        """Append tuples; returns the rowids they occupy afterwards."""
        if set(values) != set(self._base):
            raise KeyError("insert must provide every column exactly once")
        counts = {len(v) for v in values.values()}
        if len(counts) != 1:
            raise ValueError("insert columns must have equal length")
        n = counts.pop()
        start = self.num_rows
        for name, vals in values.items():
            base = self._base[name]
            self._insert_buffers[name].append(
                np.asarray(vals, dtype=base.dtype)
                if base.dtype != object
                else _as_object(vals)
            )
        self._insert_rows += n
        self._cache = None
        return np.arange(start, start + n, dtype=np.int64)

    def delete(self, rowids: np.ndarray) -> None:
        """Delete tuples at current-image positions ``rowids``."""
        rowids = np.unique(np.asarray(rowids, dtype=np.int64))
        if len(rowids) == 0:
            return
        if rowids[0] < 0 or rowids[-1] >= self.num_rows:
            raise IndexError("rowid out of range")
        # Fast path while no deltas are buffered: current == base positions.
        if not self.has_deltas:
            self._deleted_base = rowids
            self._cache = None
            return
        # General path: fold the current image into a new base first, so
        # current positions and base positions coincide again.
        self.checkpoint()
        self._deleted_base = rowids
        self._cache = None

    def modify(self, rowids: np.ndarray, values: Dict[str, np.ndarray]) -> None:
        """Overwrite column values at current-image positions ``rowids``."""
        rowids = np.asarray(rowids, dtype=np.int64)
        if len(rowids) and (rowids.min() < 0 or rowids.max() >= self.num_rows):
            raise IndexError("rowid out of range")
        for name in values:
            if name not in self._base:
                raise KeyError(f"unknown column {name!r}")
        if self.has_deltas:
            # Same simplification as delete: realign positions first.
            self.checkpoint()
        for name, vals in values.items():
            store = self._modify.setdefault(name, {})
            for rid, val in zip(rowids.tolist(), np.asarray(vals).tolist()):
                store[rid] = val
        self._cache = None

    # ------------------------------------------------------------------
    # checkpoint
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Fold all deltas into fresh base arrays."""
        merged = self.merged()
        self._base = {name: arr for name, arr in merged.items()}
        self._base_rows = self.num_rows
        self._insert_buffers = {c: [] for c in self._base}
        self._insert_rows = 0
        self._deleted_base = np.zeros(0, dtype=np.int64)
        self._modify = {}
        self._cache = dict(self._base)


def _copy_runs(base: np.ndarray, deleted: np.ndarray,
               buffers: List[np.ndarray], num_rows: int) -> np.ndarray:
    """``concatenate([delete(base, deleted), *buffers])`` in one allocation.

    ``deleted`` holds sorted, distinct base positions (maybe none).  The
    runs of kept base rows between the ranges of consecutive deleted
    positions, then the insert buffers, are copied into one fresh array,
    so the merge never allocates the table-sized temporary that
    ``np.delete`` hands to ``np.concatenate``.  The copy loop takes
    ~0.6 µs per run: a range delete is one run whatever its length,
    while ``k`` scattered deletes cost ``k`` runs on the next read.
    """
    out = np.empty(num_rows, dtype=base.dtype)
    # where a new range of deleted positions starts
    gaps = np.flatnonzero(np.diff(deleted) != 1) + 1
    run_starts = np.concatenate([[0], deleted[gaps - 1] + 1, deleted[-1:] + 1])
    run_stops = np.concatenate([deleted[:1], deleted[gaps], [len(base)]])
    at = 0
    for start, stop in zip(run_starts.tolist(), run_stops.tolist()):
        out[at : at + stop - start] = base[start:stop]
        at += stop - start
    for buf in buffers:
        out[at : at + len(buf)] = buf
        at += len(buf)
    return out


def _as_object(vals) -> np.ndarray:
    arr = np.empty(len(vals), dtype=object)
    arr[:] = list(vals)
    return arr
