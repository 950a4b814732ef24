"""The PatchIndex structure (paper §3.2/§4) in both designs.

A PatchIndex materializes the rowIDs violating an approximate constraint
on one column.  Two designs are implemented, matching the paper:

* **bitmap-based** (dense): one bit per tuple in a
  :class:`~repro.bitmap.sharded.ShardedBitmap`; constant memory
  (t/8 · 1.0039 bytes) and cheap bulk deletes.
* **identifier-based** (sparse): a sorted array of 64-bit rowIDs; memory
  grows linearly with the exception rate (e · t · 8 bytes), so the
  bitmap wins for e > 1/64 ≈ 1.56 % (§3.2, Table 3).

The index exposes the maintenance primitives §5 needs — grow with the
table, add patches, drop deleted rows — while the constraint-specific
logic lives in :mod:`repro.core.updates`.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.bitmap import ShardedBitmap
from repro.bitmap.sharded import DEFAULT_SHARD_BITS
from repro.core.constraints import Constraint, NearlySortedColumn
from repro.core.lis import order_codes
from repro.engine.groups import sorted_unique

__all__ = ["PatchIndex", "BITMAP_DESIGN", "IDENTIFIER_DESIGN"]

BITMAP_DESIGN = "bitmap"
IDENTIFIER_DESIGN = "identifier"


class PatchIndex:
    """Materialized exception set for an approximate constraint.

    Parameters
    ----------
    table:
        The (partition-local) table the index covers.
    column:
        Indexed column name.
    constraint:
        The approximate constraint (NUC/NSC instance).
    design:
        ``"bitmap"`` or ``"identifier"``.
    shard_bits:
        Shard size of the backing sharded bitmap (bitmap design only).
    """

    def __init__(
        self,
        table,
        column: str,
        constraint: Constraint,
        design: str = BITMAP_DESIGN,
        shard_bits: int = DEFAULT_SHARD_BITS,
        build: bool = True,
    ) -> None:
        if design not in (BITMAP_DESIGN, IDENTIFIER_DESIGN):
            raise ValueError(f"unknown design {design!r}")
        self.table = table
        self.column = column
        self.constraint = constraint
        self.design = design
        self._shard_bits = shard_bits
        self._num_rows = table.num_rows
        self._bitmap: Optional[ShardedBitmap] = None
        self._ids: Optional[np.ndarray] = None
        self._rowids: Optional[np.ndarray] = None  # cached patch_rowids()
        #: boundary value of the kept sorted run (NSC state, §5.1)
        self.last_sorted_value: Optional[object] = None
        if build:
            self.rebuild()
        else:
            self._init_storage(np.zeros(0, dtype=np.int64))

    # ------------------------------------------------------------------
    # build / rebuild
    # ------------------------------------------------------------------
    def _init_storage(self, patches: np.ndarray) -> None:
        self._rowids = None
        if self.design == BITMAP_DESIGN:
            self._bitmap = ShardedBitmap(self._num_rows, shard_bits=self._shard_bits)
            self._bitmap.set_many(patches)
            self._ids = None
        else:
            self._ids = np.sort(np.asarray(patches, dtype=np.int64))
            self._bitmap = None

    def rebuild(self) -> None:
        """Recompute the patch set from scratch (constraint discovery)."""
        values = self.table.column(self.column)
        self._num_rows = len(values)
        if isinstance(self.constraint, NearlySortedColumn):
            patches, last = self.constraint.initial_patches_with_state(values)
            self.last_sorted_value = last
        else:
            patches = self.constraint.initial_patches(values)
        self._init_storage(patches)

    # ------------------------------------------------------------------
    # read interface (used by the PatchIndex scan)
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Tuples the index currently covers."""
        return self._num_rows

    @property
    def num_patches(self) -> int:
        """Number of exceptions."""
        if self._bitmap is not None:
            return self._bitmap.count()
        return len(self._ids)

    @property
    def exception_rate(self) -> float:
        """Exceptions relative to the covered tuples (the paper's *e*)."""
        return self.num_patches / self._num_rows if self._num_rows else 0.0

    def patch_mask(self) -> np.ndarray:
        """Boolean array over rowIDs: True where the tuple is a patch."""
        if self._bitmap is not None:
            return self._bitmap.to_bool_array()
        mask = np.zeros(self._num_rows, dtype=bool)
        mask[self._ids] = True
        return mask

    def patch_rowids(self) -> np.ndarray:
        """Sorted patch rowIDs, as a read-only array.

        Every PatchIndex scan starts here, so the array is extracted
        from the bitmap once per change of the patch set (the identifier
        design hands out a view of its storage) and shared by all
        callers — read-only, so none can alter index state through it.
        """
        if self._rowids is None:
            rowids = self._bitmap.positions() if self._bitmap is not None else self._ids.view()
            rowids.flags.writeable = False
            self._rowids = rowids
        return self._rowids

    def is_patch_many(self, rowids: np.ndarray) -> np.ndarray:
        """Whether each of many rowIDs is an exception (boolean array)."""
        rowids = np.asarray(rowids, dtype=np.int64)
        if self._bitmap is not None:
            return self._bitmap.get_many(rowids)
        pos = np.searchsorted(self._ids, rowids)
        found = pos < len(self._ids)
        found[found] = self._ids[pos[found]] == rowids[found]
        return found

    # ------------------------------------------------------------------
    # maintenance primitives (§5)
    # ------------------------------------------------------------------
    def extend_rows(self, count: int) -> None:
        """Grow the covered rowID space after an insert statement."""
        if count < 0:
            raise ValueError("cannot extend by a negative row count")
        self._num_rows += count
        if self._bitmap is not None:
            self._bitmap.extend(count)

    def add_patches(self, rowids: Iterable[int]) -> None:
        """Mark rowIDs as exceptions (idempotent)."""
        rowids = np.asarray(
            rowids if isinstance(rowids, np.ndarray) else list(rowids), dtype=np.int64
        )
        if len(rowids) == 0:
            return
        if rowids.min() < 0 or rowids.max() >= self._num_rows:
            raise IndexError("patch rowid out of range")
        self._rowids = None
        if self._bitmap is not None:
            self._bitmap.set_many(rowids)
        else:
            # a sorted merge: one copy of the patch set plus the new ids,
            # where ``np.union1d`` would sort the whole set again
            rowids = sorted_unique(rowids)
            new = rowids[~self.is_patch_many(rowids)]
            self._ids = np.insert(self._ids, np.searchsorted(self._ids, new), new)

    def remove_rows(self, rowids: np.ndarray) -> None:
        """Drop tracking information for deleted tuples (§5.3).

        ``rowids`` are pre-statement positions; subsequent rowIDs shift
        down.  The bitmap design delegates to the sharded bitmap's bulk
        delete; the identifier design removes deleted entries and
        decrements identifiers by the number of deleted smaller rowIDs.
        """
        rowids = np.asarray(rowids, dtype=np.int64)
        if len(rowids) == 0:
            return
        self._rowids = None
        if self._bitmap is not None:
            # the bitmap dedups and range-checks the positions
            self._bitmap.bulk_delete(rowids)
            self._num_rows = len(self._bitmap)
            return
        rowids = sorted_unique(rowids)
        if rowids[0] < 0 or rowids[-1] >= self._num_rows:
            raise IndexError("rowid out of range")
        keep = self._ids[~np.isin(self._ids, rowids)]
        shift = np.searchsorted(rowids, keep, side="left")
        self._ids = (keep - shift).astype(np.int64)
        self._num_rows -= len(rowids)

    def condense(self) -> None:
        """Repack the backing bitmap, reclaiming lost bits (§4.2.4); a
        no-op for the identifier design, which has no lost capacity."""
        if self._bitmap is not None:
            self._bitmap.condense()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Memory held by the patch storage (Table 3)."""
        if self._bitmap is not None:
            return self._bitmap.memory_bytes()
        return self._ids.nbytes

    def verify(self) -> bool:
        """Check the core invariant: excluding patches satisfies the
        constraint (test/debug helper; scans the full column)."""
        values = self.table.column(self.column)
        if len(values) != self._num_rows:
            return False
        mask = self.patch_mask()
        kept = values[~mask]
        if self.constraint.kind == "nuc":
            # Strong invariant of the distinct rewrite: every kept value
            # occurs exactly once in the whole column, i.e. kept values
            # are unique and disjoint from patch values.
            if len(sorted_unique(kept)) != len(kept):
                return False
            patch_values = values[mask]
            return not bool(np.isin(kept, patch_values).any())
        if self.constraint.kind == "nsc":
            if len(kept) <= 1:
                return True
            # sorted in ORDER BY order: compare the kernel's order codes
            codes = order_codes(kept, getattr(self.constraint, "ascending", True))
            return bool(np.all(codes[1:] >= codes[:-1]))
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PatchIndex({self.table.name}.{self.column}, "
            f"{self.constraint.kind}, {self.design}, "
            f"e={self.exception_rate:.4f})"
        )
