"""SortKey materialization (baseline of §6.2).

A SortKey physically orders table data on one column, so a sort query
degenerates to a scan (plus, for partitioned tables, a merge of the
per-partition streams, §6.2).  Creating it is expensive — the data is
physically reordered — and only one SortKey can exist per table, unlike
PatchIndexes which leave the physical order untouched (§6.2.3).

We materialize the ordered data as a separate sorted copy (our tables
do not support in-place reordering), which is equivalent for both query
and maintenance cost accounting.  Updates re-sort (recompute) the copy,
one stable sort per partition (:mod:`repro.engine.sort`).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.engine.sort import merge_sorted_runs, serial_sort_permutation
from repro.storage.table import Table

__all__ = ["SortKey"]

REFRESH_IMMEDIATE = "immediate"
REFRESH_MANUAL = "manual"


class SortKey:
    """Physically sorted materialization of a table on one column."""

    def __init__(
        self,
        table,
        column: str,
        ascending: bool = True,
        refresh_policy: str = REFRESH_IMMEDIATE,
        catalog=None,
    ) -> None:
        if refresh_policy not in (REFRESH_IMMEDIATE, REFRESH_MANUAL):
            raise ValueError(f"unknown refresh policy {refresh_policy!r}")
        self.source = table
        self.column = column
        self.ascending = ascending
        self.refresh_policy = refresh_policy
        self.refresh_count = 0
        self._scan_order: Optional[np.ndarray] = None
        self.sorted_parts: List[Table] = self._compute()
        self._source_version = table.version
        self._hooked: List[Table] = []
        if refresh_policy == REFRESH_IMMEDIATE:
            for part in table.partitions:
                part.add_update_hook(self._on_update)
                self._hooked.append(part)
        if catalog is not None:
            catalog.add_structure("sortkey", table.name, column, self)

    # ------------------------------------------------------------------
    def _sorted_copy(self, base: Table) -> Table:
        order = serial_sort_permutation([base.column(self.column)], [self.ascending])
        cols = {c: base.column(c)[order] for c in base.schema.names}
        return Table(f"{base.name}__sorted_{self.column}", base.schema, cols)

    def _compute(self) -> List[Table]:
        return [self._sorted_copy(base) for base in self.source.partitions]

    def _on_update(self, table, event) -> None:
        self.refresh()

    def refresh(self) -> None:
        """Physically re-sort (the expensive maintenance path)."""
        self.sorted_parts = self._compute()
        self._scan_order = None
        self._source_version = self.source.version
        self.refresh_count += 1

    @property
    def is_stale(self) -> bool:
        return self.source.version != self._source_version

    # ------------------------------------------------------------------
    def _merge_order(self) -> np.ndarray:
        """Global merge permutation over the concatenated sorted parts.

        Computed once per refresh and cached: repeated scans — in
        particular scans requesting only a column subset — no longer
        re-materialize the full permutation.  Both directions merge the
        per-partition runs with the deterministic k-way merge, equal keys
        in partition order: bit-identical to the stable sort of the
        concatenation in the SortKey's direction.
        """
        if self._scan_order is None:
            key_arrays = [p.column(self.column) for p in self.sorted_parts]
            self._scan_order = merge_sorted_runs(key_arrays, self.ascending)
        return self._scan_order

    def scan_sorted(self, columns: Optional[List[str]] = None) -> dict:
        """Globally ordered columns: per-partition scans plus a merge.

        Only the requested columns are concatenated and gathered; the
        merge permutation itself is shared across calls (see
        :meth:`_merge_order`).
        """
        columns = columns or self.source.schema.names
        if len(self.sorted_parts) == 1:
            part = self.sorted_parts[0]
            return {c: part.column(c) for c in columns}
        order = self._merge_order()
        return {
            c: np.concatenate([p.column(c) for p in self.sorted_parts])[order]
            for c in columns
        }

    def memory_bytes(self) -> int:
        """Extra storage: zero beyond the reordered data itself (§6.4)."""
        return 0

    def detach(self) -> None:
        """Stop auto-refreshing."""
        for part in self._hooked:
            part.remove_update_hook(self._on_update)
        self._hooked = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SortKey({self.source.name}.{self.column}, parts={len(self.sorted_parts)})"
