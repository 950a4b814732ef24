"""Materialized views over distinct queries (baseline of §6.2).

The paper simulates materialized views by storing the materialized
information in a separate table and manually rewriting queries; this
class does the same.  A distinct query on the source column becomes a
plain scan of the view table.  The major drawback is update support:
the view must be recomputed to stay consistent (§6: "Typically, they
need to be re-computed when updates occur").
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.engine.groups import sorted_unique
from repro.storage.table import Table

__all__ = ["MaterializedView"]

REFRESH_IMMEDIATE = "immediate"
REFRESH_MANUAL = "manual"


class MaterializedView:
    """Distinct values of ``table.column`` materialized as a table."""

    def __init__(
        self,
        table,
        column: str,
        name: Optional[str] = None,
        refresh_policy: str = REFRESH_IMMEDIATE,
    ) -> None:
        if refresh_policy not in (REFRESH_IMMEDIATE, REFRESH_MANUAL):
            raise ValueError(f"unknown refresh policy {refresh_policy!r}")
        self.source = table
        self.column = column
        self.name = name or f"{table.name}__distinct_{column}"
        self.refresh_policy = refresh_policy
        self.refresh_count = 0
        self.view: Table = self._compute()
        self._source_version = table.version
        self._hooked: List[Table] = []
        if refresh_policy == REFRESH_IMMEDIATE:
            for part in table.partitions:
                part.add_update_hook(self._on_update)
                self._hooked.append(part)

    def _compute(self) -> Table:
        values = sorted_unique(self.source.column(self.column))
        return Table.from_arrays(self.name, {self.column: values})

    def _on_update(self, table, event) -> None:
        self.refresh()

    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Recompute the view from the base table."""
        self.view = self._compute()
        self._source_version = self.source.version
        self.refresh_count += 1

    @property
    def is_stale(self) -> bool:
        """Whether base-table updates postdate the last refresh."""
        return self.source.version != self._source_version

    def scan_values(self) -> np.ndarray:
        """The materialized distinct values (the rewritten query)."""
        return self.view.column(self.column)

    def memory_bytes(self) -> int:
        """Bytes held by the materialized values (Table 3 comparison)."""
        col = self.view.column(self.column)
        if col.dtype == object:
            return int(sum(len(str(v)) for v in col)) + col.nbytes
        return col.nbytes

    def detach(self) -> None:
        """Stop auto-refreshing."""
        for part in self._hooked:
            part.remove_update_hook(self._on_update)
        self._hooked = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MaterializedView({self.source.name}.{self.column}, rows={self.view.num_rows})"
