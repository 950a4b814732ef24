"""Range-partitioned tables (paper §3.2).

"Data partitioning is transparent for PatchIndexes, as a separate index
is created for each partition.  Constraint discovery, index creation and
query processing are performed partition-locally and in parallel."

A :class:`PartitionedTable` splits rows into contiguous partitions on a
key column (the microbenchmark datasets partition on their unique key,
§6.2).  Each partition is an ordinary :class:`~repro.storage.table.Table`
with its own positional delta structure, so PatchIndex managers attach
per partition.  Inserts route by key range (new keys beyond the last
boundary go to the final partition); deletes and modifies address tuples
by ``(partition, local rowid)`` or by global rowid.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.storage.table import Schema, Table

__all__ = ["PartitionedTable"]


class PartitionedTable:
    """A table split into contiguous key-range partitions."""

    def __init__(
        self,
        name: str,
        partitions: Sequence[Table],
        partition_key: str,
        upper_bounds: Sequence,
    ) -> None:
        if not partitions:
            raise ValueError("need at least one partition")
        if len(upper_bounds) != len(partitions) - 1:
            raise ValueError("need exactly one upper bound per partition boundary")
        schema = partitions[0].schema
        for part in partitions[1:]:
            if part.schema != schema:
                raise ValueError("all partitions must share one schema")
        self.name = name
        self.schema: Schema = schema
        self.partition_key = partition_key
        self._partitions = list(partitions)
        self._upper_bounds = list(upper_bounds)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_table(
        cls, table: Table, partition_key: str, num_partitions: int
    ) -> "PartitionedTable":
        """Range-partition an existing table on ``partition_key``.

        Rows keep their relative order inside each partition; boundaries
        are chosen as equi-depth quantiles of the key column, giving
        near-equal partition sizes for a unique key (§6.2).
        """
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        keys = table.column(partition_key)
        n = table.num_rows
        if num_partitions == 1 or n == 0:
            return cls(table.name, [table], partition_key, [])
        order = np.sort(keys)
        bound_idx = [
            int(round(i * n / num_partitions)) - 1 for i in range(1, num_partitions)
        ]
        bounds = [order[max(0, i)] for i in bound_idx]
        parts: List[Table] = []
        lower = None
        for p in range(num_partitions):
            upper = bounds[p] if p < len(bounds) else None
            mask = np.ones(n, dtype=bool)
            if lower is not None:
                mask &= keys > lower
            if upper is not None:
                mask &= keys <= upper
            cols = {c: table.column(c)[mask] for c in table.schema.names}
            parts.append(Table(f"{table.name}#{p}", table.schema, cols))
            lower = upper
        return cls(table.name, parts, partition_key, bounds)

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def partitions(self) -> List[Table]:
        """The partition tables, in key order."""
        return list(self._partitions)

    @property
    def num_partitions(self) -> int:
        return len(self._partitions)

    @property
    def num_rows(self) -> int:
        return sum(p.num_rows for p in self._partitions)

    def partition_offsets(self) -> np.ndarray:
        """Global rowid offset of each partition's first row."""
        sizes = [p.num_rows for p in self._partitions]
        return np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def column(self, name: str) -> np.ndarray:
        """Concatenated current-image column across partitions."""
        return np.concatenate([p.column(name) for p in self._partitions])

    def rowids(self) -> np.ndarray:
        """All current global rowIDs (0..num_rows), partition-major."""
        return np.arange(self.num_rows, dtype=np.int64)

    def columns(self, names: Optional[Iterable[str]] = None) -> Dict[str, np.ndarray]:
        names = list(names) if names is not None else self.schema.names
        return {n: self.column(n) for n in names}

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def _route(self, keys: np.ndarray) -> np.ndarray:
        """Partition id for each key (range routing)."""
        if not self._upper_bounds:
            return np.zeros(len(keys), dtype=np.int64)
        bounds = np.asarray(self._upper_bounds)
        return np.searchsorted(bounds, keys, side="left").astype(np.int64)

    def insert(self, values: Dict[str, np.ndarray]) -> None:
        """Insert tuples, routing each to its key-range partition."""
        keys = np.asarray(values[self.partition_key])
        parts = self._route(keys)
        for p in np.unique(parts):
            mask = parts == p
            self._partitions[int(p)].insert(
                {c: np.asarray(v)[mask] for c, v in values.items()}
            )

    def _split_global(self, rowids: np.ndarray) -> List[Tuple[int, np.ndarray]]:
        rowids = np.unique(np.asarray(rowids, dtype=np.int64))
        offsets = self.partition_offsets()
        parts = np.searchsorted(offsets, rowids, side="right") - 1
        out = []
        for p in np.unique(parts):
            mask = parts == p
            out.append((int(p), rowids[mask] - offsets[int(p)]))
        return out

    def delete_global(self, rowids: np.ndarray) -> None:
        """Delete by global rowids (offsets computed before the statement)."""
        for p, local in self._split_global(rowids):
            self._partitions[p].delete(local)

    def modify_global(self, rowids: np.ndarray, values: Dict[str, np.ndarray]) -> None:
        """Modify by global rowids; ``values`` aligned with sorted rowids."""
        rowids = np.asarray(rowids, dtype=np.int64)
        order = np.argsort(rowids, kind="stable")
        sorted_ids = rowids[order]
        aligned = {c: np.asarray(v)[order] for c, v in values.items()}
        offsets = self.partition_offsets()
        parts = np.searchsorted(offsets, sorted_ids, side="right") - 1
        for p in np.unique(parts):
            mask = parts == p
            self._partitions[int(p)].modify(
                sorted_ids[mask] - offsets[int(p)],
                {c: v[mask] for c, v in aligned.items()},
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PartitionedTable({self.name!r}, parts={self.num_partitions}, "
            f"rows={self.num_rows})"
        )
