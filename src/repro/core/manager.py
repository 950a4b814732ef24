"""PatchIndex lifecycle management and partition transparency (§3.2).

The manager creates indexes, hooks them into their tables' update
streams and hides partitioning: every table is a list of partitions (a
plain :class:`~repro.storage.table.Table` is a list of one), a separate
index is created per partition and a :class:`PartitionedPatchIndex`
presents them as one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bitmap.sharded import DEFAULT_SHARD_BITS
from repro.core.constraints import Constraint
from repro.core.patchindex import BITMAP_DESIGN, PatchIndex
from repro.core.updates import apply_update
from repro.storage.catalog import AnyTable, Catalog
from repro.storage.table import Table

__all__ = ["PatchIndexManager", "PartitionedPatchIndex", "MaintainedIndex"]

STRUCTURE_KIND = "patchindex"


class MaintainedIndex:
    """A PatchIndex wired to its table's update hook."""

    def __init__(
        self,
        index: PatchIndex,
        table: Table,
        dynamic_range_propagation: bool = True,
    ) -> None:
        self.index = index
        self.table = table
        self.dynamic_range_propagation = dynamic_range_propagation
        table.add_update_hook(self._on_update)

    def _on_update(self, table: Table, event) -> None:
        apply_update(
            self.index, table, event,
            dynamic_range_propagation=self.dynamic_range_propagation,
        )

    def detach(self) -> None:
        """Stop maintaining the index."""
        self.table.remove_update_hook(self._on_update)


class PartitionedPatchIndex:
    """Partition-local PatchIndexes presented as one table-level index.

    RowIDs are global (partition offsets added), matching the rowIDs a
    scan of the table restricts itself to.  ``parts[i].index`` is the
    index of the table's ``i``-th partition.
    """

    def __init__(self, table: AnyTable, parts: List[MaintainedIndex]) -> None:
        self.table = table
        self.parts = parts

    @property
    def column(self) -> str:
        return self.parts[0].index.column

    @property
    def constraint(self) -> Constraint:
        return self.parts[0].index.constraint

    @property
    def num_rows(self) -> int:
        return sum(p.index.num_rows for p in self.parts)

    @property
    def num_patches(self) -> int:
        return sum(p.index.num_patches for p in self.parts)

    @property
    def exception_rate(self) -> float:
        rows = self.num_rows
        return self.num_patches / rows if rows else 0.0

    def patch_rowids(self) -> np.ndarray:
        if len(self.parts) == 1:  # the index's own cached read-only array
            return self.parts[0].index.patch_rowids()
        offsets = self.table.partition_offsets()
        return np.concatenate(
            [p.index.patch_rowids() + offsets[i] for i, p in enumerate(self.parts)]
        )

    def memory_bytes(self) -> int:
        return sum(p.index.memory_bytes() for p in self.parts)

    def condense(self) -> None:
        """Condense every partition-local index (§4.2.4)."""
        for p in self.parts:
            p.index.condense()

    def verify(self) -> bool:
        return all(p.index.verify() for p in self.parts)

    def detach(self) -> None:
        for p in self.parts:
            p.detach()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PartitionedPatchIndex({self.table.name}.{self.column}, "
            f"parts={len(self.parts)}, e={self.exception_rate:.4f})"
        )


class PatchIndexManager:
    """Creates, registers and drops maintained PatchIndexes."""

    def __init__(self, catalog: Optional[Catalog] = None) -> None:
        self.catalog = catalog
        self._indexes: Dict[Tuple[str, str], PartitionedPatchIndex] = {}

    def create(
        self,
        table: AnyTable,
        column: str,
        constraint: Constraint,
        design: str = BITMAP_DESIGN,
        shard_bits: int = DEFAULT_SHARD_BITS,
        dynamic_range_propagation: bool = True,
    ) -> PartitionedPatchIndex:
        """Build and attach one PatchIndex per partition; returns the handle.

        Discovery is partition-local (§3.2); a plain table is one
        partition.  The returned :class:`PartitionedPatchIndex` answers
        for the whole table.
        """
        key = (table.name, column)
        if key in self._indexes:
            raise ValueError(f"PatchIndex on {table.name}.{column} already exists")
        parts = [
            MaintainedIndex(
                PatchIndex(
                    part, column, _clone_constraint(constraint),
                    design=design, shard_bits=shard_bits,
                ),
                part,
                dynamic_range_propagation=dynamic_range_propagation,
            )
            for part in table.partitions
        ]
        handle = PartitionedPatchIndex(table, parts)
        self._indexes[key] = handle
        if self.catalog is not None:
            self.catalog.add_structure(STRUCTURE_KIND, table.name, column, handle)
        return handle

    def get(self, table_name: str, column: str):
        """Look a maintained index up, or None."""
        return self._indexes.get((table_name, column))

    def drop(self, table_name: str, column: str) -> None:
        """Detach and forget an index."""
        handle = self._indexes.pop((table_name, column), None)
        if handle is not None:
            handle.detach()
        if self.catalog is not None:
            self.catalog.remove_structure(STRUCTURE_KIND, table_name, column)

    def indexes(self) -> List[PartitionedPatchIndex]:
        """All maintained index handles."""
        return list(self._indexes.values())


def _clone_constraint(constraint: Constraint) -> Constraint:
    """A fresh constraint instance for each partition's index."""
    if hasattr(constraint, "ascending"):
        return type(constraint)(ascending=constraint.ascending)  # type: ignore[call-arg]
    return type(constraint)()
