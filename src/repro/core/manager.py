"""PatchIndex lifecycle management and partition transparency (§3.2).

The manager creates indexes, hooks them into their tables' update
streams, optionally monitors the exception rate to trigger a global
recomputation (the mitigation §5.1/§5.3 suggest for lost optimality),
and hides partitioning: on a :class:`~repro.storage.partition.
PartitionedTable` a separate index is created per partition and a
:class:`PartitionedPatchIndex` presents them as one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bitmap import ParallelBulkDeleter
from repro.bitmap.sharded import DEFAULT_SHARD_BITS
from repro.core.constraints import Constraint
from repro.engine.parallel import validate_parallelism
from repro.core.patchindex import BITMAP_DESIGN, PatchIndex
from repro.core.updates import apply_update
from repro.storage.catalog import Catalog
from repro.storage.partition import PartitionedTable
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
        recompute_threshold: Optional[float] = None,
    ) -> None:
        self.index = index
        self.table = table
        self.dynamic_range_propagation = dynamic_range_propagation
        self.recompute_threshold = recompute_threshold
        self.recompute_count = 0
        table.add_update_hook(self._on_update)

    def _on_update(self, table: Table, event) -> None:
        apply_update(
            self.index, table, event,
            dynamic_range_propagation=self.dynamic_range_propagation,
        )
        if (
            self.recompute_threshold is not None
            and self.index.exception_rate > self.recompute_threshold
        ):
            self.index.rebuild()
            self.recompute_count += 1

    def detach(self) -> None:
        """Stop maintaining the index."""
        self.table.remove_update_hook(self._on_update)


class PartitionedPatchIndex:
    """Partition-local PatchIndexes presented as one table-level index.

    RowIDs are global (partition offsets added), matching the rowIDs a
    scan of the partitioned table restricts itself to.
    """

    def __init__(
        self,
        table: PartitionedTable,
        parts: List[MaintainedIndex],
        pool: Optional[ParallelBulkDeleter] = None,
    ) -> None:
        self.table = table
        self.parts = parts
        #: delete+condense pool shared by every partition-local index
        self._pool = pool

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
            p.index.close()  # releases partition-owned pools (no-op for shared)
        if self._pool is not None:
            self._pool.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PartitionedPatchIndex({self.table.name}.{self.column}, "
            f"parts={len(self.parts)}, e={self.exception_rate:.4f})"
        )


class PatchIndexManager:
    """Creates, registers and drops maintained PatchIndexes."""

    def __init__(self, catalog: Optional[Catalog] = None) -> None:
        self.catalog = catalog
        self._indexes: Dict[Tuple[str, str], object] = {}

    def create(
        self,
        table,
        column: str,
        constraint: Constraint,
        design: str = BITMAP_DESIGN,
        shard_bits: int = DEFAULT_SHARD_BITS,
        parallel_deletes: bool = False,
        parallelism: int = 1,
        condense_threshold: Optional[float] = None,
        dynamic_range_propagation: bool = True,
        recompute_threshold: Optional[float] = None,
    ):
        """Build and attach a PatchIndex; returns the queryable index.

        For a partitioned table this creates one index per partition
        (partition-local discovery, §3.2) and returns the combined
        :class:`PartitionedPatchIndex`; otherwise the bare
        :class:`~repro.core.patchindex.PatchIndex` is returned.
        ``parallelism`` and ``condense_threshold`` configure the
        maintenance pool and auto-condense of every created index (the
        same knob semantics as :class:`~repro.core.patchindex.PatchIndex`).
        """
        key = (table.name, column)
        if key in self._indexes:
            raise ValueError(f"PatchIndex on {table.name}.{column} already exists")
        validate_parallelism(parallelism)
        if isinstance(table, PartitionedTable):
            # one delete+condense pool shared by all partition-local
            # indexes — parallelism bounds the table's worker threads,
            # not each partition's
            pool = (
                ParallelBulkDeleter(max_workers=parallelism)
                if parallelism > 1
                else None
            )
            parts = [
                MaintainedIndex(
                    PatchIndex(
                        part, column, _clone_constraint(constraint),
                        design=design, shard_bits=shard_bits,
                        parallel_deletes=parallel_deletes,
                        condense_threshold=condense_threshold,
                        maintenance_pool=pool,
                    ),
                    part,
                    dynamic_range_propagation=dynamic_range_propagation,
                    recompute_threshold=recompute_threshold,
                )
                for part in table.partitions
            ]
            handle: object = PartitionedPatchIndex(table, parts, pool=pool)
        else:
            maintained = MaintainedIndex(
                PatchIndex(
                    table, column, constraint,
                    design=design, shard_bits=shard_bits,
                    parallel_deletes=parallel_deletes,
                    parallelism=parallelism,
                    condense_threshold=condense_threshold,
                ),
                table,
                dynamic_range_propagation=dynamic_range_propagation,
                recompute_threshold=recompute_threshold,
            )
            handle = _SingleIndexHandle(maintained)
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

    def indexes(self) -> List[object]:
        """All maintained index handles."""
        return list(self._indexes.values())


class _SingleIndexHandle:
    """Uniform facade over a single maintained index."""

    def __init__(self, maintained: MaintainedIndex) -> None:
        self._maintained = maintained

    @property
    def index(self) -> PatchIndex:
        return self._maintained.index

    @property
    def column(self) -> str:
        return self._maintained.index.column

    @property
    def constraint(self) -> Constraint:
        return self._maintained.index.constraint

    @property
    def num_rows(self) -> int:
        return self._maintained.index.num_rows

    @property
    def num_patches(self) -> int:
        return self._maintained.index.num_patches

    @property
    def exception_rate(self) -> float:
        return self._maintained.index.exception_rate

    def patch_rowids(self) -> np.ndarray:
        return self._maintained.index.patch_rowids()

    def memory_bytes(self) -> int:
        return self._maintained.index.memory_bytes()

    def condense(self) -> None:
        self._maintained.index.condense()

    def verify(self) -> bool:
        return self._maintained.index.verify()

    def detach(self) -> None:
        self._maintained.detach()
        self._maintained.index.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return repr(self._maintained.index)


def _clone_constraint(constraint: Constraint) -> Constraint:
    """Fresh constraint instance per partition (NSC carries state)."""
    if hasattr(constraint, "ascending"):
        return type(constraint)(ascending=constraint.ascending)  # type: ignore[call-arg]
    return type(constraint)()
