"""MinMax summary tables (small materialized aggregates, paper §5 / [22]).

For buckets of ``block_size`` consecutive tuples, the minimum and maximum
column value is materialized.  Scans evaluate selection predicates (or
join ranges propagated at runtime, §5.1) against the bucket summaries and
skip buckets that cannot contain qualifying tuples — the "avoid the full
table scan" mechanism of the insert-handling query in Figure 5.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

__all__ = ["MinMaxIndex", "DEFAULT_BLOCK_SIZE"]

DEFAULT_BLOCK_SIZE = 4096


class MinMaxIndex:
    """Per-block min/max summary over one column array."""

    def __init__(self, values: np.ndarray, block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self._block_size = block_size
        self._num_rows = len(values)
        nblocks = (len(values) + block_size - 1) // block_size
        mins: List[object] = []
        maxs: List[object] = []
        for b in range(nblocks):
            chunk = values[b * block_size : (b + 1) * block_size]
            mins.append(chunk.min())
            maxs.append(chunk.max())
        if len(values) and values.dtype != object:
            self._mins: np.ndarray = np.asarray(mins, dtype=values.dtype)
            self._maxs: np.ndarray = np.asarray(maxs, dtype=values.dtype)
        else:
            self._mins = np.asarray(mins, dtype=object)
            self._maxs = np.asarray(maxs, dtype=object)

    @property
    def num_blocks(self) -> int:
        """Number of summarized buckets."""
        return len(self._mins)

    def blocks_in_range(self, lo, hi) -> np.ndarray:
        """Indexes of blocks whose [min, max] intersects [lo, hi]."""
        if self.num_blocks == 0:
            return np.zeros(0, dtype=np.int64)
        keep = (self._maxs >= lo) & (self._mins <= hi)
        return np.flatnonzero(keep).astype(np.int64)

    def row_ranges_in_range(self, lo, hi) -> List[Tuple[int, int]]:
        """Coalesced ``[start, end)`` row ranges possibly matching [lo, hi]."""
        blocks = self.blocks_in_range(lo, hi)
        ranges: List[Tuple[int, int]] = []
        for b in blocks:
            start = int(b) * self._block_size
            end = min(start + self._block_size, self._num_rows)
            if ranges and ranges[-1][1] == start:
                ranges[-1] = (ranges[-1][0], end)
            else:
                ranges.append((start, end))
        return ranges

    def row_mask_in_range(self, lo, hi) -> np.ndarray:
        """Boolean mask over all rows: True where the block may match."""
        mask = np.zeros(self._num_rows, dtype=bool)
        for start, end in self.row_ranges_in_range(lo, hi):
            mask[start:end] = True
        return mask
