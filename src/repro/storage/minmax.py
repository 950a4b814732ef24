"""MinMax summary tables (small materialized aggregates, paper §5 / [22]).

For buckets of ``block_size`` consecutive tuples, the minimum and maximum
column value is materialized.  Two readers consult the summaries: a scan
skips buckets that cannot hold a row its ``col op number`` conjuncts or
a join range propagated at runtime (§5.1, ``Scan.push_range``) admit,
and the NUC insert handler's dynamic range propagation probes only the
row ranges that can hold a written value — the "avoid the full table
scan" mechanism of Figure 5.  Sorted summaries are bisected.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["MinMaxIndex", "DEFAULT_BLOCK_SIZE"]

DEFAULT_BLOCK_SIZE = 4096

#: dtype kinds whose summaries come from one ``reduceat`` per summary
#: (bool, integers, floats, datetimes); object and string columns keep
#: the per-block loop, which ``min()``/``max()`` of any comparable type
#: serves.  A 200 k-row int64 or float64 column (49 blocks, 2-CPU x86
#: box): 0.35–0.38 ms for the block loop, 0.07 ms for the two ``reduceat``.
_REDUCEAT_KINDS = "biufmM"


class MinMaxIndex:
    """Per-block min/max summary over one column array, never changed."""

    _lists: Optional[Tuple[list, list]] = None  # (mins, maxs) when both never decrease

    def __init__(self, values: np.ndarray, block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self._block_size = block_size
        self._num_rows = len(values)
        if len(values) and values.dtype.kind in _REDUCEAT_KINDS:
            # one ufunc pass per summary; fmin/fmax skip NaN (NULL), so
            # only an all-NULL block summarizes to NaN
            starts = np.arange(0, len(values), block_size)
            floating = values.dtype.kind == "f"
            lower, upper = (np.fmin, np.fmax) if floating else (np.minimum, np.maximum)
            self._mins: np.ndarray = lower.reduceat(values, starts)
            self._maxs: np.ndarray = upper.reduceat(values, starts)
            # bisectable when both never decrease (an all-NULL block's NaN fails)
            ends = (self._mins, self._maxs)
            if values.dtype.kind in "iuf" and all((e[1:] >= e[:-1]).all() for e in ends):
                self._lists = (self._mins.tolist(), self._maxs.tolist())
            return
        nblocks = (len(values) + block_size - 1) // block_size
        mins: List[object] = []
        maxs: List[object] = []
        for b in range(nblocks):
            chunk = values[b * block_size : (b + 1) * block_size]
            if chunk.dtype == object:
                chunk = chunk[np.not_equal(chunk, None)]  # NULL is no value
            mins.append(chunk.min() if len(chunk) else None)
            maxs.append(chunk.max() if len(chunk) else None)
        if len(values) and values.dtype != object:
            self._mins = np.asarray(mins, dtype=values.dtype)
            self._maxs = np.asarray(maxs, dtype=values.dtype)
        else:
            self._mins = np.asarray(mins, dtype=object)
            self._maxs = np.asarray(maxs, dtype=object)

    @property
    def num_blocks(self) -> int:
        """Number of summarized buckets."""
        return len(self._mins)

    def blocks_in_range(self, lo, hi) -> np.ndarray:
        """Indexes of blocks whose [min, max] intersects [lo, hi].

        A block's range spans its non-NULL values, so a NULL never hides
        the block's other values and an all-NULL block matches nothing.
        """
        if self.num_blocks == 0:
            return np.zeros(0, dtype=np.int64)
        if self._mins.dtype == object:
            # an all-NULL block (summary None) holds no value in any range
            present = np.flatnonzero(np.not_equal(self._mins, None))
            keep = (self._maxs[present] >= lo) & (self._mins[present] <= hi)
            return present[keep].astype(np.int64)
        keep = (self._maxs >= lo) & (self._mins <= hi)
        return np.flatnonzero(keep).astype(np.int64)

    def row_ranges_in_range(self, lo, hi) -> List[Tuple[int, int]]:
        """Coalesced ``[start, end)`` row ranges possibly matching [lo, hi]."""
        lo, hi = self._bound(lo, upper=False), self._bound(hi, upper=True)
        size = self._block_size
        if self._lists is not None:
            first, last = bisect_left(self._lists[1], lo), bisect_right(self._lists[0], hi)
            return [(first * size, min(last * size, self._num_rows))] if first < last else []
        ranges: List[Tuple[int, int]] = []
        for b in self.blocks_in_range(lo, hi).tolist():
            start = b * size
            end = min(start + size, self._num_rows)
            if ranges and ranges[-1][1] == start:
                ranges[-1] = (ranges[-1][0], end)
            else:
                ranges.append((start, end))
        return ranges

    def _bound(self, value, upper: bool):
        """``value`` as numpy compares it with the column: exact, but a
        float against integers (rounded to float64, off by up to 512
        above 2**53) rounds outward, by 1024 up there.  No row compares
        true with NaN, so a NaN bound may keep any blocks."""
        kind = self._mins.dtype.kind
        if kind not in "iuf" or kind != "f" and isinstance(value, (int, np.integer)):
            return value
        try:
            x = float(value)
        except OverflowError:  # an integer beyond every float
            x = math.inf if value > 0 else -math.inf
        if kind == "f" or not math.isfinite(x):
            return x
        slack = 0 if abs(x) < 2**53 else 1024
        return math.ceil(x) + slack if upper else math.floor(x) - slack
