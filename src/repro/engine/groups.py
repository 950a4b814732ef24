"""The group kernel: dense group codes for one or more key columns.

One factorisation behind :class:`~repro.engine.operators.Distinct`,
:class:`~repro.engine.operators.GroupAggregate`, ``factorize_rows`` and
the value-group steps of NUC/NSC discovery and maintenance.  Each key
column is reduced to dense int64 codes by a presence table (integers of
small span) or a sort (everything else), picked from its dtype and value
span alone; a string column enters as the ranks of its dictionary codes
(:mod:`repro.storage.column`), an object array encoded once on entry.
Groups come out in key order, NULL (``None``) first and NaN last, each
one group.  See "The
group kernel" in ``docs/architecture.md``; the join kernel shares its
span test and shift, at ``DENSE_JOIN_SPAN_FACTOR``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.storage.column import string_codes

__all__ = ["group_codes", "first_rows", "run_starts", "sorted_unique", "DENSE_SPAN_FACTOR"]

# Largest span, in multiples of the row count, factorised by presence
# table instead of by sort.  Measured on 200 k int64 keys drawn uniformly
# from a span of f * n (numpy 2.4, group_codes, best of 9): presence
# table 3.3 ms at f = 1, 5.1 at f = 2, 5.2 at f = 3, 7.5 at f = 4, 10.5
# at f = 8, 19.6 at f = 16 (the table outgrows the cache), sort 5.9–6.9
# ms at every f; 100 distinct keys: 0.5 against 4.4 ms.
DENSE_SPAN_FACTOR = 2
# The join kernel's, whose sort path also binary-searches each probe key.
# n distinct int64 build keys from a span of f * n, n probe keys (numpy
# 2.4, 2-CPU x86, locate step, best of 5): presence table 0.13/0.45/0.82/
# 1.51/2.05 ms at f = 4/8/16/32/64 against sort 1.4-1.8 at n = 10 k;
# 1.6/2.1/3.0/6.0/15.2 against 12.5-13.8 at n = 100 k, build sorted.
# Half the crossover: 2-5x faster, at most 256 B of table a build key.
DENSE_JOIN_SPAN_FACTOR = 16

_INT64_MAX = 2**63 - 1


def dense_span(arr: np.ndarray, factor: int) -> Optional[Tuple[int, int]]:
    """``(lo, span)`` of a non-empty integer column spanning at most
    ``factor`` values a row, else None."""
    lo, hi = int(arr.min()), int(arr.max())
    span = hi - lo + 1  # Python ints: int64 extremes cannot wrap
    return (lo, span) if span <= factor * len(arr) else None


def offsets_from(arr: np.ndarray, lo: int) -> np.ndarray:
    """``arr - lo`` in uint64 arithmetic: exact from ``lo`` up, and past
    any span from ``lo`` below it, unless the column's negatives meet
    uint64 values above int64."""
    wide = arr.view(np.uint64) if arr.dtype.itemsize == 8 else arr.astype(np.uint64)
    return wide - np.uint64(lo % 2**64)


def run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """True at the first element of every run of equal keys of a sorted
    array; NaNs (sorted last, unequal to themselves) count as one run,
    as in ``np.unique``."""
    starts = np.ones(len(sorted_keys), dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    if sorted_keys.dtype.kind == "f":
        starts[np.searchsorted(sorted_keys, np.nan) + 1:] = False
    return starts


def _key_array(key) -> np.ndarray:
    """A key column as an array to order: a string key's ranks, NULL
    (code -1) before every value."""
    strings = string_codes(key)
    if strings is None:
        return np.asarray(key)
    (codes,), dictionary = strings
    return dictionary.gather(dictionary.rank + 1, codes, 0)


def _column_codes(arr: np.ndarray) -> Tuple[np.ndarray, int]:
    """``(codes, cardinality)`` of one non-empty key column, in key order."""
    n = len(arr)
    kind = arr.dtype.kind
    if kind in "iub":
        if kind == "b":
            arr = arr.view(np.uint8)
        dense = dense_span(arr, DENSE_SPAN_FACTOR)
        if dense is not None:
            lo, span = dense
            shifted = offsets_from(arr, lo).view(np.int64)
            present = np.bincount(shifted, minlength=span) > 0
            if present.all():
                return shifted, span
            remap = np.cumsum(present) - 1
            return remap[shifted], int(remap[-1]) + 1
    order = np.argsort(arr)
    run_of_sorted = np.cumsum(run_starts(arr[order])) - 1
    codes = np.empty(n, dtype=np.int64)
    codes[order] = run_of_sorted
    return codes, int(run_of_sorted[-1]) + 1


def group_codes(arrays: Sequence) -> Tuple[np.ndarray, int]:
    """Dense group ids of the rows of one or more aligned key columns
    (arrays, or a string column's ``(codes, dictionary)``).

    Returns ``(codes, ngroups)``: ``codes[i]`` in ``[0, ngroups)`` is the
    rank of row ``i``'s key among the distinct keys, compared column by
    column.  Rows are equal when every column is equal, with NULL
    (``None``) equal to NULL and NaN to NaN — the grouping equality of
    SQL, not the comparison one.
    """
    arrays = [_key_array(a) for a in arrays]
    if len(arrays[0]) == 0:
        return np.zeros(0, dtype=np.int64), 0
    codes, card = _column_codes(arrays[0])
    for arr in arrays[1:]:
        col_codes, col_card = _column_codes(arr)
        if card * col_card > _INT64_MAX:
            # the radix product would wrap: card <= n after re-densifying
            codes, card = _column_codes(codes)
        codes = codes * col_card + col_codes
        card *= col_card
    if len(arrays) > 1:
        codes, card = _column_codes(codes)
    return codes, card


def first_rows(codes: np.ndarray, ngroups: int) -> np.ndarray:
    """Position of the first row of every group, by one reverse scatter."""
    first = np.empty(ngroups, dtype=np.int64)
    # walking backwards, the last write to a slot is the group's first row
    first[codes[::-1]] = np.arange(len(codes) - 1, -1, -1, dtype=np.int64)
    return first


def sorted_unique(arr: np.ndarray) -> np.ndarray:
    """The distinct values of a column in key order (what ``np.unique``
    returns, without its hash table): ``np.sort`` plus a neighbour
    compare; an object column goes through its codes."""
    arr = np.asarray(arr)
    if arr.dtype.kind == "O":
        return arr[first_rows(*group_codes([arr]))]
    sorted_keys = np.sort(arr)
    return sorted_keys[run_starts(sorted_keys)]
