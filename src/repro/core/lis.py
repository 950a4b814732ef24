"""Longest sorted subsequence (Fredman [12], patience sorting).

Used by NSC discovery to find a *minimal* patch set: the complement of a
longest non-decreasing (or non-increasing) subsequence is the smallest
set of rowIDs whose removal leaves the column sorted.  Runs in
O(n log n) via binary search over pile tails, with parent pointers for
reconstruction.

Arbitrary (including string) values are supported by reducing to dense
order codes first; descending order negates the codes.
"""

from __future__ import annotations

from bisect import bisect_right
import numpy as np

from repro.engine.groups import group_codes

__all__ = ["longest_sorted_subsequence", "order_codes"]


def order_codes(values: np.ndarray, ascending: bool = True) -> np.ndarray:
    """Map values to dense int codes preserving (or reversing) order."""
    codes, _ = group_codes([values])
    return codes if ascending else -codes


def longest_sorted_subsequence(
    values: np.ndarray, ascending: bool = True
) -> np.ndarray:
    """Indices (sorted, ascending positions) of one longest sorted run.

    "Sorted" means non-decreasing for ``ascending=True`` and
    non-increasing otherwise, so duplicate values extend the sequence —
    matching the sort operator's stable semantics.
    """
    n = len(values)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    codes = order_codes(values, ascending)
    tails: list = []  # smallest tail code of an increasing run of length i+1
    tail_idx = np.empty(n, dtype=np.int64)  # index holding tails[i]
    parent = np.full(n, -1, dtype=np.int64)
    code_list = codes.tolist()  # python ints: bisect on a list is fastest
    length = 0
    for i, c in enumerate(code_list):
        # non-decreasing: replace the first tail strictly greater than c
        pos = bisect_right(tails, c)
        if pos == length:
            tails.append(c)
            length += 1
        else:
            tails[pos] = c
        tail_idx[pos] = i
        parent[i] = tail_idx[pos - 1] if pos > 0 else -1
    # reconstruct
    out = np.empty(length, dtype=np.int64)
    i = tail_idx[length - 1]
    for k in range(length - 1, -1, -1):
        out[k] = i
        i = parent[i]
    return out


def lis_length(values: np.ndarray, ascending: bool = True) -> int:
    """Length of the longest sorted subsequence (no reconstruction)."""
    return len(longest_sorted_subsequence(values, ascending))
