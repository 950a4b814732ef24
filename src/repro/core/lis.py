"""Longest sorted subsequence (Fredman [12], patience sorting).

Used by NSC discovery to find a *minimal* patch set: the complement of a
longest non-decreasing (or non-increasing) subsequence is the smallest
set of rowIDs whose removal leaves the column sorted, and by the NSC
insert handler to extend the kept run (§5.1).

Values are first reduced to int order codes in the order ``ORDER BY``
gives them (an integer column is its own codes): NULL (``None``) and NaN
after every value, descending order negating the codes.  The patience
kernel then finds a longest
non-decreasing subsequence of the codes with the classic rule — each
code replaces the first pile tail strictly greater than it
(``bisect_right``), appending a new pile when there is none — and
parent pointers for the reconstruction.

The kernel does Python work per *run*, not per row.  The codes split at
every descent into non-decreasing runs.  Once one element of a run
appends to the top pile (``c >= tails[-1]``), every later element of
the run is at least as large and appends too, each with its predecessor
as parent.  So only run heads and elements below the top pile need a
``bisect_right``; the rest of a run is one bulk extension of the piles.
The result is index-for-index the per-row loop's: same piles, same
parents, same tie rule.  On nearly sorted data (a few exceptions in a
sorted backbone) the interpreter thus loops over the ~2·e·n runs rather
than the n rows.
"""

from __future__ import annotations

from bisect import bisect_right
import numpy as np

from repro.engine.groups import group_codes

__all__ = ["longest_nondecreasing", "longest_sorted_subsequence", "order_codes"]

# Fewest remaining run elements that append as one slice rather than one
# by one.  Kernel time in ms (2-CPU x86 box, Python 3.11, numpy 2.4,
# median of 11 interleaved runs) on the 200 k-row spine columns
# facts_e01.s / facts_e20.s / lineitem.l_orderkey (180 k) / a random
# column, by threshold: 2 -> 33.6 / 142 / 55.0 / 139; 4 -> 33.0 / 134 /
# 54.9 / 147; 8 -> 32.9 / 130 / 55.3 / 147; 16 -> 33.3 / 133 / 57.6 /
# 137; 32 -> 33.1 / 138 / 64.4 / 139.  Flat from 4 to 16: below, the
# slices' fixed cost shows; above, the one-by-one appends do.
BULK_MIN = 8


def order_codes(values: np.ndarray, ascending: bool = True) -> np.ndarray:
    """Int codes in ``ORDER BY`` order, reversed for descending.

    An integer column is its own codes (``~values`` descending, which
    cannot overflow).  Otherwise the group kernel ranks NULL (``None``)
    first; ``Sort`` places it after every value (like NaN), so the NULL
    group moves to the top code here.  Descending order negates the
    codes, which puts NULL and NaN first, as ``ORDER BY ... DESC`` does.
    """
    values = np.asarray(values)
    if values.dtype.kind == "i":
        return values if ascending else ~values
    codes, ngroups = group_codes([values])
    # code 0 is the NULL group whenever an object column holds a NULL
    if values.dtype.kind == "O" and ngroups and values[int(np.argmin(codes))] is None:
        codes -= 1
        codes[codes < 0] = ngroups - 1
    return codes if ascending else -codes


def longest_nondecreasing(codes: np.ndarray) -> np.ndarray:
    """Ascending positions of one longest non-decreasing subsequence of
    the int ``codes`` (the patience run kernel, see the module doc)."""
    n = len(codes)
    ends = (np.flatnonzero(codes[1:] < codes[:-1]) + 1).tolist()
    if not ends:  # no descent: every position (the kernel took 9 ms on 200 k rows)
        return np.arange(n, dtype=np.int64)
    code_list = codes.tolist()  # python ints: bisect on a list is fastest
    ends.append(n)
    # pile 0 is a sentinel below every code, so every bisect lands on a
    # pile >= 1 and the parent of a pile-1 element reads as -1
    tails = [int(codes.min()) - 1]  # smallest tail code of each pile
    tail_idx = [-1]  # the element holding each tail
    # parent[i] >= -1 is the element before i in its sorted run;
    # parent[i] = -2 - h marks i as inside a bulk extension headed by h,
    # every element of which has its predecessor as parent
    parent = [-1] * n
    start = 0
    for end in ends:
        for i in range(start, end):
            c = code_list[i]
            if c >= tails[-1]:
                parent[i] = tail_idx[-1]
                if end - i >= BULK_MIN:
                    parent[i + 1:end] = [-2 - i] * (end - i - 1)
                    tails += code_list[i:end]
                    tail_idx += range(i, end)
                    break
                tails.append(c)
                tail_idx.append(i)
            else:
                pos = bisect_right(tails, c)
                tails[pos] = c
                tail_idx[pos] = i
                parent[i] = tail_idx[pos - 1]
        start = end
    last = tail_idx[-1]
    del tails, tail_idx, code_list  # free the piles before the walk allocates
    return _reconstruct(parent, last, n)


def _reconstruct(parent: list, last: int, n: int) -> np.ndarray:
    """Walk the parent pointers back from ``last``, a bulk extension as
    one step (its elements are consecutive positions)."""
    singles = []
    lo = []  # first and one-past-last element of each bulk piece
    hi = []
    i = last
    while i >= 0:
        p = parent[i]
        if p < -1:
            head = -2 - p
            lo.append(head)
            hi.append(i + 1)
            i = parent[head]
        else:
            singles.append(i)
            i = p
    keep = np.zeros(n, dtype=bool)
    keep[singles] = True
    if lo:
        lo_arr = np.array(lo, dtype=np.int64)
        lengths = np.array(hi, dtype=np.int64) - lo_arr
        offsets = np.cumsum(lengths) - lengths
        keep[np.repeat(lo_arr - offsets, lengths) + np.arange(int(lengths.sum()))] = True
    return np.flatnonzero(keep)


def longest_sorted_subsequence(
    values: np.ndarray, ascending: bool = True
) -> np.ndarray:
    """Indices (sorted, ascending positions) of one longest sorted run.

    "Sorted" means non-decreasing for ``ascending=True`` and
    non-increasing otherwise, in ``ORDER BY`` order (NULL and NaN
    last), so duplicate values extend the sequence — matching the sort
    operator's stable semantics.
    """
    return longest_nondecreasing(order_codes(values, ascending))
