"""Minimal patch-set discovery for NUC and NSC (paper §3.1, from [18]).

Discovery determines the minimal set of rowIDs that makes the
PatchIndex query plans of §3.3 correct:

* **NUC** — every tuple whose value occurs more than once is a patch.
  Excluding the patches leaves only globally unique values, so the
  distinct plan of Figure 2 can combine the (aggregation-free) non-patch
  flow with the aggregated patch flow using a plain Union: the two value
  sets are disjoint.  This matches §5.1, where an insert collision turns
  *both* join sides into patches.
* **NSC** — the complement of a longest sorted subsequence.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.lis import longest_sorted_subsequence
from repro.engine.groups import group_codes

__all__ = ["discover_nuc_patches", "discover_nsc_patches"]


def discover_nuc_patches(values: np.ndarray) -> np.ndarray:
    """RowIDs of all tuples whose value is not globally unique.

    Returns sorted patch rowIDs; excluding them leaves only values that
    occur exactly once in the column, and the patch/non-patch value sets
    are disjoint (the invariant the distinct rewrite relies on).
    """
    codes, ngroups = group_codes([values])
    return np.flatnonzero(np.bincount(codes, minlength=ngroups)[codes] > 1)


def discover_nsc_patches(
    values: np.ndarray, ascending: bool = True
) -> Tuple[np.ndarray, object]:
    """RowIDs violating sortedness, plus the sorted run's boundary value.

    Returns ``(patches, last_value)`` where ``last_value`` is the final
    (largest for ascending, smallest for descending) value of the kept
    sorted subsequence — the state the insert handler extends from
    (§5.1).  ``last_value`` is None for an empty column.
    """
    n = len(values)
    if n == 0:
        return np.zeros(0, dtype=np.int64), None
    keep = longest_sorted_subsequence(values, ascending)
    mask = np.ones(n, dtype=bool)
    mask[keep] = False
    patches = np.flatnonzero(mask).astype(np.int64)
    last_value = values[keep[-1]] if len(keep) else None
    return patches, last_value
