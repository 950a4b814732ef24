"""Approximate constraint definitions (paper §3.1).

A constraint couples discovery with the per-statement maintenance
semantics of Table 1.  New constraint kinds plug in by subclassing
:class:`Constraint` (the expandability path of §5.5): implement the
initial fill plus insert/modify behaviour; delete handling is generic
(drop tracking information) and lives in the PatchIndex itself.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.discovery import discover_nsc_patches, discover_nuc_patches
from repro.core.lis import longest_sorted_subsequence

__all__ = [
    "Constraint",
    "NearlyUniqueColumn",
    "NearlySortedColumn",
]


class Constraint:
    """Interface for approximate constraints maintained by a PatchIndex."""

    #: short tag used in catalogs and reports ("nuc", "nsc", ...)
    kind: str = "abstract"

    def initial_patches(self, values: np.ndarray) -> np.ndarray:
        """Minimal patch rowIDs for a freshly indexed column."""
        raise NotImplementedError


class NearlyUniqueColumn(Constraint):
    """NUC: all values distinct, except the patches."""

    kind = "nuc"

    def initial_patches(self, values: np.ndarray) -> np.ndarray:
        return discover_nuc_patches(values)


class NearlySortedColumn(Constraint):
    """NSC: values sorted (non-decreasing/non-increasing), except patches.

    Carries the per-index state the insert handler needs: the boundary
    value of the materialized sorted subsequence (§5.1).
    """

    kind = "nsc"

    def __init__(self, ascending: bool = True) -> None:
        self.ascending = ascending

    def initial_patches(self, values: np.ndarray) -> np.ndarray:
        patches, _ = discover_nsc_patches(values, self.ascending)
        return patches

    def initial_patches_with_state(
        self, values: np.ndarray
    ) -> Tuple[np.ndarray, Optional[object]]:
        """Patches plus the last value of the kept sorted run."""
        return discover_nsc_patches(values, self.ascending)

    def extend_sorted_run(
        self, inserted: np.ndarray, last_value: Optional[object]
    ) -> Tuple[np.ndarray, Optional[object]]:
        """Local extension of the sorted run over inserted values (§5.1).

        Only values beyond ``last_value`` may extend the run; among them a
        longest sorted subsequence is kept.  Returns the positions (into
        ``inserted``) that join the run and the new boundary value.  The
        globally longest subsequence may be lost — the accepted
        optimality trade-off of §5.1.
        """
        n = len(inserted)
        if n == 0:
            return np.zeros(0, dtype=np.int64), last_value
        if last_value is None:
            eligible = np.arange(n, dtype=np.int64)
        elif self.ascending:
            eligible = np.flatnonzero(inserted >= last_value).astype(np.int64)
        else:
            eligible = np.flatnonzero(inserted <= last_value).astype(np.int64)
        if len(eligible) == 0:
            return np.zeros(0, dtype=np.int64), last_value
        keep_local = longest_sorted_subsequence(inserted[eligible], self.ascending)
        keep = eligible[keep_local]
        new_last = inserted[keep[-1]] if len(keep) else last_value
        return keep, new_last
