"""PatchIndex core: approximate constraints, discovery and maintenance.

This package implements the paper's primary contribution: the
:class:`~repro.core.patchindex.PatchIndex` materializes the set of
exceptions ("patches") to an approximate constraint — a nearly unique
column (NUC) or nearly sorted column (NSC) — and keeps that set correct
under inserts, modifies and deletes without index recomputation or full
table scans (§5).
"""

from repro.core.constraints import (
    Constraint,
    NearlySortedColumn,
    NearlyUniqueColumn,
)
from repro.core.discovery import discover_nsc_patches, discover_nuc_patches
from repro.core.lis import longest_sorted_subsequence
from repro.core.patchindex import (
    BITMAP_DESIGN,
    IDENTIFIER_DESIGN,
    PatchIndex,
)
from repro.core.manager import PatchIndexManager, PartitionedPatchIndex

__all__ = [
    "Constraint",
    "NearlyUniqueColumn",
    "NearlySortedColumn",
    "discover_nuc_patches",
    "discover_nsc_patches",
    "longest_sorted_subsequence",
    "PatchIndex",
    "BITMAP_DESIGN",
    "IDENTIFIER_DESIGN",
    "PatchIndexManager",
    "PartitionedPatchIndex",
]
