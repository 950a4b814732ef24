"""Update-query handling for PatchIndexes (paper §5, Table 1).

The handlers keep the invariant *"the index holds all exceptions to the
constraint"* under inserts, modifies and deletes while avoiding both a
full index recomputation and a full table scan:

* **NUC insert/modify** — run the insert-handling join of Figure 5: the
  touched values (from the statement's :class:`UpdateEvent`) are the build
  side of the engine's equi-join kernel and the indexed column is its
  probe side; dynamic range propagation restricts the probe to the
  blocks whose minmax summary overlaps the touched values, and on an
  integer column a hashed membership table of the touched values
  prefilters long probe slices.  The rowIDs of *both* join sides of
  every collision are merged into the patches, so duplicated values
  never appear in the non-patch flow.  Measured and not kept: pruning
  per block against each touched value instead of their global
  [min, max] (ROADMAP item 4(a)).  On 50-row inserts of scattered
  values into 200 k rows it kept 95 % of the blocks, as the global
  range does.
* **NSC insert** — extend the materialized sorted run with a longest
  sorted subsequence over the inserted values beyond the run's boundary
  value; the rest of the inserted tuples become patches.
* **NSC modify** — all modified tuples become patches (they may break
  the sorted run).
* **delete** (both) — drop the tracking information; the sharded
  bitmap's bulk delete (or identifier decrementing) realigns rowIDs,
  serially; condensing the bitmap (§4.2.4) is an explicit call.  A
  delete or NSC modify that takes the last non-patch row lowers the
  NSC boundary to the last one left, so re-inserting deleted rows
  keeps them as discovery would.

Constraints may thereby *become* approximate over time even when they
were perfect at definition time, instead of aborting the update.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.constraints import NearlySortedColumn, NearlyUniqueColumn
from repro.core.discovery import discover_nuc_patches
from repro.core.patchindex import PatchIndex
from repro.engine.expressions import not_null_mask
from repro.engine.groups import sorted_unique
from repro.engine.operators import _expand_matches, _non_null_rows
from repro.storage.minmax import MinMaxIndex
from repro.storage.table import UpdateEvent

__all__ = ["apply_update", "nuc_collision_patches"]

#: Probe slices of an integer column with at least this many rows first
#: pass a hashed membership table of the build keys.  Plain kernel vs
#: prefiltered (numpy 2.4, 2-CPU x86): 50 scattered (binary-searched) build
#: keys 64 vs 30 µs at 2 048 rows, 272 vs 46 at 8 192; one or 50 contiguous
#: (presence-table) keys 28 vs 43 µs at 8 192, 70 vs 124 at 32 768, 780 vs
#: 410 at 131 072.  ``pi_update`` probes ~200 k-row slices for scattered
#: INSERT keys, 4–8 k for contiguous UPDATE ones, and a single-row insert
#: into a clustered column one 4 096-row block, on the plain kernel.
_PREFILTER_MIN_ROWS = 8192
#: Membership table of 2**16 booleans (64 KiB), indexed by the top bits
#: of a Fibonacci (golden-ratio multiplicative) hash.
_HASH_BITS = 16
_FIBONACCI = np.uint64(0x9E3779B97F4A7C15)


def apply_update(index: PatchIndex, table, event: UpdateEvent,
                 dynamic_range_propagation: bool = True) -> None:
    """Maintain ``index`` for one update statement on its table."""
    constraint = index.constraint
    if isinstance(constraint, NearlySortedColumn):
        _handle_nsc(index, table, event)
    elif event.kind == "delete":
        index.remove_rows(event.rowids)
    elif isinstance(constraint, NearlyUniqueColumn):
        _handle_nuc(index, table, event, dynamic_range_propagation)
    else:
        raise TypeError(
            f"no update handler for constraint {type(constraint).__name__}; "
            "extend repro.core.updates (§5.5)"
        )


# ----------------------------------------------------------------------
# nearly unique columns
# ----------------------------------------------------------------------
def _handle_nuc(index: PatchIndex, table, event: UpdateEvent,
                drp: bool) -> None:
    if index.column not in event.values:
        if event.kind == "insert":
            raise KeyError(f"insert event lacks column {index.column!r}")
        return  # modify that does not touch the indexed column
    touched_values = np.asarray(event.values[index.column])
    if event.kind == "insert":
        index.extend_rows(len(event.rowids))
    if len(touched_values) == 0:
        return
    column = table.column(index.column)
    candidates = _collision_join(
        column, touched_values, table.minmax(index.column) if drp else None
    )
    index.add_patches(
        nuc_collision_patches(
            column[candidates], candidates, index.is_patch_many(candidates)
        )
    )


def _collision_join(column: np.ndarray, touched_values: np.ndarray,
                    minmax: Optional[MinMaxIndex]) -> np.ndarray:
    """Figure 5: rowIDs of the column's tuples sharing a touched value.

    The build side is the (small) sorted set of distinct touched values;
    under dynamic range propagation ``minmax`` is the column's summary
    and the values' [min, max] range prunes the probe to the row ranges
    whose blocks overlap it, each probed as a zero-copy slice.  On an
    integer column a long slice first passes a hashed membership table
    of the build keys, so only its few candidates reach the kernel,
    which stays the exact check.
    """
    build = sorted_unique(touched_values)
    present = _non_null_rows(build)
    if present is not None:
        # the kernel joins NULL to nothing, but DISTINCT folds NULLs into
        # one group: a touched NULL shares its value with every NULL row
        nulls = np.flatnonzero(~not_null_mask(column))
        return np.sort(np.concatenate([nulls, _collision_join(column, build[present], minmax)]))
    if len(build) == 0:
        return np.zeros(0, dtype=np.int64)
    if minmax is None:
        ranges = [(0, len(column))]
    else:
        ranges = minmax.row_ranges_in_range(build[0], build[-1])
    hashable = column.dtype.kind in "iu" and build.dtype.kind == column.dtype.kind
    table = None
    matched = []
    for start, stop in ranges:
        probe = column[start:stop]
        if hashable and stop - start >= _PREFILTER_MIN_ROWS:
            if table is None:
                table = np.zeros(1 << _HASH_BITS, dtype=bool)
                table[_fibonacci_hash(build)] = True
            # rows whose hash misses every build key cannot match; the
            # survivors go through the exact kernel
            candidates = np.flatnonzero(table[_fibonacci_hash(probe)])
            hits = _expand_matches(build, probe[candidates])[1]
            matched.append(start + candidates[hits])
        else:
            matched.append(start + _expand_matches(build, probe)[1])
    # distinct build keys: each probe row matches at most once, so the
    # probe positions come out ascending and duplicate-free
    return np.concatenate(matched) if matched else np.zeros(0, dtype=np.int64)


def _fibonacci_hash(keys: np.ndarray) -> np.ndarray:
    """``_HASH_BITS``-bit multiplicative hashes of integer keys, as int64
    positions: numpy gathers through uint64 ones by a slow cast (the
    membership table's gather of 200 k rows: 463 against 127 µs, numpy
    2.4 on a 2-CPU x86 box)."""
    wide = keys.astype(np.uint64 if keys.dtype.kind == "u" else np.int64, copy=False)
    hashes = wide.view(np.uint64) * _FIBONACCI
    return np.right_shift(hashes, np.uint64(64 - _HASH_BITS), out=hashes).view(np.int64)


def nuc_collision_patches(
    values: np.ndarray,
    candidate_rowids: np.ndarray,
    is_patch: np.ndarray,
) -> np.ndarray:
    """New patches among candidate rowIDs sharing a column value.

    ``values`` and ``is_patch`` are the candidates' column values and
    current patch flags, aligned with ``candidate_rowids``.  Every
    candidate whose value group has two or more members becomes a patch
    (both join sides of Figure 5); candidates that matched only
    themselves stay non-patches.  A value group containing an existing
    patch is by construction non-unique, so its other members also
    become patches.  Existing patches never leave the patch set.
    """
    colliding = discover_nuc_patches(values)
    return np.sort(candidate_rowids[colliding[~is_patch[colliding]]]).astype(np.int64)


# ----------------------------------------------------------------------
# nearly sorted columns
# ----------------------------------------------------------------------
def _handle_nsc(index: PatchIndex, table, event: UpdateEvent) -> None:
    constraint: NearlySortedColumn = index.constraint  # type: ignore[assignment]
    if event.kind == "insert":
        inserted = np.asarray(event.values[index.column])
        last = index.last_sorted_value
        # a None boundary is a NULL ending the run while the run keeps rows
        null_boundary = last is None and index.num_patches < index.num_rows
        keep_local, new_last = constraint.extend_sorted_run(inserted, last, null_boundary)
        index.extend_rows(len(event.rowids))
        keep_mask = np.zeros(len(inserted), dtype=bool)
        keep_mask[keep_local] = True
        index.add_patches(np.asarray(event.rowids)[~keep_mask])
        index.last_sorted_value = new_last
        return
    if event.kind == "modify" and index.column not in event.values:
        return  # indexed column untouched: sorted run unaffected
    tail = _last_kept_row(index)
    if event.kind == "delete":
        index.remove_rows(event.rowids)
    else:
        index.add_patches(event.rowids)
    if tail is not None and tail in event.rowids:
        # the statement deleted or patched the run's tail: the boundary
        # falls to the last kept row left (None: a NULL there, or no run)
        tail = _last_kept_row(index)
        index.last_sorted_value = None if tail is None else table.column(index.column)[tail]


def _last_kept_row(index: PatchIndex) -> Optional[int]:
    """The last non-patch rowID, or None when every row is a patch.

    Probes windows back from the end, doubling, instead of extracting
    every patch position: a delete pays for the run's patched tail only.
    """
    stop, width = index.num_rows, 64
    while stop > 0:
        start = max(0, stop - width)
        kept = np.flatnonzero(~index.is_patch_many(np.arange(start, stop)))
        if len(kept):
            return start + int(kept[-1])
        stop, width = start, 2 * width
    return None
