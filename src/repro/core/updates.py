"""Update-query handling for PatchIndexes (paper §5, Table 1).

The handlers keep the invariant *"the index holds all exceptions to the
constraint"* under inserts, modifies and deletes while avoiding both a
full index recomputation and a full table scan:

* **NUC insert/modify** — run the insert-handling join of Figure 5: the
  touched values (from the statement's positional deltas) are the build
  side of the engine's equi-join kernel and the indexed column is its
  probe side; dynamic range propagation restricts the probe to the
  blocks whose minmax summary overlaps the touched values.  The rowIDs
  of *both* join sides of every collision are merged into the patches,
  so duplicated values never appear in the non-patch flow.
* **NSC insert** — extend the materialized sorted run with a longest
  sorted subsequence over the inserted values beyond the run's boundary
  value; the rest of the inserted tuples become patches.
* **NSC modify** — all modified tuples become patches (they may break
  the sorted run).
* **delete** (both) — drop the tracking information; the sharded
  bitmap's bulk delete (or identifier decrementing) realigns rowIDs.
  With a PatchIndex ``parallelism`` > 1 the shard-local shifts run on
  the index's maintenance pool, and a configured ``condense_threshold``
  may trigger an (equally shard-parallel) condense afterwards (§4.2.4).

Constraints may thereby *become* approximate over time even when they
were perfect at definition time, instead of aborting the update.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.constraints import NearlySortedColumn, NearlyUniqueColumn
from repro.core.discovery import discover_nuc_patches
from repro.core.patchindex import PatchIndex
from repro.engine.groups import sorted_unique
from repro.engine.operators import _expand_matches
from repro.storage.minmax import MinMaxIndex
from repro.storage.pdt import UpdateEvent

__all__ = ["apply_update", "nuc_collision_patches"]


def apply_update(index: PatchIndex, table, event: UpdateEvent,
                 dynamic_range_propagation: bool = True) -> None:
    """Maintain ``index`` for one update statement on its table."""
    if event.kind == "delete":
        index.remove_rows(event.rowids)
        return
    constraint = index.constraint
    if isinstance(constraint, NearlyUniqueColumn):
        _handle_nuc(index, table, event, dynamic_range_propagation)
    elif isinstance(constraint, NearlySortedColumn):
        _handle_nsc(index, table, event)
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
    whose blocks overlap it, each probed as a zero-copy slice.
    """
    build = sorted_unique(touched_values)
    if minmax is None:
        ranges = [(0, len(column))]
    else:
        ranges = minmax.row_ranges_in_range(build[0], build[-1])
    # distinct build keys: each probe row matches at most once, so the
    # probe positions come out ascending and duplicate-free
    matched = [
        start + _expand_matches(build, column[start:stop], build_sorted=True)[1]
        for start, stop in ranges
    ]
    return np.concatenate(matched) if matched else np.zeros(0, dtype=np.int64)


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
        index.extend_rows(len(event.rowids))
        keep_local, new_last = constraint.extend_sorted_run(
            inserted, index.last_sorted_value
        )
        keep_mask = np.zeros(len(inserted), dtype=bool)
        keep_mask[keep_local] = True
        index.add_patches(np.asarray(event.rowids)[~keep_mask])
        index.last_sorted_value = new_last
        return
    if event.kind == "modify":
        if index.column not in event.values:
            return  # indexed column untouched: sorted run unaffected
        index.add_patches(event.rowids)
