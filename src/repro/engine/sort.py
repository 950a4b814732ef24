"""The engine's sort order and its k-way merge of sorted runs.

Ordering semantics
------------------
:func:`serial_sort_permutation` defines the one sort order every
consumer shares (``Sort``, ``TopN``, ``Relation.sort_by``, ``SortKey``):
a least-significant-key-first loop of stable argsorts where a
descending key reverses its *equal-key groups* only — ties keep the
order established by the less-significant keys, and full-row ties
always keep original row order.  This is SQL ``ORDER BY`` semantics:
each key's direction is independent (``ORDER BY a DESC, b`` still
orders ``b`` ascending within equal ``a``).  An earlier revision
reversed the whole permutation per descending key, which flipped the
tie order of every less-significant key — a wrong-answer bug the
differential harness caught against SQLite.

Merging sorted runs
-------------------
:func:`merge_run_slots` combines already-sorted runs without re-sorting
them — the §3.3 sort optimization's ``MergeUnion`` of the sorted
non-patch flow with the sorted patches, and ``SortKey``'s merge of its
per-partition sorted copies.  The runs play a tournament (a loser-tree
bracket of vectorized two-way merges) that breaks equal keys by
``(run index, within-run offset)``, so the result is bit-identical to
stably re-sorting the concatenation, in either direction.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.interrupt import checkpoint
from repro.storage.column import string_codes

__all__ = [
    "serial_sort_permutation",
    "merge_sorted_runs",
    "merge_run_slots",
    "scatter_runs",
    "serial_sort_cost",
]

#: Cost units mirroring :class:`repro.plan.cost.CostModel`, which
#: aliases them as ``COST_SORT`` and ``COST_MERGE_COMBINE``.
SORT_UNIT = 2.0
MERGE_UNIT = 0.5


def serial_sort_cost(
    num_rows: float,
    sort_unit: float = SORT_UNIT,
) -> float:
    """Abstract cost units of a serial n-log-n sort."""
    n = float(num_rows)
    return sort_unit * n * max(1.0, math.log2(max(n, 2.0)))


# ----------------------------------------------------------------------
# key normalization
# ----------------------------------------------------------------------
def _ranks(codes: np.ndarray, dictionary) -> np.ndarray:
    """String codes as their dictionary ranks, NULL (-1) after every
    value (the "missing is largest" placement numpy gives NaN)."""
    return dictionary.gather(dictionary.rank, codes, len(dictionary))


def _orderable_key(key) -> np.ndarray:
    """A key array np.argsort can order: a string key (object array or
    ``(codes, dictionary)``) as ranks, every other dtype as it is."""
    strings = string_codes(key)
    return np.asarray(key) if strings is None else _ranks(strings[0][0], strings[1])


def _group_missing(neq: np.ndarray, sorted_vals: np.ndarray) -> np.ndarray:
    """Collapse NaN/NaT runs into one rank group (argsort ties them)."""
    kind = sorted_vals.dtype.kind
    if kind == "f":
        miss = np.isnan(sorted_vals)
    elif kind in "mM":
        miss = np.isnat(sorted_vals)
    else:
        return neq
    return neq & ~(miss[1:] & miss[:-1])


# ----------------------------------------------------------------------
# the sort order
# ----------------------------------------------------------------------
def serial_sort_permutation(
    keys: Sequence[np.ndarray],
    ascending: Optional[Sequence[bool]] = None,
) -> np.ndarray:
    """The canonical stable multi-key permutation.

    SQL ``ORDER BY`` semantics: every key sorts stably in its own
    direction, so a descending key reverses its equal-key *groups* (not
    the whole permutation — that would flip the tie order the less-
    significant keys established, the bug the differential harness
    caught) and full-row ties keep original row order.
    """
    keys = [_orderable_key(k) for k in keys]
    if ascending is None:
        ascending = [True] * len(keys)
    if len(ascending) != len(keys):
        raise ValueError("need one ascending flag per sort key")
    n = len(keys[0]) if keys else 0
    order = np.arange(n, dtype=np.int64)
    for key, asc in reversed(list(zip(keys, ascending))):
        vals = key[order]
        idx = np.argsort(vals, kind="stable")
        if not asc:
            idx = idx[_reverse_groups(vals[idx])]
        order = order[idx]
    return order


def _reverse_groups(keys: np.ndarray) -> np.ndarray:
    """Permutation emitting a run's equal-key groups in reverse order.

    ``keys`` must have equal keys contiguous (any sorted run qualifies;
    NaN/NaT collapse into one group, matching argsort's tie behavior).
    Groups come out back-to-front with each group's offsets kept
    ascending — applied to an ascending-stable argsort this yields the
    *descending* stable order: key groups reversed, ties untouched.
    This per-group reversal is what SQL ``ORDER BY ... DESC`` needs; an
    elementwise ``[::-1]`` would reverse tie order too.
    """
    n = len(keys)
    if n <= 1:
        return np.arange(n, dtype=np.int64)
    neq = keys[1:] != keys[:-1]
    neq = _group_missing(neq, keys)
    starts = np.concatenate([[0], np.flatnonzero(neq) + 1]).astype(np.int64)
    lengths = np.diff(np.concatenate([starts, [n]]))
    rev_starts = starts[::-1]
    rev_lengths = lengths[::-1]
    out_starts = np.concatenate([[0], np.cumsum(rev_lengths)[:-1]])
    return np.repeat(rev_starts - out_starts, rev_lengths) + np.arange(n, dtype=np.int64)


# ----------------------------------------------------------------------
# deterministic k-way merge (loser-tree bracket)
# ----------------------------------------------------------------------
#: A tournament contestant: its sorted keys (``None`` once nothing reads
#: them) and, per input run merged into it, the increasing slots that
#: run's rows occupy — ``None`` while it is a single input run.
_Run = Tuple[Optional[np.ndarray], Optional[List[np.ndarray]]]


def _merge_pair(a: _Run, b: _Run, want_keys: bool) -> _Run:
    """Vectorized two-way merge of sorted runs; the left run wins ties.

    Only the shorter run is binary-searched, into the longer one: a
    right run's row lands behind the left rows at or below it
    (``side='right'``), a left run's row behind the right rows strictly
    below it (``side='left'``), so ties resolve to the left (lower run
    index) run either way.  The longer run keeps its order in the slots
    left free: O(short · log long + total), which lets a few sorted
    patches join a long sorted run for less than re-sorting it (§3.3).
    numpy's enhanced sort order puts NaN last, as argsort does.
    ``want_keys`` says whether a later match still needs the merged
    keys.
    """
    (a_key, a_slots), (b_key, b_slots) = a, b
    total = len(a_key) + len(b_key)
    if total == len(a_key) or total == len(b_key) or a_key[-1] <= b_key[0]:
        # already in order (range partitions, runs of sorted data)
        pos_a = np.arange(len(a_key), dtype=np.int64)
        pos_b = np.arange(len(a_key), total, dtype=np.int64)
    elif len(b_key) <= len(a_key):
        pos_b = np.searchsorted(a_key, b_key, side="right") + np.arange(len(b_key))
        pos_a = _free_slots(pos_b, total)
    else:
        pos_a = np.searchsorted(b_key, a_key, side="left") + np.arange(len(a_key))
        pos_b = _free_slots(pos_a, total)
    key = scatter_runs([pos_a, pos_b], [a_key, b_key]) if want_keys else None
    slots = [pos_a] if a_slots is None else [pos_a[s] for s in a_slots]
    slots += [pos_b] if b_slots is None else [pos_b[s] for s in b_slots]
    return key, slots


def _free_slots(taken: np.ndarray, total: int) -> np.ndarray:
    """The slots of ``range(total)`` not in ``taken``, ascending."""
    free = np.ones(total, dtype=bool)
    free[taken] = False
    return np.flatnonzero(free)


def scatter_runs(slots: Sequence[np.ndarray], pieces: Sequence[np.ndarray]) -> np.ndarray:
    """One array holding ``pieces[i]`` at ``slots[i]``, for every run ``i``.

    ``slots`` partition ``range(total)`` (as :func:`merge_run_slots`
    returns them); each piece is written straight to its place, so
    merging a column costs one pass and no concatenated intermediate.
    """
    out = np.empty(sum(len(s) for s in slots), dtype=np.result_type(*pieces))
    for where, piece in zip(slots, pieces):
        out[where] = piece
    return out


def _kway_merge(run_keys: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Merge sorted key runs; returns each run's slots in the output.

    The runs play a tournament: adjacent runs meet in vectorized two-way
    matches, losers of each comparison wait at their match node and
    winners advance, exactly as in a loser tree — realized level by
    level so every match is one numpy merge.  Pairing stays adjacent,
    so the left run of every match holds the smaller run indices and
    the tie rule "lower (run, offset) first" holds by induction at
    every level.
    """
    if len(run_keys) == 1:
        return [np.arange(len(run_keys[0]), dtype=np.int64)]
    runs: List[_Run] = [(keys, None) for keys in run_keys]
    while len(runs) > 1:
        checkpoint()
        merged = [
            _merge_pair(runs[i], runs[i + 1], len(runs) > 2)
            for i in range(0, len(runs) - 1, 2)
        ]
        if len(runs) % 2:
            merged.append(runs[-1])
        runs = merged
    return runs[0][1] if runs else []


def merge_run_slots(
    run_keys: Sequence[np.ndarray], ascending: bool = True
) -> List[np.ndarray]:
    """Per run, the increasing output slots its rows take in the merge.

    ``run_keys`` are ascending-sorted key arrays and the merged output
    orders their rows ascending, equal keys in ``(run index, within-run
    offset)`` order; with ``ascending=False`` they are *non-increasing*
    runs and the output is the canonical descending stable order — keys
    non-increasing, equal keys still in ascending ``(run, offset)``
    order, as ``Sort`` / :func:`serial_sort_permutation` produce for a
    descending key (SQL ``ORDER BY ... DESC``: ties keep input order).
    Either way a run's rows keep their relative order, so
    ``scatter_runs(slots, columns)`` merges any column of the runs.

    Descending mechanics: every run enters the tournament reversed
    elementwise (making it non-decreasing) and the runs pair up in
    reverse run order, so "left wins ties" resolves ties to the *higher*
    (run, offset); mirroring the slots back flips keys to descending
    and ties back to ascending (run, offset).
    """
    strings = string_codes(*run_keys)
    if strings is None:
        arrays = [np.asarray(keys) for keys in run_keys]
    else:  # one dictionary's ranks for every run, NULL last as Sort ranks it
        arrays = [_ranks(codes, strings[1]) for codes in strings[0]]
    if ascending:
        return _kway_merge(arrays)
    last = sum(len(a) for a in arrays) - 1
    mirrored = _kway_merge([a[::-1] for a in reversed(arrays)])
    return [(last - s)[::-1] for s in reversed(mirrored)]


def merge_sorted_runs(
    run_keys: Sequence[np.ndarray], ascending: bool = True
) -> np.ndarray:
    """Permutation merging already-sorted runs over their concatenation.

    Indexes into the concatenation of ``run_keys`` and orders it as
    :func:`merge_run_slots` describes — ascending, bit-identical to
    ``np.argsort(np.concatenate(run_keys), kind="stable")`` whenever
    each run is non-decreasing: per-partition sorted streams
    (``SortKey``) combine without re-sorting.
    """
    slots = merge_run_slots(run_keys, ascending)
    order = np.empty(sum(len(s) for s in slots), dtype=np.int64)
    if slots:  # the inverse of "row i of the concatenation goes to slot ..."
        order[np.concatenate(slots)] = np.arange(len(order))
    return order
