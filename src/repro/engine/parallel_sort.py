"""Stable parallel sort: morsel chunk-sort + deterministic k-way merge.

PR 1's morsel executor left every sort on the serial path because the
engine's bit-identity contract ("parallel execution is indistinguishable
from serial execution") seemed to force it: a naive parallel sort breaks
ties in a schedule-dependent order.  This module retires that
restriction.  The input is cut into morsel-aligned chunks, each chunk is
argsorted on the shared :class:`~repro.engine.parallel.ExecutionContext`
worker pool, and the sorted chunk runs are combined by a deterministic
k-way tournament merge (a loser-tree bracket of vectorized two-way
merges) that breaks equal keys by ``(chunk index, within-chunk offset)``.
Chunks are contiguous row ranges taken in order, so that tie rule *is*
original row order — the result is bit-identical to
``np.argsort(kind="stable")`` no matter the worker count or schedule,
including multi-key, descending and NaN/None orderings.

Ordering semantics
------------------
:func:`serial_sort_permutation` is the reference: a least-significant-
key-first loop of stable argsorts where a descending key reverses its
*equal-key groups* only — ties keep the order established by the
less-significant keys, and full-row ties always keep original row
order.  This is SQL ``ORDER BY`` semantics: each key's direction is
independent (``ORDER BY a DESC, b`` still orders ``b`` ascending
within equal ``a``).  An earlier revision reversed the whole
permutation per descending key, which flipped the tie order of every
less-significant key — a wrong-answer bug the differential harness
caught against SQLite.  The parallel path reproduces the reference
exactly via a single-pass reduction: multi-key inputs are rank-encoded
per key (dense codes in argsort order, NaN/NaT/None grouped as one
largest value, a descending direction folded in by flipping that key's
codes) and combined into one ``int64`` key, so the merge only ever
compares scalars and full-row ties fall back to original row index.

Partition affinity
------------------
Chunk-sort tasks are dispatched through
:meth:`~repro.engine.parallel.ExecutionContext.map_grouped`: chunks
sharing an affinity key run sequentially on one worker.  Callers sorting
partitioned data (``SortKey`` refresh) key the groups by partition so a
partition's chunks land on a fixed worker and its per-partition caches
(minmax, patch bitmaps) stay warm; by default chunks are block-striped
across workers, which keeps neighbouring rows on one thread.

Everything degenerates to the serial reference when the context is
absent/serial, the input is below the parallel threshold, or
:func:`sort_parallel_payoff` says the fan-out cannot amortize its
dispatch overhead (the plan-level twin lives in
:meth:`repro.plan.cost.CostModel.sort_parallel_payoff`).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.interrupt import checkpoint
from repro.engine.parallel import (
    DEFAULT_MORSEL_ROWS,
    ExecutionContext,
    row_chunks,
)

__all__ = [
    "serial_sort_permutation",
    "sort_permutation",
    "merge_sorted_runs",
    "merge_run_slots",
    "scatter_runs",
    "sort_parallel_payoff",
    "parallel_sort_cost",
    "serial_sort_cost",
]

#: Cost units mirroring :class:`repro.plan.cost.CostModel` (kept here so
#: the runtime gate and the plan-level model share one formula).
SORT_UNIT = 2.0
MERGE_UNIT = 0.5
DISPATCH_UNIT = 10.0

#: Combined multi-key codes are re-densified before their cardinality
#: product can overflow int64.
_CODE_LIMIT = 1 << 60

#: Dtype kinds whose comparisons run GIL-free in numpy; object columns
#: (python comparisons) sort serially — chunking buys nothing under the
#: GIL and the serial path is trivially bit-identical.
_PARALLEL_KINDS = "biufUSMm"


# ----------------------------------------------------------------------
# cost gate (shared with plan/cost.py)
# ----------------------------------------------------------------------
def serial_sort_cost(
    num_rows: float,
    sort_unit: float = SORT_UNIT,
) -> float:
    """Abstract cost units of a serial n-log-n sort."""
    n = float(num_rows)
    return sort_unit * n * max(1.0, math.log2(max(n, 2.0)))


def parallel_sort_cost(
    num_rows: float,
    parallelism: int,
    morsel_rows: int = DEFAULT_MORSEL_ROWS,
    sort_unit: float = SORT_UNIT,
    merge_unit: float = MERGE_UNIT,
    dispatch_unit: float = DISPATCH_UNIT,
) -> float:
    """Abstract cost units of the chunk-sort + k-way merge pipeline.

    Chunk argsorts divide the n·log(chunk) comparison work across the
    achievable workers (an input smaller than a morsel cannot use more
    than one); the merge pays n·log(chunks) vectorized comparisons; every
    engaged worker costs a fixed dispatch overhead.
    """
    n = float(num_rows)
    if n <= 0:
        return 0.0
    workers = min(float(max(1, parallelism)), n / float(morsel_rows))
    if workers <= 1.0:
        return serial_sort_cost(n, sort_unit)
    num_chunks = math.ceil(n / float(morsel_rows))
    chunk_cost = sort_unit * n * max(1.0, math.log2(max(morsel_rows, 2.0))) / workers
    merge_cost = merge_unit * n * max(1.0, math.log2(max(num_chunks, 2.0)))
    return chunk_cost + merge_cost + dispatch_unit * workers


def sort_parallel_payoff(
    num_rows: float,
    parallelism: int,
    morsel_rows: int = DEFAULT_MORSEL_ROWS,
    sort_unit: float = SORT_UNIT,
    merge_unit: float = MERGE_UNIT,
    dispatch_unit: float = DISPATCH_UNIT,
) -> bool:
    """Whether the parallel sort pipeline undercuts the serial sort.

    The runtime consults this (with the context's knobs) before fanning
    a sort out, mirroring ``dml_parallel_payoff``: below the payoff
    point the sort stays on the serial path, so small ORDER BYs never
    regress.
    """
    if parallelism <= 1 or num_rows <= 0:
        return False
    serial = serial_sort_cost(num_rows, sort_unit)
    parallel = parallel_sort_cost(
        num_rows, parallelism, morsel_rows, sort_unit, merge_unit, dispatch_unit
    )
    return parallel < serial


# ----------------------------------------------------------------------
# key normalization
# ----------------------------------------------------------------------
def _orderable_key(arr: np.ndarray) -> np.ndarray:
    """A key array np.argsort can order, extending object columns.

    Object (string) columns may carry ``None``; python comparisons
    against ``None`` raise, so such columns are wrapped into
    ``(is_none, value)`` tuples — ``None`` sorts after every value (the
    same "missing is largest" placement numpy gives NaN) and all
    ``None`` tie.  Every other dtype orders natively.
    """
    arr = np.asarray(arr)
    if arr.dtype.kind != "O":
        return arr
    none_mask = np.array([v is None for v in arr], dtype=bool)
    if not none_mask.any():
        return arr
    wrapped = np.empty(len(arr), dtype=object)
    wrapped[:] = [(1, 0) if v is None else (0, v) for v in arr]
    return wrapped


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
# serial reference
# ----------------------------------------------------------------------
def serial_sort_permutation(
    keys: Sequence[np.ndarray],
    ascending: Optional[Sequence[bool]] = None,
) -> np.ndarray:
    """The canonical stable multi-key permutation (serial reference).

    SQL ``ORDER BY`` semantics: every key sorts stably in its own
    direction, so a descending key reverses its equal-key *groups* (not
    the whole permutation — that would flip the tie order the less-
    significant keys established, the bug the differential harness
    caught) and full-row ties keep original row order.  The parallel
    path is defined as bit-identical to this.
    """
    keys = [np.asarray(k) for k in keys]
    if ascending is None:
        ascending = [True] * len(keys)
    n = len(keys[0]) if keys else 0
    order = np.arange(n, dtype=np.int64)
    for key, asc in reversed(list(zip(keys, ascending))):
        vals = _orderable_key(key)[order]
        idx = np.argsort(vals, kind="stable")
        if not asc:
            idx = idx[_reverse_groups(vals[idx])]
        order = order[idx]
    return order


# ----------------------------------------------------------------------
# deterministic k-way merge (loser-tree bracket)
# ----------------------------------------------------------------------
#: A tournament contestant: its sorted keys (``None`` once nothing reads
#: them) and, per input run merged into it, the increasing slots that
#: run's rows occupy — ``None`` while it is a single input run.
_Run = Tuple[Optional[np.ndarray], Optional[List[np.ndarray]]]


def _merge_pair(pair: Tuple[_Run, _Run, bool]) -> _Run:
    """Vectorized two-way merge of sorted runs; the left run wins ties.

    Only the shorter run is binary-searched, into the longer one: a
    right run's row lands behind the left rows at or below it
    (``side='right'``), a left run's row behind the right rows strictly
    below it (``side='left'``), so ties resolve to the left (lower chunk
    index) run either way.  The longer run keeps its order in the slots
    left free: O(short · log long + total), which lets a few sorted
    patches join a long sorted run for less than re-sorting it (§3.3).
    numpy's enhanced sort order makes the same NaN-is-largest
    comparisons the chunk argsorts made.  The pair's third element says
    whether a later match still needs the merged keys.
    """
    (a_key, a_slots), (b_key, b_slots), want_keys = pair
    total = len(a_key) + len(b_key)
    if total == len(a_key) or total == len(b_key) or a_key[-1] <= b_key[0]:
        # already in order (range partitions, chunks of sorted data)
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


def _kway_merge(
    run_keys: Sequence[np.ndarray], context: Optional[ExecutionContext]
) -> List[np.ndarray]:
    """Merge sorted key runs; returns each run's slots in the output.

    The runs play a tournament: adjacent runs meet in vectorized two-way
    matches, losers of each comparison wait at their match node and
    winners advance, exactly as in a loser tree — realized level by
    level so every match is one GIL-releasing numpy merge and the
    matches of a level run concurrently on the context's pool.  Pairing
    stays adjacent, so the left run of every match holds the smaller
    chunk indices and the tie rule "lower (chunk, offset) first" holds
    by induction at every level.
    """
    if len(run_keys) == 1:
        return [np.arange(len(run_keys[0]), dtype=np.int64)]
    runs: List[_Run] = [(keys, None) for keys in run_keys]
    while len(runs) > 1:
        checkpoint()
        pairs = [(runs[i], runs[i + 1], len(runs) > 2) for i in range(0, len(runs) - 1, 2)]
        if context is not None:
            merged = context.map(_merge_pair, pairs)
        else:
            merged = [_merge_pair(p) for p in pairs]
        if len(runs) % 2:
            merged.append(runs[-1])
        runs = merged
    return runs[0][1] if runs else []


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


def merge_run_slots(
    run_keys: Sequence[np.ndarray],
    context: Optional[ExecutionContext] = None,
    ascending: bool = True,
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
    arrays = [np.asarray(keys) for keys in run_keys]
    ctx = context if context is not None and context.active else None
    if ascending:
        return _kway_merge(arrays, ctx)
    last = sum(len(a) for a in arrays) - 1
    mirrored = _kway_merge([a[::-1] for a in reversed(arrays)], ctx)
    return [(last - s)[::-1] for s in reversed(mirrored)]


def merge_sorted_runs(
    run_keys: Sequence[np.ndarray],
    context: Optional[ExecutionContext] = None,
    ascending: bool = True,
) -> np.ndarray:
    """Permutation merging already-sorted runs over their concatenation.

    Indexes into the concatenation of ``run_keys`` and orders it as
    :func:`merge_run_slots` describes — ascending, bit-identical to
    ``np.argsort(np.concatenate(run_keys), kind="stable")`` whenever
    each run is non-decreasing: per-partition sorted streams
    (``SortKey``) combine without re-sorting, and with a context the
    bracket's matches run on the worker pool.
    """
    slots = merge_run_slots(run_keys, context, ascending)
    order = np.empty(sum(len(s) for s in slots), dtype=np.int64)
    if slots:  # the inverse of "row i of the concatenation goes to slot ..."
        order[np.concatenate(slots)] = np.arange(len(order))
    return order


# ----------------------------------------------------------------------
# chunk-sorted stable argsort
# ----------------------------------------------------------------------
def _chunk_runs(
    values: np.ndarray,
    context: ExecutionContext,
    affinity: Optional[Sequence[int]] = None,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Stable-argsort morsel-aligned chunks on the worker pool.

    ``affinity`` maps chunk index to a group key; chunks sharing a key
    are sorted sequentially on one worker (partition affinity).  The
    default block-stripes chunks across the pool, so each worker owns a
    contiguous row range.
    """
    chunks = row_chunks(len(values), context.morsel_rows)

    def sort_chunk(chunk: Tuple[int, int]) -> Tuple[np.ndarray, np.ndarray]:
        start, stop = chunk
        idx = np.argsort(values[start:stop], kind="stable").astype(np.int64)
        idx += start
        return idx, values[idx]

    if affinity is None:
        workers = context.parallelism
        affinity = [i * workers // len(chunks) for i in range(len(chunks))]
    return context.map_grouped(sort_chunk, chunks, affinity)


def _stable_argsort(
    values: np.ndarray,
    context: Optional[ExecutionContext],
    affinity: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Ascending stable argsort, parallel when the context warrants it."""
    n = len(values)
    if not _should_parallelize(n, values.dtype, context):
        return np.argsort(values, kind="stable").astype(np.int64)
    runs = _chunk_runs(values, context, affinity)
    slots = _kway_merge([keys for _, keys in runs], context)
    return scatter_runs(slots, [idx for idx, _ in runs])


def _should_parallelize(
    num_rows: int, dtype: np.dtype, context: Optional[ExecutionContext]
) -> bool:
    if context is None or not context.active:
        return False
    if dtype.kind not in _PARALLEL_KINDS:
        return False
    num_chunks = -(-num_rows // context.morsel_rows) if num_rows else 0
    if not context.should_parallelize(num_rows, num_chunks):
        return False
    return sort_parallel_payoff(num_rows, context.parallelism, context.morsel_rows)


# ----------------------------------------------------------------------
# rank encoding (multi-key reduction)
# ----------------------------------------------------------------------
def _dense_codes(
    values: np.ndarray,
    context: Optional[ExecutionContext],
    affinity: Optional[Sequence[int]] = None,
) -> Tuple[np.ndarray, int]:
    """Dense int64 ranks in stable-argsort order (missing values tie).

    ``codes[i] < codes[j]`` iff value ``i`` sorts strictly before value
    ``j`` under ``np.argsort``'s comparisons; equal values — including
    every NaN/NaT and ``-0.0`` vs ``+0.0`` — share a code, so folding a
    direction in by flipping codes reverses the value order without
    touching tie behavior.
    """
    n = len(values)
    if n == 0:
        return np.zeros(0, dtype=np.int64), 1
    perm = _stable_argsort(values, context, affinity)
    sorted_vals = values[perm]
    neq = sorted_vals[1:] != sorted_vals[:-1]
    neq = _group_missing(neq, sorted_vals)
    ranks = np.concatenate([[0], np.cumsum(neq)]).astype(np.int64)
    codes = np.empty(n, dtype=np.int64)
    codes[perm] = ranks
    return codes, int(ranks[-1]) + 1


# ----------------------------------------------------------------------
# public entry point
# ----------------------------------------------------------------------
def sort_permutation(
    keys: Sequence[np.ndarray],
    ascending: Optional[Sequence[bool]] = None,
    context: Optional[ExecutionContext] = None,
    affinity: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Permutation sorting rows by ``keys``/``ascending``.

    Bit-identical to :func:`serial_sort_permutation` (and therefore to
    ``Relation.sort_by``) at any worker count: multi-key, descending and
    NaN/None orderings included.  ``affinity`` optionally pins chunk
    groups to workers (see :func:`_chunk_runs`).

    Cooperative interruption: checkpoints fire before the sort starts
    and between the chunk-sort / code-densify / merge phases (the
    parallel fan-outs inside each phase carry their own per-morsel
    checks via ``context.map``), so an armed
    :class:`~repro.engine.interrupt.CancellationToken` unwinds a large
    sort between phases instead of after it.
    """
    checkpoint()
    keys = [np.asarray(k) for k in keys]
    if ascending is None:
        ascending = [True] * len(keys)
    if len(ascending) != len(keys):
        raise ValueError("need one ascending flag per sort key")
    if not keys:
        return np.arange(0, dtype=np.int64)
    n = len(keys[0])
    for k in keys[1:]:
        if len(k) != n:
            raise ValueError("sort keys must have equal lengths")
    okeys = [_orderable_key(k) for k in keys]
    if not _should_parallelize(n, okeys[0].dtype, context) or any(
        k.dtype.kind not in _PARALLEL_KINDS for k in okeys
    ):
        return serial_sort_permutation(keys, ascending)

    if len(okeys) == 1:
        perm = _stable_argsort(okeys[0], context, affinity)
        if not ascending[0]:
            perm = perm[_reverse_groups(okeys[0][perm])]
        return perm

    # Each key's direction is independent (SQL ORDER BY): a descending
    # key folds in by flipping that key's codes only, and the final
    # stable argsort keeps full-row ties in original row order.
    code: Optional[np.ndarray] = None
    code_card = 1
    for key, asc in zip(okeys, ascending):
        checkpoint()
        codes, card = _dense_codes(key, context, affinity)
        if not asc:
            codes = (card - 1) - codes
        if code is None:
            code, code_card = codes, card
        else:
            if code_card > _CODE_LIMIT // max(card, 1):
                # re-densify BEFORE combining: the combined cardinality
                # would overflow int64 and corrupt the ranks silently.
                # Post-densify both factors are <= n+1, so the product
                # of the next combine cannot overflow.
                code, code_card = _dense_codes(code, context, affinity)
            code = code * card + codes
            code_card *= card
    assert code is not None
    return _stable_argsort(code, context, affinity)
