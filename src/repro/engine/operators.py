"""Physical query operators (column-at-a-time, numpy-vectorized).

The operator set mirrors what the paper's optimizations manipulate
(§3.3): scans, selections, projections, the equi-join, sort,
distinct/grouping aggregation, union, order-preserving merge and the
Reuse operators for intermediate result caching.  The PatchIndex scan is
a :class:`Scan` topped by a :class:`PatchSelect` with mode
``exclude_patches`` or ``use_patches``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union as TUnion

import numpy as np

from repro.engine.batch import Relation, stored
from repro.engine.expressions import Expression, column_ranges, expression_columns, not_null_mask
from repro.engine.groups import (DENSE_JOIN_SPAN_FACTOR, dense_span, first_rows, group_codes,
                                 offsets_from, run_starts, sorted_unique)
from repro.engine.interrupt import CHECKPOINT_ROWS, checkpoint, current_token
from repro.engine.sort import merge_run_slots, scatter_runs, serial_sort_permutation
from repro.storage.column import ColumnType, string_codes
from repro.testing import faults

__all__ = [
    "Operator",
    "RelationSource",
    "Scan",
    "PatchSelect",
    "Filter",
    "Project",
    "HashJoin",
    "Sort",
    "TopN",
    "Distinct",
    "GroupAggregate",
    "Union",
    "MergeUnion",
    "ReuseSlot",
    "ReuseCache",
    "ReuseLoad",
    "Limit",
    "find_scans",
    "factorize_rows",
]

EXCLUDE_PATCHES = "exclude_patches"
USE_PATCHES = "use_patches"


class Operator:
    """Base class for physical operators."""

    def execute(self) -> Relation:
        """Produce the operator's full result relation."""
        raise NotImplementedError

    def children(self) -> List["Operator"]:
        """Child operators, for tree traversal."""
        return []

    def label(self) -> str:
        """Short description used by explain output."""
        return type(self).__name__

    def explain(self, indent: int = 0) -> str:
        """Readable operator-tree rendering."""
        lines = ["  " * indent + self.label()]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)


class RelationSource(Operator):
    """Wraps an already-materialized relation (delta scans, tests)."""

    def __init__(self, relation: Relation, name: str = "source") -> None:
        self._relation = relation
        self._name = name

    def execute(self) -> Relation:
        return self._relation

    def label(self) -> str:
        return f"Source({self._name}, rows={self._relation.num_rows})"


class Scan(Operator):
    """Table scan with optional predicate, minmax pruning and row restriction.

    :meth:`_rows` settles the rows before any column is read.  Minmax
    summaries prune blocks by each top-level ``AND`` conjunct ``col op
    number`` and each range ``push_range`` pushes — range propagation
    (§5), how the dynamic variant restricts a join's probe side (Figure
    5).  ``restrict_rows`` splits what is left at a sorted set of rowIDs
    — the two flows of a PatchIndex scan (:class:`PatchSelect`).  The
    predicate runs on what is left (on a slice, excluded rows are masked
    after it); each output column is cut once.
    """

    def __init__(
        self,
        table,
        columns: Optional[Sequence[str]] = None,
        predicate: Optional[Expression] = None,
    ) -> None:
        self.table = table
        self.columns = list(columns) if columns is not None else list(table.schema.names)
        self.predicate = predicate
        self._ranges: List[Tuple[str, object, object]] = []
        self._rowids: Optional[np.ndarray] = None
        self._complement = False

    def push_range(self, column: str, lo, hi) -> None:
        """Restrict the scan to blocks possibly containing [lo, hi]."""
        self._ranges.append((column, lo, hi))

    def restrict_rows(self, rowids: np.ndarray, complement: bool = False) -> None:
        """Keep only the rows with these ascending global rowIDs (``complement``: all others)."""
        self._rowids = np.asarray(rowids, dtype=np.int64)
        self._complement = complement

    def _runs(self, table) -> Optional[List[Tuple[int, int]]]:
        """Coalesced ``[start, end)`` row runs of one table/partition whose
        blocks meet every range on the scan (None: all rows).  STRING
        columns bound nothing: their summaries decode every row."""
        if not table.num_rows:
            return None
        schema, bounds = table.schema, {}
        own = [] if self.predicate is None else column_ranges(self.predicate)
        for column, lo, hi in self._ranges + own:
            if schema.field(column).type is not ColumnType.STRING:
                was_lo, was_hi = bounds.get(column, (lo, hi))
                bounds[column] = (max(was_lo, lo), min(was_hi, hi))
        runs = None
        for column, (lo, hi) in bounds.items():
            found = table.minmax(column).row_ranges_in_range(lo, hi)
            runs = found if runs is None else _intersect_runs(runs, found)
        return runs

    def _rows(self, table, start: int, stop: int, rowid_offset: int, runs):
        """``(rows, keep)`` in ``[start, stop)``: a slice or ascending
        positions, and None or a mask over the slice.  ``rowid_offset`` is
        the global rowID of row ``start``; the pieces share ``runs``."""
        rows: TUnion[np.ndarray, slice] = slice(start, stop)
        if runs is not None:
            runs = [(max(a, start), min(b, stop)) for a, b in runs if a < stop and b > start]
            if len(runs) <= 1:
                rows = slice(*runs[0]) if runs else slice(start, start)
            else:
                rows = np.concatenate([np.arange(a, b) for a, b in runs])
        keep = None
        if self._rowids is not None:
            first = rowid_offset - start  # global rowID of this table's row 0
            span = rows if isinstance(rows, slice) else slice(start, stop)
            lo, hi = np.searchsorted(self._rowids, (first + span.start, first + span.stop))
            local = self._rowids[lo:hi] - first
            if not isinstance(rows, slice):
                rows = rows[np.isin(rows, local, invert=self._complement)]
            elif self._complement:
                keep = np.ones(rows.stop - rows.start, dtype=bool)
                keep[local - rows.start] = False
            else:
                rows = local
        if self.predicate is not None:
            names = [c for c in expression_columns(self.predicate) if c in table.schema]
            # a column-free predicate (``1 = 1``) still needs the row count
            probe = Relation({c: stored(table, c, rows) for c in names or table.schema.names[:1]})
            passed = np.zeros(0, dtype=bool)
            if probe.num_rows:
                passed = np.asarray(self.predicate.evaluate(probe), dtype=bool)
            if isinstance(rows, slice):
                keep = passed if keep is None else passed & keep
            else:
                rows = rows[passed]
        return rows, keep

    def _scan_range(self, table, start: int, stop: int, rowid_offset: int, runs=None) -> Relation:
        """Scan rows ``[start, stop)`` of one table/partition; range scans
        concatenated in row order equal the whole scan."""
        rows, keep = self._rows(table, start, stop, rowid_offset, runs)
        rel = Relation({c: stored(table, c, rows) for c in self.columns})
        return rel if keep is None else rel.filter(keep)

    def _pieces(self, armed: bool):
        """``(table, start, stop, rowid offset, runs)`` per partition, cut
        into ``CHECKPOINT_ROWS`` pieces while a token is armed."""
        for part, offset in zip(self.table.partitions, self.table.partition_offsets()):
            runs = self._runs(part)
            step = CHECKPOINT_ROWS if armed else max(1, part.num_rows)
            for start in range(0, part.num_rows, step):
                yield part, start, min(start + step, part.num_rows), int(offset) + start, runs

    def execute(self) -> Relation:
        checkpoint()
        armed, parts = current_token() is not None, self.table.partitions
        if not armed and len(parts) == 1:  # the common case
            part = parts[0]
            return self._scan_range(part, 0, part.num_rows, 0, self._runs(part))
        # The fault point sits before the piece's check, so an injected
        # stall is seen by that same check.
        pieces = []
        for piece in self._pieces(armed):
            if faults.ACTIVE:
                faults.fire("worker.morsel")
            checkpoint()
            pieces.append(self._scan_range(*piece))
        if len(pieces) == 1:
            return pieces[0]
        return Relation.concat(pieces) if pieces else self._scan_range(parts[0], 0, 0, 0)

    def rowids(self) -> np.ndarray:
        """Ascending global rowIDs of the rows the scan returns (the WHERE
        of UPDATE and DELETE), with a checkpoint before each piece."""
        out = []
        for part, start, stop, rowid_offset, runs in self._pieces(current_token() is not None):
            checkpoint()
            rows, keep = self._rows(part, start, stop, rowid_offset, runs)
            if isinstance(rows, slice):
                rows = np.arange(rows.start, rows.stop) if keep is None else (
                    np.flatnonzero(keep) + rows.start)
            out.append(rows + (rowid_offset - start) if rowid_offset != start else rows)
        return out[0] if len(out) == 1 else np.concatenate([np.zeros(0, dtype=np.int64), *out])

    def label(self) -> str:
        extra = ""
        if self._ranges:
            extra = f", ranges={self._ranges}"
        if self.predicate is not None:
            extra += f", pred={self.predicate!r}"
        return f"Scan({self.table.name}{extra})"


def _intersect_runs(a: List[Tuple[int, int]], b: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """The rows two ascending lists of disjoint ``[start, end)`` runs share."""
    out, i, j = [], 0, 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if lo < hi:
            out.append((lo, hi))
        i, j = (i + 1, j) if a[i][1] < b[j][1] else (i, j + 1)
    return out


class PatchSelect(Operator):
    """Selection operator merging PatchIndex information on-the-fly (§3.3).

    ``rowids_fn`` returns the index's current patches as ascending
    rowIDs of the scanned table, which is split at those positions
    before any column is read: ``use_patches`` restricts the child
    :class:`Scan` to the patches (an O(patches) gather per column, the
    predicate evaluated on the patches only), ``exclude_patches`` to
    every other row (one copy per column).  The decision is purely
    rowID-based, independent of the data types in the flow (§3.5).
    """

    def __init__(self, child: Scan, rowids_fn: Callable[[], np.ndarray], mode: str) -> None:
        if mode not in (EXCLUDE_PATCHES, USE_PATCHES):
            raise ValueError(f"unknown selection mode {mode!r}")
        self.child = child
        self.rowids_fn = rowids_fn
        self.mode = mode

    def children(self) -> List[Operator]:
        return [self.child]

    def execute(self) -> Relation:
        checkpoint()
        self.child.restrict_rows(self.rowids_fn(), complement=self.mode == EXCLUDE_PATCHES)
        return self.child.execute()

    def label(self) -> str:
        return f"PatchSelect({self.mode})"


class Filter(Operator):
    """Predicate selection."""

    def __init__(self, child: Operator, predicate: Expression) -> None:
        self.child = child
        self.predicate = predicate

    def children(self) -> List[Operator]:
        return [self.child]

    def execute(self) -> Relation:
        checkpoint()
        rel = self.child.execute()
        if rel.num_rows == 0:
            return rel
        return rel.filter(np.asarray(self.predicate.evaluate(rel), dtype=bool))

    def label(self) -> str:
        return f"Filter({self.predicate!r})"


class Project(Operator):
    """Column projection / computation.

    ``outputs`` maps output names to input column names (str) or
    expressions.
    """

    def __init__(self, child: Operator, outputs: Dict[str, TUnion[str, Expression]]) -> None:
        self.child = child
        self.outputs = dict(outputs)

    def children(self) -> List[Operator]:
        return [self.child]

    def execute(self) -> Relation:
        rel = self.child.execute()
        cols = {}
        for name, spec in self.outputs.items():
            if isinstance(spec, str):
                cols[name] = rel.held(spec)
            else:
                cols[name] = np.asarray(spec.evaluate(rel))
        return Relation(cols)

    def label(self) -> str:
        return f"Project({list(self.outputs)})"


def _non_null_rows(keys: np.ndarray, coded: bool = False) -> Optional[np.ndarray]:
    """Positions of the non-NULL keys (string codes: ``coded``), or None
    when no key is NULL."""
    if coded:
        valid = keys >= 0
    elif keys.dtype.kind in "Of":
        valid = not_null_mask(keys)
    else:
        return None
    return None if valid.all() else np.flatnonzero(valid)


def _expand_matches(build_keys, probe_keys) -> Tuple[np.ndarray, np.ndarray]:
    """Aligned ``(build_idx, probe_idx)`` of an inner equi-join.

    The one matching kernel behind :class:`HashJoin` and NUC maintenance
    (:mod:`repro.core.updates`), all in numpy.  *Locate* finds each probe
    key's run in the stably ordered build keys, its start and length:
    integer builds spanning at most ``DENSE_JOIN_SPAN_FACTOR`` slots a
    key gather both from a presence table, one slot per value of
    ``[lo, hi]`` and a sentinel slot of length 0 for probe keys outside
    it; other builds are binary-searched.  *Expand* emits each hit's run,
    probe-ascending and per probe key in build insertion order, whatever
    the inputs' order; when every build run has length 1, as in a key
    join, the hits are the pairs.

    A binary-searched build arriving non-decreasing skips its sort — the
    whole advantage a merge join has over a hash join (§3.3), found by
    one linear check instead of promised by the planner; a presence
    table of distinct keys needs no order.  String keys (object arrays or
    ``(codes, dictionary)`` pairs) join on codes of one dictionary.  NULL
    keys (NULL codes, NaN in float columns) match nothing on either side,
    as in SQL, and are dropped first, as are probe keys a uint64 build
    cannot hold (negatives) or a signed build cannot (above int64).
    """
    strings = string_codes(build_keys, probe_keys)
    if strings is not None:
        build_keys, probe_keys = strings[0]
    build_rows = _non_null_rows(build_keys, strings is not None)
    if build_rows is not None:
        build_keys = build_keys[build_rows]
    probe_rows = _non_null_rows(probe_keys, strings is not None)
    if probe_rows is not None:
        probe_keys = probe_keys[probe_rows]
    if len(build_keys) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    located = None
    if build_keys.dtype.kind in "iu" and probe_keys.dtype.kind in "iu":
        if np.result_type(build_keys, probe_keys).kind == "f":
            # one side uint64, the other signed: no integer type holds both
            unsigned = probe_keys.dtype.kind == "u"
            probe_rows = np.flatnonzero(probe_keys <= 2**63 - 1 if unsigned else probe_keys >= 0)
            probe_keys = probe_keys[probe_rows].astype(np.int64 if unsigned else np.uint64)
        located = _locate_dense(build_keys, probe_keys)
    if located is None:
        located = _locate_sorted(build_keys, probe_keys)
    order, hits, build_idx, counts = located
    probe_idx = hits
    if counts is not None:
        probe_idx = np.repeat(hits, counts)
        # run start of each pair, minus the pairs emitted before its probe
        first = build_idx - (np.cumsum(counts) - counts)
        build_idx = np.arange(len(probe_idx), dtype=np.int64) + np.repeat(first, counts)
    if order is not None:
        build_idx = order[build_idx]
    if build_rows is not None:
        build_idx = build_rows[build_idx]
    if probe_rows is not None:
        probe_idx = probe_rows[probe_idx]
    return build_idx, probe_idx


def _locate_sorted(build_keys: np.ndarray, probe_keys: np.ndarray) -> tuple:
    """``(order, hits, first, counts)``: the build's sort permutation
    (None: as it came), the probe positions that hit, their runs' starts
    in sorted build order and their lengths (None: every run is 1 key)."""
    order = None
    if not np.all(build_keys[:-1] <= build_keys[1:]):
        order = np.argsort(build_keys, kind="stable")
    sorted_keys = build_keys if order is None else build_keys[order]
    first = np.searchsorted(sorted_keys, probe_keys, side="left")
    hits = np.flatnonzero(sorted_keys.take(first, mode="clip") == probe_keys)
    first = first[hits]
    # a hit points at the first key of a run of equal build keys
    starts = np.flatnonzero(run_starts(sorted_keys))
    if len(starts) == len(sorted_keys):
        return order, hits, first, None
    run_lengths = np.zeros(len(sorted_keys), dtype=np.int64)
    run_lengths[starts] = np.diff(starts, append=len(sorted_keys))
    return order, hits, first, run_lengths[first]


def _locate_dense(build_keys: np.ndarray, probe_keys: np.ndarray) -> Optional[tuple]:
    """:func:`_locate_sorted`'s answer from a presence table: each value of
    the build's ``[lo, hi]``, then a sentinel slot, holds its run's start
    (-1: none) and length.  None when the build spans more than
    ``DENSE_JOIN_SPAN_FACTOR`` values a key."""
    dense = dense_span(build_keys, DENSE_JOIN_SPAN_FACTOR)
    if dense is None:
        return None
    lo, span = dense
    slots = offsets_from(build_keys, lo).view(np.int64)
    lengths = np.bincount(slots, minlength=span + 1)
    if len(build_keys) == np.count_nonzero(lengths):
        # distinct keys start their runs at their own build positions
        order, starts = None, np.full(span + 1, -1, dtype=np.int64)
        starts[slots] = np.arange(len(build_keys), dtype=np.int64)
    else:
        order = np.argsort(build_keys, kind="stable")
        starts = np.where(lengths > 0, np.cumsum(lengths) - lengths, -1)
    probe_slots = offsets_from(probe_keys, lo)
    # below lo wraps past the span, above hi lies past it: the sentinel
    probe_slots = np.minimum(probe_slots, np.uint64(span), out=probe_slots).view(np.int64)
    first = starts[probe_slots]
    hits = np.flatnonzero(first >= 0)
    return order, hits, first[hits], None if order is None else lengths[probe_slots[hits]]


def _join_output(
    build_rel: Relation,
    probe_rel: Relation,
    build_idx: np.ndarray,
    probe_idx: np.ndarray,
    build_key: str,
    probe_key: str,
) -> Relation:
    cols = {name: build_rel.held(name)[build_idx] for name in build_rel.column_names}
    for name in probe_rel.column_names:
        if name == probe_key and probe_key == build_key:
            continue  # identical key values, keep one copy
        if name in cols:
            raise ValueError(f"join column collision on {name!r}; project first")
        cols[name] = probe_rel.held(name)[probe_idx]
    return Relation(cols)


class HashJoin(Operator):
    """Inner equi-join; builds on one side and probes the other.

    Matching is :func:`_expand_matches`: every probe key gathers its
    run of build keys from a presence table when the integer build keys
    span few values, and otherwise binary-searches the build keys,
    sorted once (not at all when they arrive sorted, which makes this
    the merge join of §3.3).  A build of distinct keys emits its hits
    as the pairs, with no expansion of runs.  Output rows are
    probe-major, so the probe side's order survives the join.
    ``build_side='auto'`` picks the smaller input as the
    build side, which is the paper's optimization of building on the
    lower-cardinality side (typically the patches, §3.3).  With
    ``dynamic_range_propagation`` the key range observed during the build
    phase is pushed into every :class:`Scan` of the probe subtree before
    it executes, pruning blocks via minmax summaries (§5.1).
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_key: str,
        right_key: str,
        build_side: str = "auto",
        dynamic_range_propagation: bool = False,
    ) -> None:
        if build_side not in ("auto", "left", "right"):
            raise ValueError("build_side must be 'auto', 'left' or 'right'")
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_key = right_key
        self.build_side = build_side
        self.dynamic_range_propagation = dynamic_range_propagation

    def children(self) -> List[Operator]:
        return [self.left, self.right]

    def _resolve_sides(self) -> Tuple[Operator, Operator, str, str]:
        if self.build_side == "left":
            return self.left, self.right, self.left_key, self.right_key
        if self.build_side == "right":
            return self.right, self.left, self.right_key, self.left_key
        return None, None, None, None  # type: ignore[return-value]

    def execute(self) -> Relation:
        checkpoint()
        if self.build_side == "auto":
            # the paper's heuristic: build on the lower-cardinality side
            left_rel = self.left.execute()
            right_rel = self.right.execute()
            if left_rel.num_rows <= right_rel.num_rows:
                build_rel, probe_rel = left_rel, right_rel
                build_key, probe_key = self.left_key, self.right_key
            else:
                build_rel, probe_rel = right_rel, left_rel
                build_key, probe_key = self.right_key, self.left_key
        else:
            build_op, probe_op, build_key, probe_key = self._resolve_sides()
            build_rel = build_op.execute()
            if self.dynamic_range_propagation and build_rel.num_rows:
                keys = build_rel.column(build_key)
                present = _non_null_rows(keys)
                if present is not None:
                    keys = keys[present]  # a NULL key joins nothing
                if len(keys):
                    lo, hi = keys.min(), keys.max()
                    for scan in find_scans(probe_op):
                        if probe_key in scan.columns:
                            scan.push_range(probe_key, lo, hi)
            probe_rel = probe_op.execute()
        build_idx, probe_idx = _expand_matches(build_rel.key(build_key), probe_rel.key(probe_key))
        return _join_output(build_rel, probe_rel, build_idx, probe_idx, build_key, probe_key)

    def label(self) -> str:
        drp = ", DRP" if self.dynamic_range_propagation else ""
        return f"HashJoin({self.left_key}={self.right_key}, build={self.build_side}{drp})"


class Sort(Operator):
    """Multi-key stable sort.

    The permutation is ``np.argsort(kind="stable")`` composed over the
    keys (:func:`repro.engine.sort.serial_sort_permutation`):
    SQL ``ORDER BY`` with ties in input order, which is what lets
    ``MergeUnion`` reproduce a sort by merging sorted runs.
    Methodology note vs the paper's QuickSort (§6.2.1): the stable
    sort's integer-key radix path does not collapse on pre-sorted input
    — the microbenchmark datasets sort integer keys, so the NSC
    optimization's measured value remains what the index removes — but
    float/string keys use an adaptive mergesort that partially exploits
    pre-sortedness, the price of a deterministic tie order.
    """

    def __init__(
        self,
        child: Operator,
        keys: Sequence[str],
        ascending: Optional[Sequence[bool]] = None,
    ) -> None:
        self.child = child
        self.keys = list(keys)
        self.ascending = list(ascending) if ascending is not None else [True] * len(self.keys)

    def children(self) -> List[Operator]:
        return [self.child]

    def execute(self) -> Relation:
        rel = self.child.execute()
        checkpoint()
        order = serial_sort_permutation([rel.key(k) for k in self.keys], self.ascending)
        return rel.take(order)

    def label(self) -> str:
        return f"Sort({self.keys})"


class TopN(Operator):
    """First ``n`` rows under a sort order.

    Physical form of ``ORDER BY … LIMIT n``, into which the optimizer
    collapses ``Limit(Sort)`` when that is cheaper: the rows of the
    canonical stable order (keys, then original position) up to ``n``,
    bit-identical to the full sort followed by a limit.  The sort keys
    of the whole input are sorted once, but only the first ``n`` rows
    are gathered (``Sort`` gathers every row before ``Limit`` drops
    them).
    """

    def __init__(
        self,
        child: Operator,
        keys: Sequence[str],
        ascending: Optional[Sequence[bool]],
        n: int,
    ) -> None:
        if n < 0:
            raise ValueError("top-n count must be non-negative")
        self.child = child
        self.keys = list(keys)
        self.ascending = list(ascending) if ascending is not None else [True] * len(self.keys)
        self.n = n

    def children(self) -> List[Operator]:
        return [self.child]

    def execute(self) -> Relation:
        rel = self.child.execute()
        checkpoint()
        order = serial_sort_permutation([rel.key(k) for k in self.keys], self.ascending)
        return rel.take(order[: self.n])

    def label(self) -> str:
        return f"TopN({self.keys}, n={self.n})"


class Distinct(Operator):
    """Duplicate elimination over the given (default: all) columns.

    Runs on the group kernel (:mod:`repro.engine.groups`): one uncoded
    column is ``sorted_unique``; several, or a coded one, are factorised
    once and the first row of every group is kept, so codes stay codes.
    Output is in key order either way; NULL (NaN / ``None``) is one value.
    """

    def __init__(self, child: Operator, columns: Optional[Sequence[str]] = None) -> None:
        self.child = child
        self.columns = list(columns) if columns is not None else None

    def children(self) -> List[Operator]:
        return [self.child]

    def execute(self) -> Relation:
        rel = self.child.execute()
        checkpoint()
        cols = self.columns if self.columns is not None else rel.column_names
        if len(cols) == 1 and rel.codes(cols[0]) is None:
            return Relation({cols[0]: sorted_unique(rel.column(cols[0]))})
        _, first_idx = factorize_rows([rel.key(c) for c in cols])
        return rel.select(cols).take(first_idx)

    def label(self) -> str:
        return f"Distinct({self.columns or 'all'})"


class GroupAggregate(Operator):
    """Group-by aggregation.

    ``aggregates`` maps output names to ``(func, input)`` where ``func``
    is one of ``sum``, ``count``, ``min``, ``max``, ``avg`` and ``input``
    is a column name or expression (ignored for ``count``).

    The keys are factorised once by the group kernel
    (:mod:`repro.engine.groups`) and every aggregate is one pass over
    its codes in row order; groups come out in key order.
    """

    _FUNCS = ("sum", "count", "min", "max", "avg")

    def __init__(
        self,
        child: Operator,
        group_keys: Sequence[str],
        aggregates: Dict[str, Tuple[str, TUnion[str, Expression, None]]],
    ) -> None:
        for name, (func, _) in aggregates.items():
            if func not in self._FUNCS:
                raise ValueError(f"unknown aggregate {func!r} for {name!r}")
        self.child = child
        self.group_keys = list(group_keys)
        self.aggregates = dict(aggregates)

    def children(self) -> List[Operator]:
        return [self.child]

    def _input_array(self, rel: Relation, spec) -> np.ndarray:
        if isinstance(spec, str):
            return rel.column(spec)
        return np.asarray(spec.evaluate(rel))

    def execute(self) -> Relation:
        rel = self.child.execute()
        checkpoint()
        if not self.group_keys:
            return self._global_aggregate(rel)
        return self._aggregate(rel)

    def _aggregate(self, rel: Relation) -> Relation:
        codes, first_idx = factorize_rows([rel.key(k) for k in self.group_keys])
        ngroups = len(first_idx)
        out = {k: rel.held(k)[first_idx] for k in self.group_keys}
        counts = np.bincount(codes, minlength=ngroups)  # shared by count and avg
        for name, (func, spec) in self.aggregates.items():
            if func == "count":
                out[name] = counts
                continue
            values = self._input_array(rel, spec)
            is_int = values.dtype.kind in "iu"
            if func == "sum" and is_int:
                # exact int64 accumulation at any magnitude
                acc_i = np.zeros(ngroups, dtype=np.int64)
                np.add.at(acc_i, codes, values)
                out[name] = acc_i
            elif func == "sum" or func == "avg":
                # one bincount: accumulates in row order (and is typed
                # int on empty input, whatever the weights)
                sums = np.bincount(codes, weights=values.astype(np.float64), minlength=ngroups)
                sums = sums.astype(np.float64, copy=False)
                out[name] = sums if func == "sum" else sums / np.maximum(counts, 1)
            else:
                reduce_at, fill = (np.minimum, np.inf) if func == "min" else (np.maximum, -np.inf)
                acc = np.full(ngroups, fill, dtype=np.float64)
                # float operands keep ufunc.at on its fast path (int input: 12 -> 0.8 ms)
                reduce_at.at(acc, codes, values.astype(np.float64) if is_int else values)
                out[name] = acc.astype(np.int64) if is_int else acc
        return Relation(out)

    def _global_aggregate(self, rel: Relation) -> Relation:
        out: Dict[str, np.ndarray] = {}
        n = rel.num_rows
        for name, (func, spec) in self.aggregates.items():
            if func == "count":
                out[name] = np.array([n], dtype=np.int64)
                continue
            values = self._input_array(rel, spec)
            if func == "sum":
                out[name] = np.array([values.sum() if n else 0])
            elif func == "avg":
                out[name] = np.array([values.mean() if n else np.nan])
            elif func == "min":
                out[name] = np.array([values.min()]) if n else np.array([np.nan])
            elif func == "max":
                out[name] = np.array([values.max()]) if n else np.array([np.nan])
        return Relation(out)

    def label(self) -> str:
        return f"Aggregate(by={self.group_keys}, aggs={list(self.aggregates)})"


class Union(Operator):
    """Bag union: concatenates children with identical column sets."""

    def __init__(self, inputs: Sequence[Operator]) -> None:
        self.inputs = list(inputs)

    def children(self) -> List[Operator]:
        return list(self.inputs)

    def execute(self) -> Relation:
        return Relation.concat([op.execute() for op in self.inputs])

    def label(self) -> str:
        return f"Union(n={len(self.inputs)})"


class MergeUnion(Operator):
    """Order-preserving union of sorted inputs (§3.3 sort optimization).

    Combines the already-sorted non-patch flow with the sorted patch
    flow without re-sorting the union: the inputs are treated as sorted
    runs and combined by the deterministic k-way merge of
    :mod:`repro.engine.sort`, which searches only the shorter
    run of a pair into the longer one and yields, per input, the output
    slots its rows take; every output column is written once by
    scattering the inputs' columns to those slots.  Equal keys keep
    input order (earlier input first, then within-input order) in BOTH
    directions — bit-identical to stably re-sorting the concatenation,
    matching SQL's per-key direction semantics where a descending key
    reverses only the order *between* distinct key values, never the tie
    order within one.  Descending, the inputs must be non-increasing.
    """

    def __init__(self, inputs: Sequence[Operator], key: str, ascending: bool = True) -> None:
        self.inputs: List[Operator] = []
        for op in inputs:
            # merging is associative and ties go to the earlier input: a
            # nested merge on the same order (an NSC exclude flow's
            # per-partition runs) joins this one, every row moves once
            nested = isinstance(op, MergeUnion) and (op.key, op.ascending) == (key, ascending)
            self.inputs.extend(op.inputs if nested else [op])
        self.key = key
        self.ascending = ascending

    def children(self) -> List[Operator]:
        return list(self.inputs)

    def execute(self) -> Relation:
        rels_all = [op.execute() for op in self.inputs]
        rels = [r for r in rels_all if r.num_rows > 0]
        if not rels:
            return rels_all[0] if rels_all else Relation({})
        if len(rels) == 1:
            return rels[0]
        names = rels[0].column_names
        if any(set(r.column_names) != set(names) for r in rels[1:]):
            raise ValueError("merge union requires identical column sets")
        slots = merge_run_slots([r.key(self.key) for r in rels], self.ascending)
        return Relation.concat(rels, lambda pieces: scatter_runs(slots, pieces))

    def label(self) -> str:
        return f"MergeUnion(key={self.key}, asc={self.ascending})"


class ReuseSlot:
    """Shared cell between a ReuseCache and its ReuseLoads."""

    def __init__(self) -> None:
        self.relation: Optional[Relation] = None
        self.producer: Optional[Operator] = None

    def materialize(self) -> Relation:
        if self.relation is None:
            if self.producer is None:
                raise RuntimeError("ReuseSlot has no producer")
            self.relation = self.producer.execute()
        return self.relation


class ReuseCache(Operator):
    """Materializes its child's result into a slot and passes it on."""

    def __init__(self, child: Operator, slot: ReuseSlot) -> None:
        self.child = child
        self.slot = slot
        slot.producer = child

    def children(self) -> List[Operator]:
        return [self.child]

    def execute(self) -> Relation:
        return self.slot.materialize()

    def label(self) -> str:
        return "ReuseCache"


class ReuseLoad(Operator):
    """Reads a relation previously materialized by a ReuseCache."""

    def __init__(self, slot: ReuseSlot) -> None:
        self.slot = slot

    def execute(self) -> Relation:
        return self.slot.materialize()

    def label(self) -> str:
        return "ReuseLoad"


class Limit(Operator):
    """First ``n`` rows of the child, after skipping ``offset`` rows."""

    def __init__(self, child: Operator, n: int, offset: int = 0) -> None:
        if n < 0:
            raise ValueError("limit must be non-negative")
        if offset < 0:
            raise ValueError("offset must be non-negative")
        self.child = child
        self.n = n
        self.offset = offset

    def children(self) -> List[Operator]:
        return [self.child]

    def execute(self) -> Relation:
        rel = self.child.execute()
        start = min(self.offset, rel.num_rows)
        stop = min(start + self.n, rel.num_rows)
        return rel.take(np.arange(start, stop))

    def label(self) -> str:
        if self.offset:
            return f"Limit({self.n}, offset={self.offset})"
        return f"Limit({self.n})"


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def find_scans(op: Operator) -> List[Scan]:
    """All Scan operators in a subtree (range-propagation targets)."""
    found: List[Scan] = []
    stack = [op]
    while stack:
        node = stack.pop()
        if isinstance(node, Scan):
            found.append(node)
        stack.extend(node.children())
    return found


def factorize_rows(arrays: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Dense group codes for multi-column keys.

    Returns ``(codes, first_idx)``: per-row group ids in ``[0, ngroups)``
    and the index of the first row of each group (ordered by key) — the
    group kernel's ``group_codes`` and ``first_rows`` in one call.
    """
    codes, ngroups = group_codes(arrays)
    return codes, first_rows(codes, ngroups)
