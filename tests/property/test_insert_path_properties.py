"""Property-based tests: the NUC insert path's kernels against in-file oracles.

* ``_collision_join`` (the Figure 5 join, with dynamic range propagation
  and the hashed prefilter) against ``_probe_oracle``: the equi-join
  kernel over the whole column, plus every NULL row when a NULL was
  touched (DISTINCT folds NULLs into one group).
* the DELETE compaction against ``_compaction_oracle``: ``np.delete``
  + ``np.concatenate`` over the base, its INSERTs and its overrides.
* ``MinMaxIndex`` against ``_minmax_oracle``: a per-block loop over the
  block's non-NULL values.
* the identifier design's sorted-merge ``add_patches`` against the
  bitmap design and a Python set, through random maintenance sequences.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NearlyUniqueColumn
from repro.core import updates
from repro.core.patchindex import BITMAP_DESIGN, IDENTIFIER_DESIGN, PatchIndex
from repro.engine.operators import _expand_matches
from repro.storage import Table
from repro.storage.minmax import MinMaxIndex

INT64_MIN, INT64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max


def is_null(value) -> bool:
    return value is None or value != value


def _as_array(values, dtype):
    arr = np.empty(len(values), dtype=dtype)
    arr[:] = values
    return arr


# ----------------------------------------------------------------------
# the collision probe
# ----------------------------------------------------------------------
def _colliding_keys():
    """Distinct int64 keys that share one prefilter hash slot, in pairs."""
    keys = np.arange(1 << 17, dtype=np.int64)
    hashes = updates._fibonacci_hash(keys)
    order = np.argsort(hashes, kind="stable")
    same = np.flatnonzero(hashes[order][1:] == hashes[order][:-1])[:4]
    pairs = [(int(keys[order][i]), int(keys[order][i + 1])) for i in same]
    assert all(a != b for a, b in pairs)
    return [k for pair in pairs for k in pair]


COLLIDING = _colliding_keys()


def _probe_oracle(column, touched):
    """Rows sharing a touched value: the kernel over the whole column, plus
    every NULL row when a NULL was touched."""
    present = [v for v in touched.tolist() if not is_null(v)]
    build = np.sort(_as_array(present, touched.dtype)) if present else touched[:0]
    rows = set(_expand_matches(build, column)[1].tolist())
    if len(present) < len(touched):
        rows |= {i for i, v in enumerate(column.tolist()) if is_null(v)}
    return np.array(sorted(rows), dtype=np.int64)


def _sides(column_values, touched_values, dtype, touched_dtype=None):
    return st.tuples(
        st.lists(column_values, max_size=60),
        st.lists(touched_values, min_size=1, max_size=12),
    ).map(lambda s: (_as_array(s[0], dtype), _as_array(s[1], touched_dtype or dtype)))


INT_KEYS = st.one_of(
    st.integers(-6, 6),
    st.sampled_from([INT64_MIN, INT64_MIN + 1, INT64_MAX, INT64_MAX - 1, -1, 0]),
    st.sampled_from(COLLIDING),
)
PROBE_CASES = st.one_of(
    _sides(INT_KEYS, INT_KEYS, np.int64),
    _sides(st.integers(0, 9), st.integers(0, 9), np.int32),
    _sides(
        st.sampled_from([0, 1, 7, 2**63, 2**64 - 1]),
        st.sampled_from([0, 1, 7, 2**63, 2**64 - 1]),
        np.uint64,
    ),
    # a float build key against an int column: 2.0 matches 2, 2.5 nothing
    _sides(st.integers(-3, 3), st.sampled_from([2.0, 2.5, -1.0, 0.0, 7.5]), np.int64, np.float64),
    _sides(
        st.sampled_from([-1.5, 0.0, 2.0, 3.25, float("nan")]),
        st.sampled_from([-1.5, 2.0, 4.0, float("nan")]),
        np.float64,
    ),
    _sides(
        st.sampled_from(["a", "b", "ab", "", None]),
        st.sampled_from(["a", "ab", "zz", None]),
        object,
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    PROBE_CASES,
    st.sampled_from([None, 1, 3, 8]),
    st.sampled_from([0, 1, 5, updates._PREFILTER_MIN_ROWS]),
)
def test_collision_probe_matches_the_whole_column_kernel(sides, block_size, prefilter_rows):
    column, touched = sides
    minmax = None if block_size is None else MinMaxIndex(column, block_size)
    with mock.patch.object(updates, "_PREFILTER_MIN_ROWS", prefilter_rows):
        got = updates._collision_join(column, touched, minmax)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, _probe_oracle(column, touched))


@pytest.mark.parametrize("drp", [False, True])
def test_collision_probe_empty_sides(drp):
    column = np.arange(5, dtype=np.int64)
    for col, touched in [(column[:0], np.array([3])), (column, column[:0])]:
        minmax = MinMaxIndex(col, 2) if drp else None
        assert len(updates._collision_join(col, touched, minmax)) == 0


def test_collision_probe_float_key_against_int_column():
    column = np.array([2, 5, 2, 3], dtype=np.int64)
    got = updates._collision_join(column, np.array([2.0, 2.5]), MinMaxIndex(column, 1))
    assert got.tolist() == [0, 2]


def test_prefilter_runs_on_long_int_slices_only():
    """Above the threshold the kernel sees only the hash candidates."""
    column = np.arange(2 * updates._PREFILTER_MIN_ROWS, dtype=np.int64)
    seen = []

    def spy(build, probe):
        seen.append(len(probe))
        return _expand_matches(build, probe)

    with mock.patch.object(updates, "_expand_matches", spy):
        got = updates._collision_join(column, np.array([5, 9000]), None)
        small = updates._collision_join(column[:100], np.array([5]), None)
    assert got.tolist() == [5, 9000] and small.tolist() == [5]
    assert seen[0] < len(column) // 100 and seen[1] == 100


# ----------------------------------------------------------------------
# the DELETE compaction
# ----------------------------------------------------------------------
def _compaction_oracle(base, head, overrides, deleted, tail):
    arr = np.concatenate([base, *head])
    for pos, value in overrides.items():
        arr[pos] = value
    return np.concatenate([np.delete(arr, deleted), *tail])


COLUMN_KINDS = {
    "i8": (np.int64, st.integers(-5, 5)),
    "f8": (np.float64, st.sampled_from([0.5, -1.0, float("nan"), 3.0])),
    "obj": (object, st.sampled_from(["a", "bc", None, ""])),
}


@st.composite
def compaction_scripts(draw):
    """A base column, INSERTs that grow it, one DELETE or UPDATE, INSERTs."""
    dtype, values = COLUMN_KINDS[draw(st.sampled_from(sorted(COLUMN_KINDS)))]

    def inserts():
        return [
            _as_array(draw(st.lists(values, min_size=1, max_size=5)), dtype)
            for _ in range(draw(st.integers(0, 3)))
        ]

    base = _as_array(draw(st.lists(values, max_size=40)), dtype)
    head = inserts()
    n = len(base) + sum(len(buf) for buf in head)
    first = draw(st.sampled_from(["delete", "modify", "none"]))
    deleted, overrides = [], {}
    if first == "delete" and n:
        deleted = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    elif first == "modify" and n:
        positions = draw(st.lists(st.integers(0, n - 1), max_size=6))
        overrides = {p: draw(values) for p in positions}
    return base, head, overrides, np.array(deleted, dtype=np.int64), inserts()


@settings(max_examples=300, deadline=None)
@given(compaction_scripts())
def test_compaction_matches_delete_then_concatenate(script):
    base, head, overrides, deleted, tail = script
    table = Table.from_arrays("t", {"c": base})
    for buf in head:
        table.insert({"c": buf})
    if len(deleted):
        table.delete(deleted)
    if overrides:
        table.modify(np.array(list(overrides)), {"c": _as_array(list(overrides.values()), object)})
    for buf in tail:
        table.insert({"c": buf})
    got = table.column("c")
    want = _compaction_oracle(base, head, overrides, deleted, tail)
    assert got.dtype == base.dtype and len(got) == table.num_rows
    np.testing.assert_array_equal(got, want)


def test_compaction_of_an_empty_table():
    table = Table.from_arrays("t", {"c": np.zeros(0, dtype=np.int64)})
    assert table.column("c").dtype == np.int64 and len(table.column("c")) == 0
    table.delete(np.zeros(0, dtype=np.int64))
    table.insert({"c": np.array([4, 5])})
    np.testing.assert_array_equal(table.column("c"), [4, 5])


def test_compaction_after_deleting_every_row():
    table = Table.from_arrays("t", {"c": np.arange(4, dtype=np.int64)})
    table.delete(np.arange(4))
    assert table.num_rows == 0
    table.insert({"c": np.array([9])})
    np.testing.assert_array_equal(table.column("c"), [9])


# ----------------------------------------------------------------------
# minmax summaries
# ----------------------------------------------------------------------
def _minmax_oracle(values, block_size):
    """Per block: (min, max) of its non-NULL values, or None."""
    out = []
    for start in range(0, len(values), block_size):
        present = [v for v in values[start : start + block_size].tolist() if not is_null(v)]
        out.append((min(present), max(present)) if present else None)
    return out


MINMAX_COLUMNS = st.one_of(
    st.lists(st.integers(-50, 50), max_size=50).map(lambda v: _as_array(v, np.int64)),
    st.lists(st.integers(0, 3), max_size=50).map(lambda v: _as_array(v, np.uint8)),
    st.lists(st.booleans(), max_size=30).map(lambda v: _as_array(v, bool)),
    st.lists(
        st.one_of(st.floats(-10, 10, allow_nan=False), st.just(float("nan"))), max_size=50
    ).map(lambda v: _as_array(v, np.float64)),
    st.lists(st.sampled_from(["a", "b", "zz", None]), max_size=30).map(
        lambda v: _as_array(v, object)
    ),
)


@settings(max_examples=300, deadline=None)
@given(MINMAX_COLUMNS, st.integers(1, 9), st.data())
def test_minmax_matches_the_per_block_loop(values, block_size, data):
    index = MinMaxIndex(values, block_size)
    want = _minmax_oracle(values, block_size)
    assert index.num_blocks == len(want)
    got = [
        None if is_null(lo) else (lo, hi)
        for lo, hi in zip(index._mins.tolist(), index._maxs.tolist())
    ]
    assert got == want
    if len(values) and values.dtype != object:
        assert index._mins.dtype == values.dtype and index._maxs.dtype == values.dtype
    present = [v for v in values.tolist() if not is_null(v)]
    if present:
        lo, hi = sorted([data.draw(st.sampled_from(present)), data.draw(st.sampled_from(present))])
        kept = [b for b, mm in enumerate(want) if mm is not None and mm[1] >= lo and mm[0] <= hi]
        assert index.blocks_in_range(lo, hi).tolist() == kept
        # every row holding a value in [lo, hi] lies in a kept range
        ranges = index.row_ranges_in_range(lo, hi)
        for i, v in enumerate(values.tolist()):
            if not is_null(v) and lo <= v <= hi:
                assert any(start <= i < end for start, end in ranges)


def test_minmax_of_an_empty_column():
    for dtype in (np.int64, np.float64, object):
        index = MinMaxIndex(np.zeros(0, dtype=dtype), 4)
        assert index.num_blocks == 0 and index.row_ranges_in_range(0, 1) == []


def test_minmax_ragged_last_block_and_all_null_blocks():
    values = np.array([np.nan, np.nan, 1.0, np.nan, 5.0])
    index = MinMaxIndex(values, 2)
    assert index.row_ranges_in_range(0.0, 2.0) == [(2, 4)]
    assert index.row_ranges_in_range(4.0, 9.0) == [(4, 5)]
    strings = np.array([None, None, "b", None, "a"], dtype=object)
    assert MinMaxIndex(strings, 2).row_ranges_in_range("a", "a") == [(4, 5)]


# ----------------------------------------------------------------------
# identifier design's add_patches
# ----------------------------------------------------------------------
@st.composite
def maintenance_scripts(draw):
    n = draw(st.integers(0, 40))
    ops = []
    rows = n
    for _ in range(draw(st.integers(1, 25))):
        kind = draw(st.sampled_from(["extend", "add", "remove"]))
        if kind == "extend":
            count = draw(st.integers(0, 6))
            ops.append(("extend", count))
            rows += count
        elif rows and kind == "add":
            ops.append(("add", draw(st.lists(st.integers(0, rows - 1), max_size=8))))
        elif rows:
            gone = draw(st.lists(st.integers(0, rows - 1), max_size=5))
            ops.append(("remove", gone))
            rows -= len(set(gone))
    return n, ops


@settings(max_examples=200, deadline=None)
@given(maintenance_scripts())
def test_identifier_and_bitmap_designs_keep_the_same_patches(script):
    n, ops = script
    table = Table.from_arrays("t", {"v": np.arange(n, dtype=np.int64)})
    designs = [
        PatchIndex(table, "v", NearlyUniqueColumn(), design=design, build=False)
        for design in (BITMAP_DESIGN, IDENTIFIER_DESIGN)
    ]
    model = set()
    for kind, arg in ops:
        for index in designs:
            if kind == "extend":
                index.extend_rows(arg)
            elif kind == "add":
                index.add_patches(np.array(arg, dtype=np.int64))
            else:
                index.remove_rows(np.array(arg, dtype=np.int64))
        if kind == "add":
            model |= set(arg)
        elif kind == "remove":
            gone = sorted(set(arg))
            model = {p - sum(g < p for g in gone) for p in model if p not in gone}
        bitmap, identifier = designs
        want = sorted(model)
        assert bitmap.patch_rowids().tolist() == want
        assert identifier.patch_rowids().tolist() == want
        ids = identifier._ids
        assert ids.dtype == np.int64
        assert np.all(ids[1:] > ids[:-1])  # sorted and unique
