"""Property-based tests: the group kernel against a dict-of-tuples oracle.

``reference_groups`` is the naive factorisation — one Python tuple per
row into a ``dict``, the distinct tuples sorted — kept here as the
oracle.  ``group_codes`` / ``first_rows`` / ``sorted_unique`` must agree
with it for every key type and every strategy the kernel picks (dense
presence table, string codes, sort), for 1–4 key columns, with NULLs
(``None`` first, NaN last, each one group), ±0.0, infinities, int64 and
uint64 extremes, a radix product past 2**63 and empty input.
``GroupAggregate`` and ``Distinct`` must equal the same oracle, values
and dtypes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.batch import Relation
from repro.engine.expressions import col, lit
from repro.engine.groups import DENSE_SPAN_FACTOR, first_rows, group_codes, sorted_unique
from repro.engine.operators import Distinct, GroupAggregate, RelationSource, factorize_rows

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
UINT64_MAX = 2**64 - 1


def sort_key(value):
    """NULL (None) before every value, NaN after; -0.0 equals 0.0."""
    if value is None:
        return (0, 0)
    if value != value:
        return (2, 0)
    return (1, value)


def reference_groups(arrays):
    """``(codes, first_idx)`` by one dict of row tuples, groups in key order."""
    rows = [tuple(map(sort_key, row)) for row in zip(*(a.tolist() for a in arrays))]
    first = {}
    for pos, row in enumerate(rows):
        first.setdefault(row, pos)
    ordered = sorted(first)
    rank = {row: r for r, row in enumerate(ordered)}
    codes = np.array([rank[row] for row in rows], dtype=np.int64)
    return codes, np.array([first[row] for row in ordered], dtype=np.int64)


def _as_array(values, dtype):
    arr = np.empty(len(values), dtype=dtype)
    arr[:] = values
    return arr


# (elements, dtype); small domains repeat keys, wide ones force the sort strategy
KEY_COLUMNS = [
    (st.integers(-3, 6), np.int64),  # dense, negative lo
    (st.integers(-(10**12), 10**12), np.int64),  # sparse
    (st.sampled_from([INT64_MIN, INT64_MAX, -1, 0, 7]), np.int64),
    (st.sampled_from([0, 3, UINT64_MAX - 1, UINT64_MAX]), np.uint64),
    (st.integers(UINT64_MAX - 5, UINT64_MAX), np.uint64),  # dense above int64
    (st.integers(-128, 127), np.int8),
    (st.booleans(), np.bool_),
    (
        st.sampled_from([-1.5, -0.0, 0.0, 2.0, float("inf"), float("-inf"), float("nan")]),
        np.float64,
    ),
    (st.sampled_from(["a", "b", "ab", "", "zz", None]), object),
]


@st.composite
def key_sets(draw, min_columns=1, max_columns=4, max_rows=60):
    n = draw(st.integers(0, max_rows))
    specs = draw(st.lists(st.sampled_from(KEY_COLUMNS), min_size=min_columns, max_size=max_columns))
    return [
        _as_array(draw(st.lists(elements, min_size=n, max_size=n)), dtype)
        for elements, dtype in specs
    ]


def assert_kernel_matches(arrays):
    want_codes, want_first = reference_groups(arrays)
    codes, ngroups = group_codes(arrays)
    assert codes.dtype == np.int64 and ngroups == len(want_first)
    np.testing.assert_array_equal(codes, want_codes)
    first = first_rows(codes, ngroups)
    assert first.dtype == np.int64
    np.testing.assert_array_equal(first, want_first)
    for got, want in zip(factorize_rows(arrays), (want_codes, want_first)):
        np.testing.assert_array_equal(got, want)


@given(key_sets())
@settings(max_examples=400, deadline=None)
def test_group_codes_match_the_oracle(arrays):
    assert_kernel_matches(arrays)


@given(key_sets(max_columns=1))
@settings(max_examples=300, deadline=None)
def test_sorted_unique_matches_the_oracle(arrays):
    (arr,) = arrays
    _, first = reference_groups([arr])
    got = sorted_unique(arr)
    assert got.dtype == arr.dtype
    # one representative per group, in key order (NaN == NaN, -0.0 == 0.0 here)
    assert [sort_key(v) for v in got.tolist()] == [sort_key(v) for v in arr[first].tolist()]


class TestEdges:
    def test_empty_input(self):
        for dtype in (np.int64, np.float64, object):
            empty = np.empty(0, dtype=dtype)
            codes, ngroups = group_codes([empty, empty])
            assert codes.dtype == np.int64 and len(codes) == 0 and ngroups == 0
            assert len(first_rows(codes, ngroups)) == 0
            assert sorted_unique(empty).dtype == empty.dtype

    def test_int64_extremes_in_one_column_do_not_wrap(self):
        # hi - lo is 2**64 - 1: a span taken in int64 wraps to -1 and
        # would send this column down the presence-table path
        arr = np.array([INT64_MAX, INT64_MIN, 0, INT64_MIN, INT64_MAX], dtype=np.int64)
        assert_kernel_matches([arr])
        np.testing.assert_array_equal(sorted_unique(arr), [INT64_MIN, 0, INT64_MAX])

    def test_narrow_dtype_shift_does_not_wrap(self):
        # span 256 <= 2 * n: the presence path; arr - lo must not run in int8
        arr = np.tile(np.array([-128, 127, 0, 5], dtype=np.int8), 40)
        assert 256 <= DENSE_SPAN_FACTOR * len(arr)
        assert_kernel_matches([arr])

    def test_dense_and_sparse_sides_of_the_span_threshold(self):
        rng = np.random.default_rng(5)
        n = 500
        for span in (DENSE_SPAN_FACTOR * n, DENSE_SPAN_FACTOR * n + 1, 50 * n):
            arr = rng.integers(-7, -7 + span, n)
            arr[:2] = (-7, -7 + span - 1)
            assert_kernel_matches([arr])

    def test_nans_collapse_into_one_last_group(self):
        arr = np.array([np.nan, 1.0, np.nan, -np.inf, np.nan])
        codes, ngroups = group_codes([arr])
        assert ngroups == 3 and codes.tolist() == [2, 1, 2, 0, 2]
        assert first_rows(codes, ngroups).tolist() == [3, 1, 0]
        got = sorted_unique(arr)
        assert len(got) == 3 and np.isnan(got[-1])

    def test_radix_product_past_int64(self):
        # four columns of 60 000 distinct values each: 60 000**4 > 2**63,
        # so the mixed-radix code is re-densified on the way
        rng = np.random.default_rng(9)
        n = 60_000
        arrays = [rng.permutation(n) for _ in range(4)]
        # make some rows equal on every column
        for arr in arrays:
            arr[n // 2 :][:100] = arr[:100]
        assert n**4 > INT64_MAX
        assert_kernel_matches(arrays)


# ----------------------------------------------------------------------
# operators
# ----------------------------------------------------------------------
#: 1e16 + 1.0 - 1e16 depends on the order of addition
FLOATS = st.sampled_from([0.5, -0.25, 3.0, 1e16, -1e16, 1.0, 2.5e-3])


@st.composite
def aggregate_inputs(draw):
    keys = draw(key_sets(max_columns=3, max_rows=40))
    n = len(keys[0])
    ints = _as_array(draw(st.lists(st.integers(-(10**6), 10**6), min_size=n, max_size=n)), np.int64)
    floats = _as_array(draw(st.lists(FLOATS, min_size=n, max_size=n)), np.float64)
    return keys, ints, floats


def reference_aggregate(codes, ngroups, func, values):
    """One Python accumulator per group, rows visited in row order."""
    members = [[] for _ in range(ngroups)]
    for code, value in zip(codes.tolist(), values.tolist()):
        members[code].append(value)
    out = []
    for group in members:
        if func == "count":
            out.append(len(group))
        elif func == "min":
            out.append(min(group))
        elif func == "max":
            out.append(max(group))
        else:
            acc = 0 if func == "sum" and values.dtype.kind in "iu" else 0.0
            for value in group:
                acc += value
            out.append(acc / len(group) if func == "avg" else acc)
    return np.array(out)


@given(aggregate_inputs())
@settings(max_examples=120, deadline=None)
def test_group_aggregate_matches_the_oracle(inputs):
    keys, ints, floats = inputs
    names = [f"k{i}" for i in range(len(keys))]
    rel = Relation({**dict(zip(names, keys)), "i": ints, "f": floats})
    expr = col("i") * lit(2) + col("f")
    inputs_by_name = {"i": ints, "f": floats, "e": ints * 2 + floats}
    specs = {
        f"{func}_{name}": (func, expr if name == "e" else name)
        for func in ("sum", "min", "max", "avg")
        for name in inputs_by_name
    }
    specs["n"] = ("count", None)
    codes, first = reference_groups(keys)
    serial = GroupAggregate(RelationSource(rel), names, specs).execute()
    assert serial.column_names == names + list(specs)
    for name, key in zip(names, keys):
        assert serial.column(name).dtype == key.dtype
        np.testing.assert_array_equal(serial.column(name), key[first])
    for out, (func, _) in specs.items():
        values = inputs_by_name.get(out.split("_")[-1], ints)
        want = reference_aggregate(codes, len(first), func, values)
        got = serial.column(out)
        int_result = func == "count" or (func != "avg" and values.dtype.kind == "i")
        assert got.dtype == (np.int64 if int_result else np.float64)
        np.testing.assert_array_equal(got, want)


@given(key_sets(max_rows=40), st.data())
@settings(max_examples=120, deadline=None)
def test_distinct_matches_the_oracle(keys, data):
    names = [f"k{i}" for i in range(len(keys))]
    rel = Relation(dict(zip(names, keys)))
    subsets = st.lists(st.sampled_from(names), min_size=1, unique=True)
    chosen = data.draw(st.one_of(st.none(), subsets))
    cols = names if chosen is None else chosen
    _, first = reference_groups([rel.column(c) for c in cols])
    serial = Distinct(RelationSource(rel), chosen).execute()
    assert serial.column_names == cols
    for name in cols:
        want = rel.column(name)[first]
        assert serial.column(name).dtype == want.dtype
        assert [sort_key(v) for v in serial.column(name).tolist()] == [
            sort_key(v) for v in want.tolist()
        ]


def test_unknown_aggregate_is_rejected():
    with pytest.raises(ValueError, match="unknown aggregate"):
        GroupAggregate(RelationSource(Relation({"k": np.arange(3)})), ["k"], {"m": ("median", "k")})
