"""Property-based tests: the equi-join kernel against per-tuple oracles.

``reference_join`` is the hash join the engine used to run — build side
into a ``dict`` of insertion-ordered buckets, one lookup per probe tuple
— kept here as the oracle.  The vectorised kernel must return the very
same ``(build_idx, probe_idx)`` arrays, in the same order, for every key
type, with duplicates and NULLs on either side, and empty sides.

The kernel locates probe keys one of two ways: integer builds of small
span by a presence table, every other build by binary search.  Integer
keys are drawn both from small domains (presence table) and from the
whole int64 / uint64 range (binary search), with the two sides of
independently drawn int8 / int32 / uint8 / uint64 / int64 dtypes; a
module fixture fails unless both ways ran, each with and without the
shortcut for builds of distinct keys.

The kernel skips its build sort when the non-NULL build keys arrive
non-decreasing (the merge join of §3.3), and a presence table over
distinct keys needs no sort at all.  ``argsort_oracle`` always sorts; a
spy on the kernel's ``argsort`` shows the kernel sorts exactly when
neither holds, whichever side the join builds on.
"""

from bisect import bisect_left
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import operators
from repro.engine.batch import Relation
from repro.engine.groups import DENSE_JOIN_SPAN_FACTOR
from repro.engine.operators import HashJoin, RelationSource, _expand_matches

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
UINT64_MAX = 2**64 - 1


def is_null(key) -> bool:
    return key is None or key != key


def reference_join(build_keys, probe_keys):
    """Dict build + per-tuple probe; NULL keys match nothing (SQL)."""
    table = {}
    for pos, key in enumerate(build_keys.tolist()):
        if not is_null(key):
            table.setdefault(key, []).append(pos)
    build_idx, probe_idx = [], []
    for i, key in enumerate(probe_keys.tolist()):
        for b in () if is_null(key) else table.get(key, ()):
            build_idx.append(b)
            probe_idx.append(i)
    return np.asarray(build_idx, dtype=np.int64), np.asarray(probe_idx, dtype=np.int64)


def argsort_oracle(build_keys, probe_keys):
    """Stable argsort of the non-NULL build keys, then a binary search per probe tuple."""
    present = np.array(
        [i for i, key in enumerate(build_keys.tolist()) if not is_null(key)], dtype=np.int64
    )
    order = present[np.argsort(build_keys[present], kind="stable")].tolist()
    keys = [build_keys[i] for i in order]
    build_idx, probe_idx = [], []
    for i, key in enumerate(probe_keys.tolist()):
        pos = len(keys) if is_null(key) else bisect_left(keys, key)
        while pos < len(keys) and keys[pos] == key:
            build_idx.append(order[pos])
            probe_idx.append(i)
            pos += 1
    return np.asarray(build_idx, dtype=np.int64), np.asarray(probe_idx, dtype=np.int64)


@pytest.fixture(scope="module", autouse=True)
def both_locate_paths_run():
    """Fails the module unless the presence table and the binary search
    each located keys, with and without the distinct-keys shortcut."""
    seen = set()

    def spying(name):
        locate = getattr(operators, name)

        def spy(*args):
            located = locate(*args)
            if located is not None:
                seen.add((name, located[3] is None))
            return located

        return spy

    names = ("_locate_dense", "_locate_sorted")
    with (
        mock.patch.object(operators, names[0], spying(names[0])),
        mock.patch.object(operators, names[1], spying(names[1])),
    ):
        yield
    want = {(name, distinct) for name in names for distinct in (True, False)}
    assert seen == want, f"locate paths never run: {sorted(want - seen)}"


def key_arrays(elements, dtype):
    side = st.lists(elements, max_size=40)
    return st.tuples(side, side).map(
        lambda sides: tuple(_as_array(values, dtype) for values in sides)
    )


def _as_array(values, dtype):
    arr = np.empty(len(values), dtype=dtype)
    arr[:] = values
    return arr


INT_DTYPES = [np.int8, np.int32, np.uint8, np.uint64, np.int64]
#: keys at the edges of the dtypes, so a build holding one spans widely
EXTREMES = [INT64_MIN, INT64_MIN + 1, -129, -1, 0, 255, INT64_MAX, 2**63, UINT64_MAX]


@st.composite
def int_key_pairs(draw):
    """``(build, probe)`` of two independently drawn integer dtypes: keys
    near one low (negative, zero, near the int64 or uint64 top) and now
    and then an extreme, each side keeping the keys its dtype holds."""
    low = draw(st.sampled_from([-140, -5, 0, 2**63 - 30, UINT64_MAX - 30]))
    near = st.integers(low, low + 30)
    keys = st.one_of(near, near, near, st.sampled_from(EXTREMES))

    def side():
        dtype = np.dtype(draw(st.sampled_from(INT_DTYPES)))
        info = np.iinfo(dtype)
        values = [v for v in draw(st.lists(keys, max_size=40)) if info.min <= v <= info.max]
        return _as_array(values, dtype)

    return side(), side()


# small domains, so both sides repeat keys and hit each other; integers
# also from the whole int64 range, and mixed across dtypes
KEY_PAIRS = st.one_of(
    key_arrays(st.integers(-4, 8), np.int64),
    key_arrays(st.integers(INT64_MIN, INT64_MAX), np.int64),
    int_key_pairs(),
    key_arrays(st.sampled_from([-1.5, -0.0, 0.0, 2.0, 3.25, float("nan")]), np.float64),
    key_arrays(st.sampled_from(["a", "b", "ab", "", "zz", None]), object),
)


#: element strategy, dtype and NULLs (none for int64) of each key type
KEY_TYPES = {
    "int": (st.integers(-4, 8), np.int64, []),
    "wide int": (st.integers(INT64_MIN, INT64_MAX), np.int64, []),
    "float": (st.sampled_from([-1.5, -0.0, 0.0, 2.0, 3.25]), np.float64, [float("nan")]),
    "object": (st.sampled_from(["a", "b", "ab", "", "zz"]), object, [None]),
}


@st.composite
def shaped_inputs(draw):
    """``(build, probe)``: build keys sorted, in runs, descending or as drawn,
    NULLs (NaN, None) sprinkled anywhere when the type has one."""
    elements, dtype, nulls = KEY_TYPES[draw(st.sampled_from(sorted(KEY_TYPES)))]
    build = draw(st.lists(elements, max_size=40))
    shape = draw(st.sampled_from(["sorted", "runs", "descending", "unsorted"]))
    if shape == "sorted":
        build = sorted(build)
    elif shape == "runs":
        build = sorted(build * draw(st.integers(2, 3)))
    elif shape == "descending":
        build = sorted(build, reverse=True)
    for pos in draw(st.lists(st.integers(0, len(build)), max_size=4 if nulls else 0)):
        build.insert(pos, nulls[0])
    probe = draw(st.lists(st.one_of(elements, *map(st.just, nulls)), max_size=40))
    return _as_array(build, dtype), _as_array(probe, dtype)


class ArgsortSpy:
    """Stands in for ``numpy`` inside the operators module, counting argsorts."""

    def __init__(self):
        self.argsorts = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def argsort(self, *args, **kwargs):
        self.argsorts += 1
        return np.argsort(*args, **kwargs)


def sorted_nulls_last(keys):
    """``keys`` in non-decreasing order, NULLs at the end (as Sort leaves them)."""
    nulls = np.array([is_null(k) for k in keys.tolist()], dtype=bool)
    return np.concatenate([np.sort(keys[~nulls]), keys[nulls]])


def assert_pairs_equal(got, want):
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        np.testing.assert_array_equal(g, w)


@given(KEY_PAIRS)
@settings(max_examples=300, deadline=None)
def test_kernel_matches_dict_join(keys):
    build, probe = keys
    assert_pairs_equal(_expand_matches(build, probe), reference_join(build, probe))


@given(KEY_PAIRS)
@settings(max_examples=150, deadline=None)
def test_kernel_on_a_sorted_build_side(keys):
    build, probe = keys
    build = sorted_nulls_last(build)
    assert_pairs_equal(_expand_matches(build, probe), reference_join(build, probe))


@given(shaped_inputs(), st.sampled_from(["left", "right"]))
@settings(max_examples=300, deadline=None)
def test_join_skips_the_build_sort_exactly_on_sorted_keys(inputs, build_side):
    build, probe = inputs
    build_rel = Relation({"k": build, "b": np.arange(len(build), dtype=np.int64)})
    probe_rel = Relation({"j": probe, "p": np.arange(len(probe), dtype=np.int64)})
    sides = [RelationSource(build_rel), RelationSource(probe_rel)]
    keys = ["k", "j"]
    if build_side == "right":
        sides.reverse()
        keys.reverse()
    spy = ArgsortSpy()
    with mock.patch.object(operators, "np", spy):
        out = HashJoin(*sides, *keys, build_side=build_side).execute()
    build_idx, probe_idx = argsort_oracle(build, probe)
    np.testing.assert_array_equal(out.column("b"), build_idx)
    np.testing.assert_array_equal(out.column("p"), probe_idx)
    present = [key for key in build.tolist() if not is_null(key)]
    ascending = all(a <= b for a, b in zip(present, present[1:]))
    # a presence table needs no order over distinct keys, and always
    # sorts duplicate ones; binary search sorts what is not ascending.
    # String keys join on dictionary codes numbered build side first,
    # so their build codes span no more values than the build has keys.
    dense = len(present) > 0 and (
        build.dtype == object
        or build.dtype.kind == probe.dtype.kind == "i"
        and max(present) - min(present) + 1 <= DENSE_JOIN_SPAN_FACTOR * len(present)
    )
    distinct = len(set(present)) == len(present)
    assert spy.argsorts == (int(not distinct) if dense else int(not ascending))


@given(KEY_PAIRS)
@settings(max_examples=60, deadline=None)
def test_join_operators_match_the_reference(keys):
    build, probe = keys
    right = Relation({"j": probe, "r": np.arange(len(probe), dtype=np.int64)})
    # as drawn (sorted by the kernel) and pre-sorted (taken as it comes)
    for build_keys in (build, sorted_nulls_last(build)):
        left = Relation({"k": build_keys, "l": np.arange(len(build), dtype=np.int64)})
        build_idx, probe_idx = reference_join(build_keys, probe)
        join = HashJoin(RelationSource(left), RelationSource(right), "k", "j", build_side="left")
        out = join.execute()
        assert out.column_names == ["k", "l", "j", "r"]
        np.testing.assert_array_equal(out.column("l"), build_idx)
        np.testing.assert_array_equal(out.column("r"), probe_idx)
        for name, source, idx in (("k", build_keys, build_idx), ("j", probe, probe_idx)):
            assert out.column(name).dtype == source.dtype
            np.testing.assert_array_equal(out.column(name), source[idx])


def run_pairs(build, probe, dtypes):
    return _expand_matches(_as_array(build, dtypes[0]), _as_array(probe, dtypes[1]))


@pytest.mark.parametrize(
    "build,probe,dtypes,want",
    [
        # presence table (span 3): 2**64 - 1 is not -1, 2**63 not INT64_MIN
        ([-1, 0, 1], [UINT64_MAX, 0, 1, 2**63], (np.int64, np.uint64), ([1, 2], [1, 2])),
        ([INT64_MIN, INT64_MIN + 1], [2**63, 2**63 + 1], (np.int64, np.uint64), ([], [])),
        ([UINT64_MAX, UINT64_MAX - 1], [-1, -2, 0], (np.uint64, np.int64), ([], [])),
        ([2**63, 2**63 + 1], [INT64_MIN, INT64_MAX], (np.uint64, np.int64), ([], [])),
        # a probe key at the far end of int64 wraps past the span
        ([INT64_MIN, INT64_MIN + 1], [INT64_MAX, INT64_MIN, -1], (np.int64, np.int64), ([0], [1])),
        ([INT64_MAX - 1, INT64_MAX], [INT64_MIN, INT64_MAX, 0], (np.int64, np.int64), ([1], [1])),
        ([-128, 127, -128], [-128, 127, 0], (np.int8, np.int8), ([0, 2, 1], [0, 0, 1])),
        ([0, 255], [255, -1, 256], (np.uint8, np.int32), ([1], [0])),
        # binary search: int64 against uint64 must not meet in float64
        ([2**53, 2**53 + 1, INT64_MIN], [2**53 + 1], (np.int64, np.uint64), ([1], [0])),
        ([INT64_MAX - 1, INT64_MAX, 0], [INT64_MAX, 2**63], (np.int64, np.uint64), ([1], [0])),
        ([2**63 + 1, 1, 2**63 + 1], [1, -1, -2], (np.uint64, np.int64), ([1], [0])),
    ],
)
def test_integer_extremes_and_mixed_dtypes(build, probe, dtypes, want):
    got = run_pairs(build, probe, dtypes)
    assert_pairs_equal(got, tuple(np.asarray(w, dtype=np.int64) for w in want))
    b, p = _as_array(build, dtypes[0]), _as_array(probe, dtypes[1])
    assert_pairs_equal(got, reference_join(b, p))


@pytest.mark.parametrize("dtypes", [(np.int64, np.int64), (np.uint8, np.int64), (object, object)])
def test_empty_sides(dtypes):
    for build, probe in (([], [1, 2]), ([1, 2], []), ([], [])):
        got = run_pairs(build, probe, dtypes)
        assert_pairs_equal(got, (np.zeros(0, dtype=np.int64),) * 2)


@pytest.mark.parametrize("duplicates", [False, True])
def test_presence_table_exactly_up_to_the_span_bound(duplicates):
    """``DENSE_JOIN_SPAN_FACTOR`` slots a build key locate by presence
    table, one slot more by binary search; both join every key of the
    span, and the keys just outside it join nothing."""
    n = 10
    for span, searched in ((DENSE_JOIN_SPAN_FACTOR * n, 0), (DENSE_JOIN_SPAN_FACTOR * n + 1, 1)):
        build = np.linspace(-7, -7 + span - 1, n).astype(np.int64)[::-1].copy()
        if duplicates:
            build[2:5] = build[3]  # one run of three, the ends kept
        probe = np.arange(-9, -7 + span + 2, dtype=np.int64)
        with mock.patch.object(
            operators, "_locate_sorted", side_effect=operators._locate_sorted
        ) as locate:
            got = _expand_matches(build, probe)
        assert locate.call_count == searched
        assert_pairs_equal(got, reference_join(build, probe))
