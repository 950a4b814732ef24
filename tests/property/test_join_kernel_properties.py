"""Property-based tests: the equi-join kernel against per-tuple oracles.

``reference_join`` is the hash join the engine used to run — build side
into a ``dict`` of insertion-ordered buckets, one lookup per probe tuple
— kept here as the oracle.  The vectorised kernel must return the very
same ``(build_idx, probe_idx)`` arrays, in the same order, for every key
type, with duplicates and NULLs on either side, and empty sides.

The kernel skips its build sort when the non-NULL build keys arrive
non-decreasing (the merge join of §3.3).  ``argsort_oracle`` always
sorts; a spy on the kernel's ``argsort`` shows the skip happens exactly
on such builds, whichever side the join builds on.
"""

from bisect import bisect_left
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import operators
from repro.engine.batch import Relation
from repro.engine.operators import HashJoin, RelationSource, _expand_matches


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


def key_arrays(elements, dtype):
    side = st.lists(elements, max_size=40)
    return st.tuples(side, side).map(
        lambda sides: tuple(_as_array(values, dtype) for values in sides)
    )


def _as_array(values, dtype):
    arr = np.empty(len(values), dtype=dtype)
    arr[:] = values
    return arr


# small domains, so both sides repeat keys and hit each other
KEY_PAIRS = st.one_of(
    key_arrays(st.integers(-4, 8), np.int64),
    key_arrays(st.sampled_from([-1.5, -0.0, 0.0, 2.0, 3.25, float("nan")]), np.float64),
    key_arrays(st.sampled_from(["a", "b", "ab", "", "zz", None]), object),
)


#: element strategy, dtype and NULLs (none for int64) of each key type
KEY_TYPES = {
    "int": (st.integers(-4, 8), np.int64, []),
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
    assert spy.argsorts == (0 if ascending else 1)


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
