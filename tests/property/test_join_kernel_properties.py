"""Property-based tests: the equi-join kernel against a per-tuple dict join.

``reference_join`` is the hash join the engine used to run — build side
into a ``dict`` of insertion-ordered buckets, one lookup per probe tuple
— kept here as the oracle.  The vectorised kernel must return the very
same ``(build_idx, probe_idx)`` arrays, in the same order, for every key
type, with duplicates and NULLs on either side, empty sides, and with
``build_sorted`` promised rightly, wrongly or not at all.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.batch import Relation
from repro.engine.operators import HashJoin, MergeJoin, RelationSource, _expand_matches


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


def sorted_nulls_last(keys):
    """``keys`` in non-decreasing order, NULLs at the end (as Sort leaves them)."""
    nulls = np.array([is_null(k) for k in keys.tolist()], dtype=bool)
    return np.concatenate([np.sort(keys[~nulls]), keys[nulls]])


def assert_pairs_equal(got, want):
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        np.testing.assert_array_equal(g, w)


@given(KEY_PAIRS, st.booleans())
@settings(max_examples=300, deadline=None)
def test_kernel_matches_dict_join(keys, build_sorted):
    build, probe = keys
    # an unsorted build under build_sorted=True is the wrong promise the
    # kernel must survive
    assert_pairs_equal(_expand_matches(build, probe, build_sorted), reference_join(build, probe))


@given(KEY_PAIRS)
@settings(max_examples=150, deadline=None)
def test_kernel_on_a_sorted_build_side(keys):
    build, probe = keys
    build = sorted_nulls_last(build)
    want = reference_join(build, probe)
    assert_pairs_equal(_expand_matches(build, probe, build_sorted=True), want)
    assert_pairs_equal(_expand_matches(build, probe, build_sorted=False), want)


@given(KEY_PAIRS)
@settings(max_examples=60, deadline=None)
def test_join_operators_match_the_reference(keys):
    build, probe = keys
    left = Relation({"k": build, "l": np.arange(len(build), dtype=np.int64)})
    right = Relation({"j": probe, "r": np.arange(len(probe), dtype=np.int64)})
    build_idx, probe_idx = reference_join(build, probe)
    for operator, kwargs in ((HashJoin, {"build_side": "left"}), (MergeJoin, {})):
        join = operator(RelationSource(left), RelationSource(right), "k", "j", **kwargs)
        out = join.execute()
        assert out.column_names == ["k", "l", "j", "r"]
        np.testing.assert_array_equal(out.column("l"), build_idx)
        np.testing.assert_array_equal(out.column("r"), probe_idx)
        for name, source, idx in (("k", build, build_idx), ("j", probe, probe_idx)):
            assert out.column(name).dtype == source.dtype
            np.testing.assert_array_equal(out.column(name), source[idx])
