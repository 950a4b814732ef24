"""Unit tests for the longest sorted subsequence algorithm."""

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lis import (
    BULK_MIN,
    longest_nondecreasing,
    longest_sorted_subsequence,
    order_codes,
)


INT64_MIN, INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def _patience_oracle(codes):
    """The per-row patience loop the run kernel replaced, kept verbatim
    as the reference: same piles, same parents, same tie rule."""
    n = len(codes)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    tails: list = []  # smallest tail code of an increasing run of length i+1
    tail_idx = np.empty(n, dtype=np.int64)  # index holding tails[i]
    parent = np.full(n, -1, dtype=np.int64)
    code_list = codes.tolist()
    length = 0
    for i, c in enumerate(code_list):
        # non-decreasing: replace the first tail strictly greater than c
        pos = bisect_right(tails, c)
        if pos == length:
            tails.append(c)
            length += 1
        else:
            tails[pos] = c
        tail_idx[pos] = i
        parent[i] = tail_idx[pos - 1] if pos > 0 else -1
    out = np.empty(length, dtype=np.int64)
    i = tail_idx[length - 1]
    for k in range(length - 1, -1, -1):
        out[k] = i
        i = parent[i]
    return out


def check_sorted(values, idx, ascending=True):
    seq = values[idx]
    if len(seq) <= 1:
        return True
    pairs = seq[1:] >= seq[:-1] if ascending else seq[1:] <= seq[:-1]
    return bool(np.all(pairs))


def brute_force_length(values, ascending=True):
    # O(n^2) DP reference
    n = len(values)
    best = [1] * n
    for i in range(n):
        for j in range(i):
            ok = values[j] <= values[i] if ascending else values[j] >= values[i]
            if ok:
                best[i] = max(best[i], best[j] + 1)
    return max(best, default=0)


class TestLIS:
    def test_empty(self):
        assert len(longest_sorted_subsequence(np.array([]))) == 0

    def test_sorted_input_keeps_everything(self):
        idx = longest_sorted_subsequence(np.arange(100))
        assert len(idx) == 100

    def test_reverse_sorted_keeps_one(self):
        idx = longest_sorted_subsequence(np.arange(100)[::-1])
        assert len(idx) == 1

    def test_duplicates_extend_run(self):
        # non-decreasing: duplicates are part of the run
        idx = longest_sorted_subsequence(np.array([1, 1, 1, 1]))
        assert len(idx) == 4

    def test_classic_example(self):
        values = np.array([3, 1, 2, 10, 4, 5])
        idx = longest_sorted_subsequence(values)
        assert len(idx) == 4  # 1 2 4 5
        assert check_sorted(values, idx)

    def test_indices_are_increasing_positions(self):
        values = np.array([5, 1, 6, 2, 7, 3])
        idx = longest_sorted_subsequence(values)
        assert np.all(np.diff(idx) > 0)
        assert check_sorted(values, idx)

    def test_descending(self):
        values = np.array([1, 9, 8, 2, 7, 7, 3])
        idx = longest_sorted_subsequence(values, ascending=False)
        assert check_sorted(values, idx, ascending=False)
        assert len(idx) == 5  # 9 8 7 7 3

    def test_string_values(self):
        values = np.array(["a", "c", "b", "d"], dtype=object)
        idx = longest_sorted_subsequence(values)
        assert len(idx) == 3
        assert check_sorted(values[idx].astype(str), np.arange(3))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 20, size=40)
        for ascending in (True, False):
            idx = longest_sorted_subsequence(values, ascending)
            assert check_sorted(values, idx, ascending)
            assert len(idx) == brute_force_length(values, ascending)


class TestOrderCodes:
    def test_preserves_order(self):
        values = np.array([30.0, 10.0, 20.0])
        codes = order_codes(values)
        assert codes.tolist() == [2, 0, 1]

    def test_descending_negates(self):
        values = np.array([1.0, 2.0])
        asc = order_codes(values, True)
        desc = order_codes(values, False)
        np.testing.assert_array_equal(desc, -asc)

    def test_integers_are_their_own_codes(self):
        values = np.array([30, 10, 20, INT64_MIN, INT64_MAX])
        assert order_codes(values) is values
        # ~v = -1 - v reverses the order and cannot overflow at the limits
        assert order_codes(values, False).tolist() == [-31, -11, -21, INT64_MAX, INT64_MIN]

    def test_codes_without_a_descent_skip_the_kernel(self):
        codes = np.array([INT64_MIN, -1, -1, 0, INT64_MAX])
        np.testing.assert_array_equal(longest_nondecreasing(codes), np.arange(5))
        np.testing.assert_array_equal(_patience_oracle(codes), np.arange(5))


class TestNullOrder:
    def test_null_ranks_after_every_value(self):
        values = np.array(["b", None, "a", None], dtype=object)
        assert order_codes(values).tolist() == [1, 2, 0, 2]
        assert order_codes(values, False).tolist() == [-1, -2, 0, -2]

    def test_nan_ranks_after_every_value(self):
        values = np.array([2.0, np.nan, -1.0, np.inf])
        assert order_codes(values).tolist() == [1, 3, 0, 2]

    def test_null_run_is_kept_last(self):
        # ORDER BY s places NULL last, so the sorted run ends with it
        values = np.array([None, "a", "b", "d", "c", None], dtype=object)
        assert longest_sorted_subsequence(values).tolist() == [1, 2, 4, 5]
        # ... and first for DESC
        values = np.array([None, "d", "a", "c", "b"], dtype=object)
        assert longest_sorted_subsequence(values, False).tolist() == [0, 1, 3, 4]


class TestTieRule:
    def test_pinned_indices(self):
        # bisect_right piles: ties extend, the latest tails win
        values = np.array([3, 1, 2, 2, 1, 3, 0, 3])
        assert longest_sorted_subsequence(values).tolist() == [1, 2, 3, 5, 7]
        assert longest_sorted_subsequence(values, False).tolist() == [0, 2, 3, 4, 6]

    def test_bulk_run_after_below_top_elements(self):
        # the second run starts below the top pile, then crosses it and
        # appends its long remainder in one slice
        head = np.arange(10)
        tail = np.concatenate([[2, 3], np.arange(9, 9 + 2 * BULK_MIN)])
        values = np.concatenate([head, tail])
        np.testing.assert_array_equal(
            longest_sorted_subsequence(values), _patience_oracle(order_codes(values))
        )


# ----------------------------------------------------------------------
# the run kernel is index-for-index the per-row loop
# ----------------------------------------------------------------------
def _nearly_sorted(draw):
    n = draw(st.integers(0, 400))
    e = draw(st.sampled_from([0.0, 0.01, 0.2, 0.5]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    values = np.arange(n, dtype=np.int64) * 2
    exc = rng.random(n) < e
    # both high and low exceptions around the backbone
    values[exc] += rng.integers(-n, n + 1, int(exc.sum())) * 2
    return values


def _sorted_blocks(draw):
    # concatenated sorted runs shorter and longer than the bulk threshold
    lengths = draw(st.lists(st.integers(1, 3 * BULK_MIN), max_size=12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    blocks = [np.sort(rng.integers(0, 40, k)) for k in lengths]
    return np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.int64)


@st.composite
def columns(draw):
    kind = draw(st.sampled_from(
        ["ints", "nan_floats", "strings", "nearly_sorted", "blocks",
         "all_equal", "descending", "empty"]
    ))
    if kind == "ints":
        return np.array(draw(st.lists(st.integers(-20, 20), max_size=120)), dtype=np.int64)
    if kind == "nan_floats":
        floats = st.one_of(st.floats(-5, 5), st.just(float("nan")), st.just(float("inf")))
        return np.array(draw(st.lists(floats, max_size=120)), dtype=np.float64)
    if kind == "strings":
        texts = st.one_of(st.none(), st.text(alphabet="abc", max_size=2))
        return np.array(draw(st.lists(texts, max_size=120)), dtype=object)
    if kind == "nearly_sorted":
        return _nearly_sorted(draw)
    if kind == "blocks":
        return _sorted_blocks(draw)
    n = draw(st.integers(0, 3 * BULK_MIN))
    if kind == "all_equal":
        return np.full(n, draw(st.integers(-3, 3)), dtype=np.int64)
    if kind == "descending":
        return np.arange(n, 0, -1, dtype=np.int64)
    return np.zeros(0, dtype=np.int64)


@given(columns(), st.booleans())
@settings(max_examples=400, deadline=None)
def test_run_kernel_matches_patience_oracle(values, ascending):
    codes = order_codes(values, ascending)
    got = longest_sorted_subsequence(values, ascending)
    np.testing.assert_array_equal(got, _patience_oracle(codes))
    np.testing.assert_array_equal(longest_nondecreasing(codes), got)
    assert got.dtype == np.int64


def _dense_codes(values, ascending):
    """Dense order codes of an integer column, the recoding its own
    values (or ``~values``) replace."""
    codes = np.unique(values, return_inverse=True)[1].astype(np.int64)
    return codes if ascending else -codes


@st.composite
def int_columns(draw):
    """Integer columns reaching INT64_MIN/MAX: random, with duplicates,
    ascending and descending."""
    pool = st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1, INT64_MAX])
    values = draw(st.lists(st.one_of(pool, st.integers(-5, 5)), max_size=3 * BULK_MIN))
    shape = draw(st.sampled_from(["random", "ascending", "descending"]))
    if shape != "random":
        values = sorted(values, reverse=shape == "descending")
    return np.array(values, dtype=np.int64)


@given(int_columns(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_integer_codes_match_the_oracle_over_dense_codes(values, ascending):
    got = longest_sorted_subsequence(values, ascending)
    np.testing.assert_array_equal(got, _patience_oracle(_dense_codes(values, ascending)))
    assert got.dtype == np.int64
