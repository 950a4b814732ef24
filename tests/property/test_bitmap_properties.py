"""Property-based tests: bitmaps against a list-of-bools model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap import PlainBitmap, ShardedBitmap
from repro.bitmap import kernels

SHARD = 128


class BitOp:
    """One random mutation applied to both model and implementation."""

    def __init__(self, kind, payload):
        self.kind = kind
        self.payload = payload

    def __repr__(self):
        return f"BitOp({self.kind}, {self.payload})"


OPS = ["set", "unset", "set_many", "delete", "bulk", "append", "extend", "condense"]


@st.composite
def op_sequences(draw):
    length = draw(st.integers(min_value=1, max_value=400))
    n_ops = draw(st.integers(min_value=0, max_value=40))
    ops = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(OPS))
        payload = draw(st.integers(min_value=0, max_value=10**6))
        extra = draw(st.lists(st.integers(min_value=0, max_value=10**6), max_size=8))
        ops.append(BitOp(kind, (payload, extra)))
    return length, ops


def apply_op(bitmap, model, op):
    """Apply ``op`` to the bitmap and the list of bools alike.

    Multi-position ops take their positions unsorted and with repeats,
    half the time as a list and half as an ndarray.
    """
    n = len(model)
    value, extra = op.payload
    if op.kind == "append":
        bit = bool(value % 2)
        bitmap.append(bit)
        model.append(bit)
    elif op.kind == "extend":
        nbits = value % 300
        bitmap.extend(nbits)
        model.extend([False] * nbits)
    elif n == 0:
        return
    elif op.kind == "set":
        bitmap.set(value % n)
        model[value % n] = True
    elif op.kind == "unset":
        bitmap.unset(value % n)
        model[value % n] = False
    elif op.kind == "delete":
        bitmap.delete(value % n)
        del model[value % n]
    elif op.kind in ("set_many", "bulk"):
        positions = [v % n for v in [value] + extra]
        if value % 2:
            positions = np.array(positions, dtype=np.int64)
        if op.kind == "set_many" and isinstance(bitmap, ShardedBitmap):
            bitmap.set_many(positions)
            for p in positions:
                model[p] = True
        elif op.kind == "bulk":
            bitmap.bulk_delete(positions)
            for p in sorted(set(positions), reverse=True):
                del model[p]
    elif op.kind == "condense" and isinstance(bitmap, ShardedBitmap):
        bitmap.condense()


def apply_ops(bitmap, model, ops):
    for op in ops:
        apply_op(bitmap, model, op)


@pytest.mark.parametrize("shard_bits", [SHARD, 192])
@pytest.mark.parametrize("condense_threshold", [None, 0.0, 0.05])
@given(op_sequences())
@settings(max_examples=60, deadline=None)
def test_sharded_bitmap_matches_model(shard_bits, condense_threshold, case):
    """The sharded bitmap's oracle: every mutator, on pow2 and non-pow2
    shards, with auto-condense off, after every lost bit and past 5 %,
    checked bit by bit (and the cached count) after every op."""
    length, ops = case
    bitmap = ShardedBitmap(length, shard_bits=shard_bits, condense_threshold=condense_threshold)
    model = [False] * length
    for op in ops:
        apply_op(bitmap, model, op)
        expect = np.array(model, dtype=bool)
        assert len(bitmap) == len(model)
        assert bitmap.count() == int(expect.sum())
        np.testing.assert_array_equal(bitmap.get_many(np.arange(len(model))), expect)
    np.testing.assert_array_equal(bitmap.to_bool_array(), np.array(model, dtype=bool))
    if condense_threshold == 0.0:
        assert bitmap.lost_bits() == 0


@given(op_sequences())
@settings(max_examples=30, deadline=None)
def test_plain_bitmap_matches_model(case):
    length, ops = case
    bitmap = PlainBitmap(length)
    model = [False] * length
    apply_ops(bitmap, model, ops)
    assert len(bitmap) == len(model)
    np.testing.assert_array_equal(bitmap.to_bool_array(), np.array(model, dtype=bool))


@given(
    st.lists(st.booleans(), min_size=1, max_size=500),
    st.integers(min_value=0, max_value=499),
)
@settings(max_examples=60, deadline=None)
def test_shift_kernels_agree_and_match_reference(bits, pos):
    bits = np.array(bits, dtype=bool)
    pos = pos % len(bits)
    expected = bits.copy()
    expected[pos:-1] = bits[pos + 1 :]
    expected[-1] = False
    for kernel in (kernels.shift_down_vectorized, kernels.shift_down_scalar):
        words = kernels.bool_to_words(bits)
        kernel(words, pos, len(bits))
        np.testing.assert_array_equal(kernels.words_to_bool(words, len(bits)), expected)


@given(st.lists(st.booleans(), max_size=300))
@settings(max_examples=40, deadline=None)
def test_pack_unpack_roundtrip(bits):
    arr = np.array(bits, dtype=bool)
    words = kernels.bool_to_words(arr)
    np.testing.assert_array_equal(kernels.words_to_bool(words, len(arr)), arr)
    assert kernels.popcount_words(words) == int(arr.sum())


@given(
    st.integers(min_value=1, max_value=2000),
    st.sets(st.integers(min_value=0, max_value=1999), max_size=100),
)
@settings(max_examples=40, deadline=None)
def test_condense_preserves_content(length, raw_deletes):
    deletes = sorted(d for d in raw_deletes if d < length)
    rng = np.random.default_rng(0)
    bits = rng.random(length) < 0.5
    bm = ShardedBitmap.from_bool_array(bits, shard_bits=SHARD)
    if deletes:
        bm.bulk_delete(deletes)
    before = bm.to_bool_array()
    bm.condense()
    assert bm.lost_bits() == 0
    np.testing.assert_array_equal(bm.to_bool_array(), before)
