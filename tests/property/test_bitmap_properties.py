"""Property-based tests: bitmaps against a list-of-bools model, and the
sharded bitmap's bulk delete against the per-bit loop it replaced."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap import PlainBitmap, ShardedBitmap
from repro.bitmap import kernels
from repro.bitmap.sharded import REPACK_MIN

SHARD = 128


class PerBitShardedBitmap(ShardedBitmap):
    """The oracle: a sharded bitmap whose bulk delete shifts once per
    deleted bit, highest first within each shard, and then fixes the
    start values in one running sum (§4.2.3)."""

    def bulk_delete(self, positions):
        pos = np.unique(np.asarray(positions, dtype=np.int64))
        if len(pos) == 0:
            return
        self._count = None
        shards = np.searchsorted(self._starts, pos, side="right") - 1
        offsets = pos - self._starts[shards]
        for shard in np.unique(shards).tolist():
            words = self._shard_words(shard)
            nbits = self._shard_bit_count(shard)
            for off in offsets[shards == shard][::-1].tolist():
                kernels.shift_down_vectorized(words, off, nbits)
                nbits -= 1
        deleted_per_shard = np.bincount(shards, minlength=len(self._starts))
        self._starts[1:] -= np.cumsum(deleted_per_shard)[:-1]
        self._lost[:-1] += deleted_per_shard[:-1]
        self._length -= len(pos)


class BitOp:
    """One random mutation applied to both model and implementation."""

    def __init__(self, kind, payload):
        self.kind = kind
        self.payload = payload

    def __repr__(self):
        return f"BitOp({self.kind}, {self.payload})"


#: bulk deletes shaped by the shard layout: at least REPACK_MIN positions
#: in one shard, a whole shard, a shard's tail up to its last logical bit,
#: a run across shard boundaries, and one dense shard among sparse positions
SHAPED = ["dense", "whole", "tail", "cross", "mixed"]
OPS = ["set", "unset", "set_many", "delete", "bulk", "append", "extend", "condense"] + SHAPED


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


def shard_spans(bitmap, n):
    """``(start, nbits)`` of every shard holding bits; a plain bitmap is
    cut into windows of ``SHARD`` bits."""
    if isinstance(bitmap, ShardedBitmap):
        spans = [(int(s), bitmap._shard_bit_count(i)) for i, s in enumerate(bitmap._starts)]
    else:
        spans = [(s, min(SHARD, n - s)) for s in range(0, n, SHARD)]
    return [(s, c) for s, c in spans if c > 0]


def shaped_positions(bitmap, n, kind, value, extra):
    """Positions of one shaped bulk delete, by the current shard layout."""
    spans = shard_spans(bitmap, n)
    which = value % len(spans)
    start, nbits = spans[which]
    rng = np.random.default_rng(value)
    if kind == "whole":
        return list(range(start, start + nbits))
    if kind == "tail":
        return list(range(start + nbits - 1 - value % nbits, start + nbits))
    if kind == "cross":
        if which + 1 == len(spans) and which > 0:
            start, nbits = spans[which - 1]
        end = min(n, start + nbits + 1 + (value >> 3) % (3 * SHARD))
        return list(range(start + nbits - 1 - (value >> 1) % nbits, end))
    k = min(nbits, REPACK_MIN + value % nbits)
    dense = (start + rng.choice(nbits, k, replace=False)).tolist()
    return dense + ([v % n for v in extra] if kind == "mixed" else [])


def apply_op(bitmap, model, op):
    """Apply ``op`` to the bitmap and the list of bools alike; return the
    positions a bulk delete was given, else None.

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
        return None
    elif op.kind == "set":
        bitmap.set(value % n)
        model[value % n] = True
    elif op.kind == "unset":
        bitmap.unset(value % n)
        model[value % n] = False
    elif op.kind == "delete":
        bitmap.delete(value % n)
        del model[value % n]
    elif op.kind in ["set_many", "bulk"] + SHAPED:
        if op.kind in SHAPED:
            positions = shaped_positions(bitmap, n, op.kind, value, extra)
        else:
            positions = [v % n for v in [value] + extra]
        if value % 2:
            positions = np.array(positions, dtype=np.int64)
        if op.kind == "set_many" and isinstance(bitmap, ShardedBitmap):
            bitmap.set_many(positions)
            for p in positions:
                model[p] = True
        elif op.kind != "set_many":
            bitmap.bulk_delete(positions)
            for p in sorted(set(positions), reverse=True):
                del model[p]
            return positions
    elif op.kind == "condense" and isinstance(bitmap, ShardedBitmap):
        bitmap.condense()
    return None


def apply_ops(bitmap, model, ops):
    for op in ops:
        apply_op(bitmap, model, op)


def expected_shifts(oracle, positions):
    """Shift-kernel calls the shipped bulk delete makes: one per deleted
    bit of a shard that receives fewer than REPACK_MIN, none otherwise."""
    pos = np.unique(np.asarray(positions, dtype=np.int64))
    per_shard = np.bincount(np.searchsorted(oracle._starts, pos, side="right") - 1)
    return int(per_shard[per_shard < REPACK_MIN].sum())


@pytest.mark.parametrize("shard_bits", [SHARD, 192])
@pytest.mark.parametrize("condense_every", [None, 1, 3])
@given(op_sequences())
@settings(max_examples=60, deadline=None)
def test_sharded_bitmap_matches_model(shard_bits, condense_every, case):
    """The sharded bitmap's oracle: every mutator, on pow2 and non-pow2
    shards, with a condense only where the sequence draws one, or also
    after every op or every third, checked bit by bit (and the cached
    count) after every op.

    A twin whose bulk delete shifts once per bit takes the same ops; its
    words, start values, lost bits and count must equal the bitmap's, and
    the bitmap must shift only the shards with fewer than REPACK_MIN
    deletes."""
    length, ops = case
    bitmap = ShardedBitmap(length, shard_bits=shard_bits)
    oracle = PerBitShardedBitmap(length, shard_bits=shard_bits)
    model = [False] * length
    shift = kernels.shift_down_vectorized
    for i, op in enumerate(ops, 1):
        before = list(model)
        with mock.patch.object(kernels, "shift_down_vectorized", wraps=shift) as spy:
            positions = apply_op(bitmap, model, op)
        if positions is not None:
            assert spy.call_count == expected_shifts(oracle, positions)
        apply_op(oracle, before, op)
        if condense_every and i % condense_every == 0:
            bitmap.condense()
            oracle.condense()
        expect = np.array(model, dtype=bool)
        assert len(bitmap) == len(oracle) == len(model)
        np.testing.assert_array_equal(bitmap._words, oracle._words)
        np.testing.assert_array_equal(bitmap._starts, oracle._starts)
        np.testing.assert_array_equal(bitmap._lost, oracle._lost)
        assert bitmap.count() == oracle.count() == int(expect.sum())
        np.testing.assert_array_equal(bitmap.get_many(np.arange(len(model))), expect)
    np.testing.assert_array_equal(bitmap.to_bool_array(), np.array(model, dtype=bool))
    if condense_every == 1:
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
def test_shift_kernel_matches_reference(bits, pos):
    bits = np.array(bits, dtype=bool)
    pos = pos % len(bits)
    expected = bits.copy()
    expected[pos:-1] = bits[pos + 1 :]
    expected[-1] = False
    words = kernels.bool_to_words(bits)
    kernels.shift_down_vectorized(words, pos, len(bits))
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
