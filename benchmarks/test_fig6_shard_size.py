"""Figure 6 — sharded bitmap bulk delete runtime and memory overhead
depending on the shard size.

Paper setup: delete 1 M random elements from a 100 M-bit sharded bitmap
for shard sizes 2^8..2^19, comparing the parallel and the parallel &
vectorized implementations, plus the metadata overhead 64/shard_size.
We run the same sweep at laptop scale (2^22-bit bitmap, 40 K deletes),
single threaded: the axis is the shift kernel (scalar word loop vs
vectorized), not the thread count.  Both columns time the per-bit loop
below, one shift per deleted bit; a third times the shipped
``bulk_delete``, which repacks a shard that receives at least
``REPACK_MIN`` deletes once instead.  Each point times the delete alone
(the bitmap is built outside the clock), as the median of three rounds
over the whole sweep; the scalar column runs one round, its pure-Python
loop would otherwise take minutes.  The paper's thread per shard was
measured on CPython threads and removed: in the sequential-vs-parallel
ablation it lost, 0.148 s parallel vs 0.134 s sequential, because the
GIL serializes the per-bit shift loop and the threads only add
hand-offs.

Expected shape: a U-curve with an interior runtime minimum (around
2^14 in the paper) and monotonically decreasing memory overhead.  The
U's two arms show here in two columns, and neither column has both:

* the per-bit vectorized column is flat within noise from 2^8 to 2^15
  (medians 0.29–0.31 s over ten runs, single points 0.19–0.40 s, so
  its argmin wandered from 2^8 to 2^14) and then rises, 1.49–1.85x at
  2^19 over twenty runs, as each shift moves the rest of a longer
  shard: the right arm;
* the shipped ``bulk_delete`` falls 23–45x from 2^8 (most shards there
  get about 2.4 deletes and stay on the per-bit path) to a minimum at
  2^16 or above, and stays flat after: the left arm.  Its upturn at
  2^19 in a fresh process (the minimum 14–40 % below it) is the
  allocator: with ``MALLOC_MMAP_THRESHOLD_`` and ``MALLOC_TRIM_THRESHOLD_`` raised
  it is gone (2^19 within 4 % of the minimum or the minimum itself),
  and after the rest of tier-1 had run, 2^19 was the minimum.

So the test asserts each arm with the margins ``RIGHT_ARM`` and
``LEFT_ARM``, not an interior minimum of either column.
"""

import time

import numpy as np
import pytest

from repro.bench import format_table, write_report
from repro.bitmap import ShardedBitmap
from repro.bitmap import kernels

BITMAP_BITS = 1 << 22
NUM_DELETES = 40_000
SHARD_SIZES = [1 << s for s in range(8, 20)]
#: the vectorized column at 2^19 over its 2^8..2^15 median (measured 1.49-1.85x)
RIGHT_ARM = 1.3
#: the shipped column at 2^8 over its minimum (measured 23-45x)
LEFT_ARM = 5.0
POSITIONS = np.sort(
    np.random.default_rng(0).choice(BITMAP_BITS, size=NUM_DELETES, replace=False)
)


def shift_down_scalar(words: np.ndarray, bit: int, nbits: int) -> None:
    """Word-by-word loop version of ``kernels.shift_down_vectorized``.

    Semantically identical; the non-vectorized baseline of the scalar
    column.
    """
    if nbits <= 0 or bit >= nbits:
        return
    first = bit >> 6
    last = (nbits - 1) >> 6
    mask64 = 0xFFFFFFFFFFFFFFFF
    w = int(words[first])
    low_mask = (1 << (bit & 63)) - 1
    new_w = (w & low_mask) | ((w >> 1) & ~low_mask & mask64)
    if first < last:
        new_w |= (int(words[first + 1]) & 1) << 63
    words[first] = np.uint64(new_w)
    for i in range(first + 1, last + 1):
        w = int(words[i]) >> 1
        if i < last:
            w |= (int(words[i + 1]) & 1) << 63
        words[i] = np.uint64(w & mask64)


def per_bit_bulk_delete(bm: ShardedBitmap, positions: np.ndarray, kernel) -> None:
    """The bulk delete of §4.2.3 as one shift per deleted bit: each shard's
    positions highest first, then the start values in one running sum.
    ``bulk_delete`` takes this path only for shards with fewer than
    ``REPACK_MIN`` deletes; here it runs for every shard, so the sweep
    times the shift kernel it is about."""
    shards = np.searchsorted(bm._starts, positions, side="right") - 1
    offsets = positions - bm._starts[shards]
    # ``positions`` is sorted, so each touched shard is one run of ``shards``
    bounds = np.append(np.flatnonzero(np.diff(shards, prepend=-1)), len(positions))
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        words = bm._shard_words(int(shards[lo]))
        nbits = bm._shard_bit_count(int(shards[lo]))
        for off in offsets[lo:hi][::-1].tolist():
            kernel(words, off, nbits)
            nbits -= 1
    deleted_per_shard = np.bincount(shards, minlength=bm.num_shards)
    bm._starts[1:] -= np.cumsum(deleted_per_shard)[:-1]
    bm._lost[:-1] += deleted_per_shard[:-1]
    bm._length -= len(positions)
    bm._count = None


def delete_seconds(shard_bits: int, kernel=None, num_deletes: int = NUM_DELETES) -> float:
    """Seconds of one bulk delete, normalized to NUM_DELETES deletions:
    the per-bit loop with ``kernel``, or the shipped ``bulk_delete`` when
    ``kernel`` is None.

    The non-vectorized (word-loop) kernel is measured on a subset of the
    deletions and scaled — per-delete cost dominates, and the pure-Python
    loop would otherwise take minutes at large shard sizes.
    """
    positions = POSITIONS[:: NUM_DELETES // num_deletes]
    bm = ShardedBitmap(BITMAP_BITS, shard_bits=shard_bits)
    bm.set_many(POSITIONS[::2])
    start = time.perf_counter()
    if kernel is None:
        bm.bulk_delete(positions)
    else:
        per_bit_bulk_delete(bm, positions, kernel)
    return (time.perf_counter() - start) * (NUM_DELETES / len(positions))


def sweep(kernel=None, rounds: int = 3, subset=lambda shard_bits: NUM_DELETES):
    """Per shard size, the median of ``rounds`` timings.  A round runs the
    whole sweep, so a burst of machine noise lands on one sample of every
    point rather than on every sample of one point."""
    samples = [
        [delete_seconds(bits, kernel, subset(bits)) for bits in SHARD_SIZES]
        for _ in range(rounds)
    ]
    return np.median(samples, axis=0).tolist()


def test_fig6_shard_size_sweep(benchmark):
    scalar = sweep(
        shift_down_scalar,
        rounds=1,
        subset=lambda shard_bits: NUM_DELETES if shard_bits <= (1 << 12) else 4_000,
    )
    vector = sweep(kernels.shift_down_vectorized)
    shipped = sweep()
    rows = [
        [f"2^{bits.bit_length() - 1}", t_scalar, t_vector, t_repack, f"{64 / bits * 100:.4f}%"]
        for bits, t_scalar, t_vector, t_repack in zip(SHARD_SIZES, scalar, vector, shipped)
    ]
    report = format_table(
        ["shard_size", "scalar [s]", "vectorised [s]", "bulk_delete [s]", "mem overhead"],
        rows,
        title=(
            f"Figure 6: bulk delete of {NUM_DELETES} elements from a "
            f"{BITMAP_BITS}-bit sharded bitmap"
        ),
    )
    write_report("fig6_shard_size", report)

    # right arm: per-bit shifts grow with the shard past a flat stretch
    flat = float(np.median(vector[:8]))
    assert vector[-1] >= RIGHT_ARM * flat, "per-bit deletes should slow down at large shards"
    # left arm: the shipped delete pays per shard, so tiny shards cost most
    best = int(np.argmin(shipped))
    assert SHARD_SIZES[best] >= 1 << 14, "the shipped delete should be fastest at large shards"
    assert shipped[0] >= LEFT_ARM * shipped[best], "tiny shards should cost the shipped delete most"
    # vectorization helps for large shards (more words shifted per delete)
    assert vector[-1] < scalar[-1], "vectorized kernel should win at large shards"
    # memory overhead decreases monotonically
    overheads = [64 / s for s in SHARD_SIZES]
    assert all(a > b for a, b in zip(overheads, overheads[1:]))

    # headline number for the pytest-benchmark table: the paper's shard size
    benchmark.pedantic(
        lambda: delete_seconds(1 << 14),
        rounds=1,
        iterations=1,
    )


@pytest.mark.parametrize("shard_bits", [1 << 14])
def test_fig6_benchmark_default_shard(benchmark, shard_bits):
    """pytest-benchmark hook: the paper's chosen shard size (2^14)."""
    rng = np.random.default_rng(1)
    positions = np.sort(rng.choice(BITMAP_BITS, size=5_000, replace=False))

    def once():
        bm = ShardedBitmap(BITMAP_BITS, shard_bits=shard_bits)
        bm.bulk_delete(positions)

    benchmark.pedantic(once, rounds=3, iterations=1)


@pytest.mark.parametrize("nbits", [1, 63, 64, 65, 130, 640])
def test_scalar_kernel_matches_vectorized(nbits):
    """The scalar column's kernel shifts exactly as the shipped one."""
    rng = np.random.default_rng(nbits)
    bits = rng.random(nbits) < 0.5
    for pos in sorted({0, nbits - 1, min(63, nbits - 1), int(rng.integers(nbits))}):
        vector, scalar = kernels.bool_to_words(bits), kernels.bool_to_words(bits)
        kernels.shift_down_vectorized(vector, pos, nbits)
        shift_down_scalar(scalar, pos, nbits)
        np.testing.assert_array_equal(scalar, vector)
        np.testing.assert_array_equal(
            kernels.words_to_bool(scalar, nbits), np.append(np.delete(bits, pos), False)
        )
