"""Figure 6 — sharded bitmap bulk delete runtime and memory overhead
depending on the shard size.

Paper setup: delete 1 M random elements from a 100 M-bit sharded bitmap
for shard sizes 2^8..2^19, comparing the parallel and the parallel &
vectorized implementations, plus the metadata overhead 64/shard_size.
We run the same sweep at laptop scale (2^22-bit bitmap, 40 K deletes),
single threaded: the axis is the shift kernel (scalar word loop vs
vectorized), not the thread count.  The paper's thread per shard was
measured on CPython threads and removed: in the sequential-vs-parallel
ablation it lost, 0.148 s parallel vs 0.134 s sequential, because the
GIL serializes the per-bit shift loop and the threads only add
hand-offs.

Expected shape: a U-curve with an interior runtime minimum (around
2^14 in the paper) and monotonically decreasing memory overhead.
"""

import numpy as np
import pytest

from repro.bench import format_table, time_fn, write_report
from repro.bitmap import ShardedBitmap
from repro.bitmap import kernels

BITMAP_BITS = 1 << 22
NUM_DELETES = 40_000
SHARD_SIZES = [1 << s for s in range(8, 20)]


def run_bulk_delete(shard_bits: int, kernel, num_deletes: int = NUM_DELETES) -> float:
    """Seconds for a bulk delete, normalized to NUM_DELETES deletions.

    The non-vectorized (word-loop) kernel is measured on a subset of the
    deletions and scaled — per-delete cost dominates, and the pure-Python
    loop would otherwise take minutes at large shard sizes.
    """
    rng = np.random.default_rng(0)
    positions = np.sort(rng.choice(BITMAP_BITS, size=num_deletes, replace=False))

    def once():
        bm = ShardedBitmap(BITMAP_BITS, shard_bits=shard_bits)
        bm.set_many(positions[::2])
        bm.bulk_delete(positions, kernel=kernel)

    return time_fn(once, repeats=1, warmup=0) * (NUM_DELETES / num_deletes)


def test_fig6_shard_size_sweep(benchmark):
    rows = []
    for shard_bits in SHARD_SIZES:
        scalar_subset = NUM_DELETES if shard_bits <= (1 << 12) else 4_000
        t_scalar = run_bulk_delete(shard_bits, kernels.shift_down_scalar, scalar_subset)
        t_vector = run_bulk_delete(shard_bits, kernels.shift_down_vectorized)
        overhead = 64 / shard_bits * 100
        rows.append(
            [f"2^{shard_bits.bit_length() - 1}", t_scalar, t_vector, f"{overhead:.4f}%"]
        )
    report = format_table(
        ["shard_size", "scalar [s]", "vectorised [s]", "mem overhead"],
        rows,
        title=(
            f"Figure 6: bulk delete of {NUM_DELETES} elements from a "
            f"{BITMAP_BITS}-bit sharded bitmap"
        ),
    )
    write_report("fig6_shard_size", report)

    vect_times = [r[2] for r in rows]
    # U-shape: the minimum is strictly interior
    best = int(np.argmin(vect_times))
    assert 0 < best < len(vect_times) - 1, "expected an interior runtime minimum"
    # vectorization helps for large shards (more words shifted per delete)
    assert rows[-1][2] < rows[-1][1], "vectorized kernel should win at large shards"
    # memory overhead decreases monotonically
    overheads = [64 / s for s in SHARD_SIZES]
    assert all(a > b for a, b in zip(overheads, overheads[1:]))

    # headline number for the pytest-benchmark table: the paper's shard size
    benchmark.pedantic(
        lambda: run_bulk_delete(1 << 14, kernels.shift_down_vectorized),
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
