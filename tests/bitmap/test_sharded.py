"""Unit tests for the sharded bitmap (paper §4)."""

import numpy as np
import pytest

from repro.bitmap import ShardedBitmap
from repro.bitmap import kernels

SMALL_SHARD = 128  # tiny shards force cross-shard behaviour in tests


class TestConstruction:
    def test_invalid_shard_bits(self):
        with pytest.raises(ValueError):
            ShardedBitmap(10, shard_bits=63)
        with pytest.raises(ValueError):
            ShardedBitmap(10, shard_bits=0)

    def test_negative_length(self):
        with pytest.raises(ValueError):
            ShardedBitmap(-5)

    def test_shard_count(self):
        bm = ShardedBitmap(1000, shard_bits=SMALL_SHARD)
        assert bm.num_shards == 8  # ceil(1000/128)
        assert len(bm) == 1000

    def test_non_power_of_two_shard_size_supported(self):
        bm = ShardedBitmap(500, shard_bits=192)
        bm.set(499)
        assert bm.get(499)
        bm.delete(100)
        assert bm.get(498)

    def test_power_of_two_vs_fallback_shard_lookup(self):
        """§4.2.1: power-of-two shard sizes use the shift-based initial
        shard guess; other multiples of 64 fall back to a search.  Both
        paths must agree with a plain list reference bit-for-bit."""
        pow2 = ShardedBitmap(1500, shard_bits=256)
        fallback = ShardedBitmap(1500, shard_bits=192)
        assert pow2._shard_shift is not None  # fast path engaged
        assert fallback._shard_shift is None  # non-pow2 fallback engaged

        rng = np.random.default_rng(11)
        bits = (rng.random(1500) < 0.4).tolist()
        for pos, bit in enumerate(bits):
            if bit:
                pow2.set(pos)
                fallback.set(pos)
        for _ in range(200):
            pos = int(rng.integers(0, len(bits)))
            pow2.delete(pos)
            fallback.delete(pos)
            del bits[pos]
        reference = np.array(bits)
        np.testing.assert_array_equal(pow2.to_bool_array(), reference)
        np.testing.assert_array_equal(fallback.to_bool_array(), reference)
        assert len(pow2) == len(fallback) == len(bits)


class TestBitAccess:
    def test_set_get_unset(self):
        bm = ShardedBitmap(1000, shard_bits=SMALL_SHARD)
        for pos in (0, 127, 128, 500, 999):
            bm.set(pos)
            assert bm.get(pos)
        bm.unset(128)
        assert not bm.get(128)
        assert bm.count() == 4

    def test_out_of_range(self):
        bm = ShardedBitmap(100, shard_bits=SMALL_SHARD)
        with pytest.raises(IndexError):
            bm.get(100)
        with pytest.raises(IndexError):
            bm.set(-1)

    def test_set_many_matches_individual_sets(self):
        rng = np.random.default_rng(2)
        pos = rng.choice(5000, size=700, replace=False)
        a = ShardedBitmap(5000, shard_bits=SMALL_SHARD)
        a.set_many(pos)
        b = ShardedBitmap(5000, shard_bits=SMALL_SHARD)
        for p in pos:
            b.set(int(p))
        np.testing.assert_array_equal(a.to_bool_array(), b.to_bool_array())

    def test_set_many_out_of_range(self):
        bm = ShardedBitmap(10, shard_bits=SMALL_SHARD)
        with pytest.raises(IndexError):
            bm.set_many([3, 10])

    def test_from_positions(self):
        bm = ShardedBitmap.from_positions([1, 200, 900], 1000, shard_bits=SMALL_SHARD)
        assert bm.positions().tolist() == [1, 200, 900]


class TestDelete:
    def test_paper_figure3_example(self):
        # Figure 3: deleting bit 5 shifts subsequent bits of the shard and
        # decrements subsequent start values.
        bm = ShardedBitmap(512, shard_bits=SMALL_SHARD)
        bm.set(5)
        bm.set(6)
        bm.set(26)
        bm.set(200)
        bm.delete(5)
        # former bit 6 now at 5, former 26 at 25, former 200 at 199
        assert bm.positions().tolist() == [5, 25, 199]
        assert len(bm) == 511

    def test_delete_matches_list_reference(self):
        rng = np.random.default_rng(3)
        bits = (rng.random(1000) < 0.35).tolist()
        bm = ShardedBitmap.from_bool_array(np.array(bits), shard_bits=SMALL_SHARD)
        for _ in range(300):
            pos = int(rng.integers(0, len(bits)))
            bm.delete(pos)
            del bits[pos]
        np.testing.assert_array_equal(bm.to_bool_array(), np.array(bits))
        assert len(bm) == len(bits)

    def test_delete_tracks_lost_bits(self):
        bm = ShardedBitmap(512, shard_bits=SMALL_SHARD)
        bm.delete(0)
        assert bm.lost_bits() == 1
        bm.delete(0)
        assert bm.lost_bits() == 2

    def test_delete_in_last_shard_loses_nothing(self):
        bm = ShardedBitmap(512, shard_bits=SMALL_SHARD)
        bm.delete(511)
        assert bm.lost_bits() == 0

    def test_access_after_cross_shard_deletes(self):
        # Deleting from shard 0 moves the logical window of shard 1.
        bm = ShardedBitmap(256, shard_bits=SMALL_SHARD)
        bm.set(130)
        for _ in range(5):
            bm.delete(0)
        assert bm.get(125)
        assert bm.positions().tolist() == [125]

    def test_delete_takes_a_shift_kernel(self):
        calls = []

        def kernel(words, bit, nbits):
            calls.append((bit, nbits))
            kernels.shift_down_vectorized(words, bit, nbits)

        bm = ShardedBitmap.from_positions([10, 70], 128, shard_bits=SMALL_SHARD)
        bm.delete(5, kernel=kernel)
        assert calls == [(5, 128)]
        assert bm.positions().tolist() == [9, 69]


class TestBulkDelete:
    def run_reference(self, n, density, ndel, seed, shard_bits=SMALL_SHARD):
        rng = np.random.default_rng(seed)
        bits = (rng.random(n) < density).tolist()
        bm = ShardedBitmap.from_bool_array(np.array(bits), shard_bits=shard_bits)
        targets = sorted(rng.choice(n, size=ndel, replace=False).tolist())
        bm.bulk_delete(targets)
        for pos in reversed(targets):
            del bits[pos]
        np.testing.assert_array_equal(bm.to_bool_array(), np.array(bits))
        assert len(bm) == len(bits)

    def test_bulk_delete_matches_reference(self):
        self.run_reference(2000, 0.4, 300, seed=4)

    def test_bulk_delete_dense_targets(self):
        self.run_reference(1000, 0.9, 600, seed=5)

    def test_bulk_delete_single_shard(self):
        self.run_reference(100, 0.5, 30, seed=6)

    def test_bulk_delete_many_shards_non_pow2(self):
        self.run_reference(4000, 0.3, 700, seed=7, shard_bits=192)

    def test_bulk_delete_empty(self):
        bm = ShardedBitmap(100, shard_bits=SMALL_SHARD)
        bm.bulk_delete([])
        assert len(bm) == 100

    def test_bulk_delete_out_of_range(self):
        bm = ShardedBitmap(100, shard_bits=SMALL_SHARD)
        with pytest.raises(IndexError):
            bm.bulk_delete([100])

    def test_bulk_delete_duplicates_collapse(self):
        bm = ShardedBitmap.from_positions([50], 100, shard_bits=SMALL_SHARD)
        bm.bulk_delete([10, 10, 10])
        assert len(bm) == 99
        assert bm.positions().tolist() == [49]

    def test_equivalent_to_sequence_of_single_deletes(self):
        rng = np.random.default_rng(8)
        bits = rng.random(1500) < 0.5
        a = ShardedBitmap.from_bool_array(bits, shard_bits=SMALL_SHARD)
        b = ShardedBitmap.from_bool_array(bits, shard_bits=SMALL_SHARD)
        targets = sorted(rng.choice(1500, size=200, replace=False).tolist())
        a.bulk_delete(targets)
        for pos in reversed(targets):
            b.delete(pos)
        np.testing.assert_array_equal(a.to_bool_array(), b.to_bool_array())


class TestGrowth:
    def test_append_after_filling_shard(self):
        bm = ShardedBitmap(SMALL_SHARD, shard_bits=SMALL_SHARD)
        assert bm.num_shards == 1
        bm.append(True)
        assert bm.num_shards == 2
        assert bm.get(SMALL_SHARD)

    def test_extend_many(self):
        bm = ShardedBitmap(10, shard_bits=SMALL_SHARD)
        bm.extend(1000)
        assert len(bm) == 1010
        bm.set(1009)
        assert bm.get(1009)

    def test_extend_after_deletes_respects_lost_capacity(self):
        bm = ShardedBitmap(2 * SMALL_SHARD, shard_bits=SMALL_SHARD)
        bm.set(2 * SMALL_SHARD - 1)
        for _ in range(10):
            bm.delete(0)  # lose 10 bits of shard 0 capacity
        bm.extend(50)
        bm.set(len(bm) - 1)
        assert bm.get(len(bm) - 1)
        # original set bit shifted down 10 positions, still present
        assert bm.get(2 * SMALL_SHARD - 11)

    def test_append_into_partially_filled_tail(self):
        bm = ShardedBitmap(5, shard_bits=SMALL_SHARD)
        bm.append(True)
        assert len(bm) == 6
        assert bm.get(5)
        assert bm.num_shards == 1


class TestCondense:
    def test_condense_preserves_logical_content(self):
        rng = np.random.default_rng(9)
        bits = rng.random(3000) < 0.3
        bm = ShardedBitmap.from_bool_array(bits, shard_bits=SMALL_SHARD)
        targets = sorted(rng.choice(3000, size=500, replace=False).tolist())
        bm.bulk_delete(targets)
        before = bm.to_bool_array()
        assert bm.lost_bits() > 0
        bm.condense()
        assert bm.lost_bits() == 0
        np.testing.assert_array_equal(bm.to_bool_array(), before)

    def test_condense_shrinks_shard_count(self):
        bm = ShardedBitmap(10 * SMALL_SHARD, shard_bits=SMALL_SHARD)
        bm.bulk_delete(list(range(5 * SMALL_SHARD)))
        bm.condense()
        assert bm.num_shards == 5
        assert bm.utilization() == 1.0

    def test_deletes_strand_capacity_until_condense(self):
        bm = ShardedBitmap.from_bool_array(
            np.ones(4 * SMALL_SHARD, dtype=bool), shard_bits=SMALL_SHARD
        )
        bm.delete(0)
        assert bm.lost_bits() == 1

    def test_operations_after_condense(self):
        bm = ShardedBitmap.from_positions([100, 200], 300, shard_bits=SMALL_SHARD)
        bm.bulk_delete([0, 1, 2])
        bm.condense()
        bm.delete(97)  # was position 100 before the three deletes
        assert bm.positions().tolist() == [196]


class TestIntrospection:
    def test_overhead_fraction_matches_formula(self):
        bm = ShardedBitmap(1 << 20, shard_bits=1 << 14)
        assert bm.overhead_fraction() == pytest.approx(64 / (1 << 14))

    def test_memory_includes_metadata(self):
        bm = ShardedBitmap(1 << 16, shard_bits=1 << 10)
        assert bm.memory_bytes() > (1 << 16) // 8

    def test_utilization_decreases_with_lost_bits(self):
        bm = ShardedBitmap(4 * SMALL_SHARD, shard_bits=SMALL_SHARD)
        u0 = bm.utilization()
        bm.delete(0)
        assert bm.utilization() < u0

    def test_count_and_positions_agree(self):
        rng = np.random.default_rng(10)
        bits = rng.random(2000) < 0.2
        bm = ShardedBitmap.from_bool_array(bits, shard_bits=SMALL_SHARD)
        assert bm.count() == len(bm.positions()) == int(bits.sum())

    def test_iter_yields_positions(self):
        bm = ShardedBitmap.from_positions([4, 300], 400, shard_bits=SMALL_SHARD)
        assert list(bm) == [4, 300]


#: pow2 and non-pow2 shard sizes (the latter has no shift-based shard guess)
SHARD_SIZES = [SMALL_SHARD, 192]


def deleted_bitmap(shard_bits, seed):
    """A bitmap after two bulk deletes, and the bools it must hold."""
    rng = np.random.default_rng(seed)
    bits = rng.random(11 * shard_bits + 37) < 0.3
    bm = ShardedBitmap.from_bool_array(bits, shard_bits=shard_bits)
    for _ in range(2):
        victims = rng.choice(len(bits), len(bits) // 5, replace=False)
        bm.bulk_delete(victims)
        bits = np.delete(bits, victims)
    return bm, bits, rng


@pytest.mark.parametrize("shard_bits", SHARD_SIZES)
class TestGetMany:
    def test_agrees_with_get_before_and_after_maintenance(self, shard_bits):
        bm, bits, rng = deleted_bitmap(shard_bits, seed=21)
        for _ in range(2):  # after bulk_delete, then after condense
            probes = rng.integers(0, len(bm), 500)
            got = bm.get_many(probes)
            assert got.dtype == bool
            assert got.tolist() == [bm.get(int(p)) for p in probes]
            np.testing.assert_array_equal(got, bits[probes])
            bm.condense()

    def test_every_position_and_none(self, shard_bits):
        bm, bits, _ = deleted_bitmap(shard_bits, seed=22)
        np.testing.assert_array_equal(bm.get_many(np.arange(len(bm))), bits)
        assert bm.get_many(np.array([], dtype=np.int64)).tolist() == []

    def test_out_of_range_raises(self, shard_bits):
        bm = ShardedBitmap(3 * shard_bits, shard_bits=shard_bits)
        with pytest.raises(IndexError):
            bm.get_many(np.array([0, len(bm)]))
        with pytest.raises(IndexError):
            bm.get_many(np.array([-1]))


@pytest.mark.parametrize("shard_bits", SHARD_SIZES)
class TestCachedCount:
    def test_equals_fresh_popcount_after_every_mutator(self, shard_bits):
        bm, _, rng = deleted_bitmap(shard_bits, seed=23)

        def pick(k=1):
            return rng.choice(len(bm), k, replace=False)

        mutators = [
            lambda: bm.set(int(pick()[0])),
            lambda: bm.unset(int(bm.positions()[0])),
            lambda: bm.set_many(pick(40)),
            lambda: bm.append(True),
            lambda: bm.append(False),
            lambda: bm.extend(2 * shard_bits + 5),
            lambda: bm.delete(int(bm.positions()[-1])),
            lambda: bm.bulk_delete(pick(60)),
            lambda: bm.condense(),
        ]
        for mutate in mutators * 2:
            assert bm.count() == int(bm.to_bool_array().sum())  # fills the cache
            mutate()
            assert bm.count() == int(bm.to_bool_array().sum())

    @pytest.mark.parametrize("stride", [3, 97])  # dense: repacked; sparse: shifted
    def test_bulk_delete_and_condense_invalidate(self, shard_bits, stride):
        bm, bits, rng = deleted_bitmap(shard_bits, seed=24)
        assert bm.count() == int(bits.sum())
        victims = np.flatnonzero(bits)[::stride]  # set bits only: the count must drop
        bm.bulk_delete(victims)
        assert bm.count() == int(bits.sum()) - len(victims)
        bm.set(0)
        before = bm.count()
        bm.condense()
        assert bm.count() == before == int(bm.to_bool_array().sum())


def assert_condensed(bm: ShardedBitmap, expect: np.ndarray) -> None:
    """``bm`` holds ``expect`` in the layout condense promises: full,
    contiguous shards and no lost bits."""
    shard_bits = bm._shard_bits
    nshards = max(1, -(-len(expect) // shard_bits))
    np.testing.assert_array_equal(bm.to_bool_array(), expect)
    assert len(bm) == len(expect)
    assert bm.num_shards == nshards
    np.testing.assert_array_equal(bm._starts, np.arange(nshards) * shard_bits)
    assert bm.lost_bits() == 0
    assert bm.count() == int(expect.sum())


class TestCondenseAgainstDelete:
    """Condense after deletes against ``np.delete`` of the same bools."""

    @pytest.mark.parametrize("seed", [1, 2, 8])
    @pytest.mark.parametrize("shard_bits", SHARD_SIZES)
    def test_randomized_workloads(self, seed, shard_bits):
        rng = np.random.default_rng(seed)
        for _ in range(8):
            n = int(rng.integers(1, 40 * shard_bits))
            bits = rng.random(n) < rng.random()
            bm = ShardedBitmap.from_bool_array(bits, shard_bits=shard_bits)
            for _ in range(int(rng.integers(1, 4))):
                if len(bits) < 2:
                    break
                k = int(rng.integers(1, max(2, len(bits) // 4)))
                dels = rng.choice(len(bits), size=k, replace=False)
                bm.bulk_delete(dels)
                bits = np.delete(bits, dels)
            bm.condense()
            assert_condensed(bm, bits)

    def test_single_bit_deletes_then_condense(self):
        bits = np.ones(5 * SMALL_SHARD, dtype=bool)
        bm = ShardedBitmap.from_bool_array(bits, shard_bits=SMALL_SHARD)
        for pos in [0, SMALL_SHARD - 1, SMALL_SHARD, 3 * SMALL_SHARD + 7]:
            bm.delete(pos)
            bits = np.delete(bits, pos)
        bm.condense()
        assert_condensed(bm, bits)

    def test_empty_bitmap(self):
        bm = ShardedBitmap(0, shard_bits=SMALL_SHARD)
        bm.condense()
        assert_condensed(bm, np.zeros(0, dtype=bool))

    def test_condense_after_boundary_spanning_bulk_delete(self):
        bits = np.zeros(6 * SMALL_SHARD, dtype=bool)
        bits[:: SMALL_SHARD // 4] = True
        # a contiguous run of deletes crossing two shard boundaries
        dels = np.arange(SMALL_SHARD - 10, 3 * SMALL_SHARD + 10, dtype=np.int64)
        bm = ShardedBitmap.from_bool_array(bits, shard_bits=SMALL_SHARD)
        bm.bulk_delete(dels)
        bm.condense()
        assert_condensed(bm, np.delete(bits, dels))
        assert bm.utilization() >= len(bm) / (bm.num_shards * SMALL_SHARD)

    def test_condense_preserves_set_bits_after_heavy_deletes(self):
        rng = np.random.default_rng(11)
        bits = rng.random(8 * SMALL_SHARD) < 0.7
        bm = ShardedBitmap.from_bool_array(bits, shard_bits=SMALL_SHARD)
        for _ in range(6):
            dels = rng.choice(len(bm), size=max(1, len(bm) // 3), replace=False)
            bm.bulk_delete(dels)
            bits = np.delete(bits, dels)
        bm.condense()
        assert_condensed(bm, bits)

