"""Concurrency tests for shard-granular bitmap mutation (paper §5.4)."""

import threading

import numpy as np

from repro.bitmap import ShardedBitmap

SHARD = 256


class TestConcurrentShardMutation:
    def test_disjoint_shard_sets_commute(self):
        """Concurrent set() on disjoint shards, one lock per shard."""
        nshards = 8
        bm = ShardedBitmap(nshards * SHARD, shard_bits=SHARD)
        locks = [threading.Lock() for _ in range(nshards)]
        errors = []

        def worker(shard: int):
            try:
                base = shard * SHARD
                for i in range(SHARD):
                    with locks[shard]:
                        bm.set(base + i)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(nshards)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert bm.count() == nshards * SHARD

    def test_concurrent_decrements_commute(self):
        """§5.4: start-value decrements commute, so any interleaving of
        shard-local deletes yields the same final start values."""
        rng = np.random.default_rng(0)
        n = 16 * SHARD
        targets = np.sort(rng.choice(n, size=200, replace=False))
        # sequential reference
        ref = ShardedBitmap(n, shard_bits=SHARD)
        ref.set_many(np.arange(0, n, 7))
        ref.bulk_delete(targets)
        # "concurrent" = different grouping/order of the same deletes,
        # descending order preserved globally
        out = ShardedBitmap(n, shard_bits=SHARD)
        out.set_many(np.arange(0, n, 7))
        chunks = np.array_split(targets, 5)
        for chunk in reversed(chunks):  # later positions deleted first
            out.bulk_delete(chunk)
        np.testing.assert_array_equal(out.to_bool_array(), ref.to_bool_array())
