"""Sharded bitmap — the update-conscious bitmap of the paper (§4).

The bitmap is virtually divided into shards of ``shard_bits`` bits.  Each
shard stores a 64-bit *start value*: the logical index of the first bit
in the shard (the paper's analogue of UpBit's fence pointers).  Deleting
a bit then only shifts bits *within* one shard and decrements the start
values of subsequent shards; the bit at the end of the shard is lost
(tracked in ``lost``) until a :meth:`ShardedBitmap.condense` repacks the
structure.

Logical positions index the bitmap as if it were flat: after deleting
position ``p``, the former position ``p + 1`` becomes position ``p``,
exactly matching positional rowIDs in a column store.

Memory overhead of sharding is one 64-bit start value per shard, i.e.
``64 / shard_bits`` (0.39 % at the paper's chosen ``shard_bits = 2**14``).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Tuple

import numpy as np

from repro.bitmap import kernels
from repro.bitmap.kernels import WORD_BITS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bitmap.parallel import ShardTaskPool

__all__ = ["ShardedBitmap", "DEFAULT_SHARD_BITS"]

#: Shard size chosen in the paper's Figure 6 evaluation (2^14 bits).
DEFAULT_SHARD_BITS = 1 << 14

ShiftKernel = Callable[[np.ndarray, int, int], None]


class ShardedBitmap:
    """Growable bitmap with shard-local delete support.

    Parameters
    ----------
    length:
        Initial number of logical bits (all zero).
    shard_bits:
        Shard size in bits; must be a positive multiple of 64.  Powers of
        two allow the fast initial shard guess of §4.2.1.
    condense_threshold:
        If not ``None``, :meth:`bulk_delete` and :meth:`delete` trigger an
        automatic :meth:`condense` once the fraction of lost bits
        strictly exceeds this threshold (lost bits *at* the threshold do
        not condense).
    condense_executor:
        Optional :class:`~repro.bitmap.parallel.ShardTaskPool` used by
        :meth:`condense` (including auto-condense) to repack shards in
        parallel; ``None`` keeps condense serial.
    """

    def __init__(
        self,
        length: int = 0,
        shard_bits: int = DEFAULT_SHARD_BITS,
        condense_threshold: Optional[float] = None,
        condense_executor: Optional["ShardTaskPool"] = None,
    ) -> None:
        if length < 0:
            raise ValueError("bitmap length must be non-negative")
        if shard_bits <= 0 or shard_bits % WORD_BITS:
            raise ValueError("shard_bits must be a positive multiple of 64")
        self._shard_bits = shard_bits
        is_pow2 = shard_bits & (shard_bits - 1) == 0
        self._shard_shift = shard_bits.bit_length() - 1 if is_pow2 else None
        self._words_per_shard = shard_bits // WORD_BITS
        self._length = length
        self._condense_threshold = condense_threshold
        self.condense_executor = condense_executor
        nshards = max(1, (length + shard_bits - 1) // shard_bits)
        self._words = np.zeros(nshards * self._words_per_shard, dtype=np.uint64)
        self._starts = (np.arange(nshards, dtype=np.int64) * shard_bits)
        self._lost = np.zeros(nshards, dtype=np.int64)
        #: cached :meth:`count`; every mutator resets it to None
        self._count: Optional[int] = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_positions(
        cls,
        positions: Iterable[int],
        length: int,
        shard_bits: int = DEFAULT_SHARD_BITS,
        condense_threshold: Optional[float] = None,
        condense_executor: Optional["ShardTaskPool"] = None,
    ) -> "ShardedBitmap":
        """Build a bitmap of ``length`` bits with the given positions set."""
        bm = cls(
            length,
            shard_bits=shard_bits,
            condense_threshold=condense_threshold,
            condense_executor=condense_executor,
        )
        bm.set_many(positions)
        return bm

    @classmethod
    def from_bool_array(
        cls,
        bits: np.ndarray,
        shard_bits: int = DEFAULT_SHARD_BITS,
        condense_threshold: Optional[float] = None,
        condense_executor: Optional["ShardTaskPool"] = None,
    ) -> "ShardedBitmap":
        """Build a bitmap from a boolean mask."""
        bits = np.asarray(bits, dtype=bool)
        bm = cls(
            len(bits),
            shard_bits=shard_bits,
            condense_threshold=condense_threshold,
            condense_executor=condense_executor,
        )
        bm.set_many(np.flatnonzero(bits))
        return bm

    # ------------------------------------------------------------------
    # shard geometry
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """Number of (virtual) shards currently allocated."""
        return len(self._starts)

    def __len__(self) -> int:
        return self._length

    def _shard_bit_count(self, shard: int) -> int:
        """Number of logical bits currently held by ``shard``."""
        if shard + 1 < len(self._starts):
            return int(self._starts[shard + 1] - self._starts[shard])
        return self._length - int(self._starts[shard])

    def _shard_capacity(self, shard: int) -> int:
        """Bits the shard can hold (shard size minus lost bits)."""
        return self._shard_bits - int(self._lost[shard])

    def _locate(self, pos: int) -> int:
        """Return the shard containing logical position ``pos`` (§4.2.1).

        The initial guess ``pos >> log2(shard_bits)`` is a lower bound
        because start values only ever decrease; forward probing over the
        next start values finds the true shard.
        """
        if self._shard_shift is not None:
            shard = pos >> self._shard_shift
        else:
            shard = pos // self._shard_bits
        if shard >= len(self._starts):
            shard = len(self._starts) - 1
        starts = self._starts
        n = len(starts)
        while shard + 1 < n and starts[shard + 1] <= pos:
            shard += 1
        return shard

    def _check(self, pos: int) -> None:
        if not 0 <= pos < self._length:
            raise IndexError(f"bit position {pos} out of range [0, {self._length})")

    def _shard_words(self, shard: int) -> np.ndarray:
        lo = shard * self._words_per_shard
        return self._words[lo : lo + self._words_per_shard]

    # ------------------------------------------------------------------
    # bit access (§4.2.1)
    # ------------------------------------------------------------------
    def get(self, pos: int) -> bool:
        """Return the bit at logical position ``pos``."""
        self._check(pos)
        shard = self._locate(pos)
        offset = pos - int(self._starts[shard])
        return kernels.get_bit(self._shard_words(shard), offset)

    def _word_slots(self, pos: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(word index, bit-in-word)`` of many logical positions."""
        if len(pos) and (pos.min() < 0 or pos.max() >= self._length):
            raise IndexError("position out of range")
        shards = np.searchsorted(self._starts, pos, side="right") - 1
        offsets = pos - self._starts[shards]
        return shards * self._words_per_shard + (offsets >> 6), (offsets & 63).astype(np.uint64)

    def get_many(self, positions: np.ndarray) -> np.ndarray:
        """The bits at many logical positions, as a boolean array."""
        word_idx, bit_idx = self._word_slots(np.asarray(positions, dtype=np.int64))
        return (self._words[word_idx] >> bit_idx) & np.uint64(1) != 0

    def set(self, pos: int) -> None:
        """Set the bit at logical position ``pos`` to 1."""
        self._count = None
        self._check(pos)
        shard = self._locate(pos)
        offset = pos - int(self._starts[shard])
        kernels.set_bit(self._shard_words(shard), offset)

    def unset(self, pos: int) -> None:
        """Set the bit at logical position ``pos`` to 0."""
        self._count = None
        self._check(pos)
        shard = self._locate(pos)
        offset = pos - int(self._starts[shard])
        kernels.clear_bit(self._shard_words(shard), offset)

    def set_many(self, positions: Iterable[int]) -> None:
        """Set many bits at once (used when building the index)."""
        pos = np.asarray(
            positions if isinstance(positions, np.ndarray) else list(positions),
            dtype=np.int64,
        )
        self._count = None
        word_idx, bit_idx = self._word_slots(pos)
        np.bitwise_or.at(self._words, word_idx, np.uint64(1) << bit_idx)

    # ------------------------------------------------------------------
    # growth
    # ------------------------------------------------------------------
    def _grow_shard(self) -> None:
        self._words = np.concatenate(
            [self._words, np.zeros(self._words_per_shard, dtype=np.uint64)]
        )
        self._starts = np.append(self._starts, np.int64(self._length))
        self._lost = np.append(self._lost, np.int64(0))

    def append(self, value: bool = False) -> None:
        """Append one bit at the end of the bitmap."""
        self._count = None
        last = len(self._starts) - 1
        if self._shard_bit_count(last) >= self._shard_capacity(last):
            self._grow_shard()
            last += 1
        self._length += 1
        if value:
            offset = self._length - 1 - int(self._starts[last])
            kernels.set_bit(self._shard_words(last), offset)

    def extend(self, nbits: int) -> None:
        """Append ``nbits`` zero bits at the end of the bitmap."""
        if nbits < 0:
            raise ValueError("cannot extend by a negative bit count")
        self._count = None
        remaining = nbits
        while remaining > 0:
            last = len(self._starts) - 1
            room = self._shard_capacity(last) - self._shard_bit_count(last)
            if room == 0:
                self._grow_shard()
                continue
            take = min(room, remaining)
            self._length += take
            remaining -= take

    # ------------------------------------------------------------------
    # delete (§4.2.2) and bulk delete (§4.2.3)
    # ------------------------------------------------------------------
    def delete(self, pos: int, kernel: ShiftKernel = kernels.shift_down_vectorized) -> None:
        """Delete the bit at ``pos``; subsequent bits shift down by one.

        Three steps, following §4.2.2: (a) locate the shard, (b) shift all
        subsequent bits *within the shard* one position towards the deleted
        bit, (c) decrement the start values of all subsequent shards.
        """
        self._count = None
        self._check(pos)
        shard = self._locate(pos)
        offset = pos - int(self._starts[shard])
        nbits = self._shard_bit_count(shard)
        kernel(self._shard_words(shard), offset, nbits)
        if shard + 1 < len(self._starts):
            self._starts[shard + 1 :] -= 1
            self._lost[shard] += 1
        self._length -= 1
        self._maybe_condense()

    def bulk_delete(
        self,
        positions: Iterable[int],
        kernel: ShiftKernel = kernels.shift_down_vectorized,
        executor: Optional["ParallelBulkDeleter"] = None,
    ) -> None:
        """Delete many bits given by their *pre-delete* logical positions.

        Positions are grouped by shard; within a shard they are processed
        in descending order so earlier shifts do not move later targets
        (the order sensitivity of §4.2.3).  Shard-local shifts are
        independent and may run in parallel via ``executor``.  Start
        values are fixed afterwards in a single traversal holding a
        running sum of deletions in preceding shards.
        """
        pos = np.unique(np.asarray(list(positions), dtype=np.int64))
        if len(pos) == 0:
            return
        if pos[0] < 0 or pos[-1] >= self._length:
            raise IndexError("position out of range")
        self._count = None
        shards = np.searchsorted(self._starts, pos, side="right") - 1
        offsets = pos - self._starts[shards]
        deleted_per_shard = np.zeros(len(self._starts), dtype=np.int64)

        uniq_shards, first_idx = np.unique(shards, return_index=True)
        tasks = []
        for i, shard in enumerate(uniq_shards):
            lo = first_idx[i]
            hi = first_idx[i + 1] if i + 1 < len(uniq_shards) else len(pos)
            offs_desc = offsets[lo:hi][::-1]
            deleted_per_shard[shard] = hi - lo
            tasks.append((int(shard), offs_desc))

        if executor is not None:
            executor.run(self, tasks, kernel)
        else:
            for shard, offs_desc in tasks:
                self._delete_within_shard(shard, offs_desc, kernel)

        # Single traversal adjusting start values with a running sum
        # (step (c) amortized over the whole bulk, Figure 4).
        preceding = np.cumsum(deleted_per_shard)
        self._starts[1:] -= preceding[:-1]
        self._lost[:-1] += deleted_per_shard[:-1]
        self._length -= len(pos)
        self._maybe_condense()

    def _delete_within_shard(
        self, shard: int, offsets_desc: np.ndarray, kernel: ShiftKernel
    ) -> None:
        """Apply descending-order deletes locally to one shard."""
        words = self._shard_words(shard)
        nbits = self._shard_bit_count(shard)
        for off in offsets_desc:
            kernel(words, int(off), nbits)
            nbits -= 1

    # ------------------------------------------------------------------
    # condense (§4.2.4)
    # ------------------------------------------------------------------
    def lost_bits(self) -> int:
        """Total bits of capacity lost to deletes since the last condense."""
        return int(self._lost.sum())

    def utilization(self) -> float:
        """Fraction of allocated bits that hold logical data."""
        capacity = len(self._starts) * self._shard_bits
        return self._length / capacity if capacity else 1.0

    def condense(self, executor: Optional["ShardTaskPool"] = None) -> None:
        """Repack the bitmap so every shard is full again.

        Shifts data across shard boundaries into the bits lost by previous
        delete operations and resets the start values.  Each post-condense
        shard is filled from a disjoint logical bit range of the old
        layout, so the repack is shard-local and independent: with an
        ``executor`` (or an attached :attr:`condense_executor`) the
        per-shard repacks run on its worker pool, falling back to the
        serial single-pass unpack/repack for small bitmaps.  Both paths
        produce bit-identical words, start values and lost counters.
        """
        if executor is None:
            executor = self.condense_executor
        self._count = None
        shard_bits = self._shard_bits
        nshards = max(1, (self._length + shard_bits - 1) // shard_bits)
        words = np.zeros(nshards * self._words_per_shard, dtype=np.uint64)
        if executor is None or nshards < executor.min_shards_for_parallelism:
            self._repack_shard_range(words, 0, nshards)
        else:
            # contiguous shard runs per task: enough tasks to balance,
            # few enough that dispatch overhead stays negligible
            ntasks = min(nshards, executor.max_workers * 4)
            bounds = [nshards * t // ntasks for t in range(ntasks + 1)]
            executor.run_tasks(
                [
                    partial(self._repack_shard_range, words, first, last)
                    for first, last in zip(bounds, bounds[1:])
                    if last > first
                ]
            )
        self._words = words
        self._starts = np.arange(nshards, dtype=np.int64) * shard_bits
        self._lost = np.zeros(nshards, dtype=np.int64)

    def _repack_shard_range(
        self, new_words: np.ndarray, first_shard: int, last_shard: int
    ) -> None:
        """Fill post-condense shards ``[first, last)`` from the old layout.

        Post-condense shards are full and contiguous, and shard size is a
        word multiple, so one pack of the run's logical bit range lands
        word-aligned at the run's base.  Reads only pre-condense state
        and writes only the run's own word slice, so concurrent repacks
        never conflict.
        """
        lo = first_shard * self._shard_bits
        hi = min(last_shard * self._shard_bits, self._length)
        if hi <= lo:
            return
        packed = kernels.bool_to_words(self._logical_bool_range(lo, hi))
        base = first_shard * self._words_per_shard
        new_words[base : base + len(packed)] = packed

    def _logical_bool_range(self, lo: int, hi: int) -> np.ndarray:
        """The logical bits ``[lo, hi)`` as a boolean array."""
        out = np.zeros(max(0, hi - lo), dtype=bool)
        if hi <= lo:
            return out
        shard = self._locate(lo)
        cursor = lo
        while cursor < hi:
            nbits = self._shard_bit_count(shard)
            local = cursor - int(self._starts[shard])
            take = min(hi - cursor, nbits - local)
            if take <= 0:
                shard += 1
                continue
            words = self._shard_words(shard)
            out[cursor - lo : cursor - lo + take] = kernels.words_to_bool(
                words, local + take
            )[local:]
            cursor += take
            shard += 1
        return out

    def _maybe_condense(self) -> None:
        if self._condense_threshold is None:
            return
        capacity = len(self._starts) * self._shard_bits
        if capacity and self.lost_bits() / capacity > self._condense_threshold:
            self.condense()

    # ------------------------------------------------------------------
    # whole-bitmap views
    # ------------------------------------------------------------------
    def to_bool_array(self) -> np.ndarray:
        """Return the logical bitmap as a boolean numpy array."""
        return self._logical_bool_range(0, self._length)

    def positions(self) -> np.ndarray:
        """Return the sorted logical positions of all set bits."""
        return np.flatnonzero(self.to_bool_array()).astype(np.int64)

    def count(self) -> int:
        """Number of set bits (cached until the next mutation).

        Bits past a shard's logical end are always zero (deletes clear
        the vacated bit, growth appends zero words), so the popcount of
        the word array is the popcount of the logical bitmap.
        """
        if self._count is None:
            self._count = kernels.popcount_words(self._words)
        return self._count

    def __iter__(self) -> Iterator[int]:
        return iter(self.positions().tolist())

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Bytes of word storage plus shard metadata."""
        return self._words.nbytes + self._starts.nbytes + self._lost.nbytes

    def overhead_fraction(self) -> float:
        """Metadata overhead relative to the word storage (≈ 64/shard_bits)."""
        return self._starts.nbytes / self._words.nbytes if self._words.nbytes else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ShardedBitmap(length={self._length}, shards={self.num_shards}, "
            f"shard_bits={self._shard_bits}, lost={self.lost_bits()})"
        )
