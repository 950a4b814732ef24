"""Ordinary (unsharded) bitmap — the baseline of the paper's Table 2.

A flat word array with one bit per tuple.  Single-bit access is a shift
and a mask; the weakness is :meth:`PlainBitmap.delete`, which must shift
every subsequent bit of the whole bitmap towards the deleted position,
making deletes linear in the bitmap size.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.bitmap import kernels
from repro.bitmap.kernels import WORD_BITS

__all__ = ["PlainBitmap"]


class PlainBitmap:
    """A growable bitmap over ``length`` logical bits.

    Parameters
    ----------
    length:
        Initial number of logical bits (all zero).
    """

    def __init__(self, length: int = 0) -> None:
        if length < 0:
            raise ValueError("bitmap length must be non-negative")
        self._length = length
        nwords = (length + WORD_BITS - 1) // WORD_BITS
        self._words = np.zeros(max(nwords, 1), dtype=np.uint64)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_positions(cls, positions: Iterable[int], length: int) -> "PlainBitmap":
        """Build a bitmap of ``length`` bits with the given positions set."""
        bm = cls(length)
        if not isinstance(positions, np.ndarray):
            positions = list(positions)
        pos = np.asarray(positions, dtype=np.int64)
        if len(pos) == 0:
            return bm
        if pos.min() < 0 or pos.max() >= length:
            raise IndexError("position out of range")
        words = pos >> 6
        bits = (pos & 63).astype(np.uint64)
        np.bitwise_or.at(bm._words, words, np.uint64(1) << bits)
        return bm

    @classmethod
    def from_bool_array(cls, bits: np.ndarray) -> "PlainBitmap":
        """Build a bitmap from a boolean mask."""
        bm = cls(len(bits))
        if len(bits):
            bm._words = kernels.bool_to_words(np.asarray(bits, dtype=bool))
        return bm

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._length

    def _check(self, pos: int) -> None:
        if not 0 <= pos < self._length:
            raise IndexError(f"bit position {pos} out of range [0, {self._length})")

    def get(self, pos: int) -> bool:
        """Return the bit at ``pos``."""
        self._check(pos)
        return kernels.get_bit(self._words, pos)

    def set(self, pos: int) -> None:
        """Set the bit at ``pos`` to 1."""
        self._check(pos)
        kernels.set_bit(self._words, pos)

    def unset(self, pos: int) -> None:
        """Set the bit at ``pos`` to 0."""
        self._check(pos)
        kernels.clear_bit(self._words, pos)

    def count(self) -> int:
        """Number of set bits."""
        return kernels.popcount_words(self._words)

    def to_bool_array(self) -> np.ndarray:
        """Return the logical bitmap as a boolean numpy array."""
        return kernels.words_to_bool(self._words, self._length)

    def positions(self) -> np.ndarray:
        """Return the sorted positions of all set bits."""
        return np.flatnonzero(self.to_bool_array()).astype(np.int64)

    def __iter__(self) -> Iterator[int]:
        return iter(self.positions().tolist())

    # ------------------------------------------------------------------
    # growth (insert support, paper §4: "reallocating/resizing the bitmap")
    # ------------------------------------------------------------------
    def append(self, value: bool = False) -> None:
        """Append one bit at the end of the bitmap."""
        self.extend(1)
        if value:
            kernels.set_bit(self._words, self._length - 1)

    def extend(self, nbits: int) -> None:
        """Append ``nbits`` zero bits at the end of the bitmap."""
        if nbits < 0:
            raise ValueError("cannot extend by a negative bit count")
        new_len = self._length + nbits
        nwords = (new_len + WORD_BITS - 1) // WORD_BITS
        if nwords > len(self._words):
            grown = np.zeros(max(nwords, 2 * len(self._words)), dtype=np.uint64)
            grown[: len(self._words)] = self._words
            self._words = grown
        self._length = new_len

    # ------------------------------------------------------------------
    # delete (the expensive operation for plain bitmaps)
    # ------------------------------------------------------------------
    def delete(self, pos: int) -> None:
        """Remove the bit at ``pos``; all subsequent bits shift down by one.

        Linear in the number of bits after ``pos`` — the full-bitmap shift
        the sharded design avoids.
        """
        self._check(pos)
        kernels.shift_down_vectorized(self._words, pos, self._length)
        self._length -= 1

    def bulk_delete(self, positions: Iterable[int]) -> None:
        """Delete many bits, given by their *pre-delete* positions.

        Processed in descending order so earlier deletions do not shift the
        coordinates of later ones.  Plain bitmaps have no cheaper bulk path;
        this is simply repeated single deletes, after one range check.
        """
        pos = np.unique(np.asarray(list(positions), dtype=np.int64))
        if len(pos) and (pos[0] < 0 or pos[-1] >= self._length):
            raise IndexError("position out of range")
        for p in pos[::-1]:
            self.delete(int(p))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Bytes used by the word storage."""
        return self._words.nbytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PlainBitmap(length={self._length}, set={self.count()})"
