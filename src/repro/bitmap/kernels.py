"""Word-level bit manipulation kernels shared by the bitmap structures.

The paper accelerates the cross-element bit shift of the sharded bitmap's
delete operation with AVX2 intrinsics (Listing 1).  numpy plays the role
of SIMD here: :func:`shift_down_vectorized` expresses the same
shift-with-carry over whole word slices (Figure 6 keeps the plain
word-by-word loop as its non-vectorized comparison point).

All kernels operate on little-endian bit order: bit ``i`` of the logical
bitmap lives in word ``i // 64`` at bit position ``i % 64``.
"""

from __future__ import annotations

import numpy as np

WORD_BITS = 64
_ONE = np.uint64(1)
_U63 = np.uint64(63)

__all__ = [
    "WORD_BITS",
    "get_bit",
    "set_bit",
    "clear_bit",
    "shift_down_vectorized",
    "words_to_bool",
    "bool_to_words",
    "popcount_words",
]


def get_bit(words: np.ndarray, bit: int) -> bool:
    """Return bit ``bit`` of the word array."""
    word = words[bit >> 6]
    return bool((int(word) >> (bit & 63)) & 1)


def set_bit(words: np.ndarray, bit: int) -> None:
    """Set bit ``bit`` of the word array to 1."""
    words[bit >> 6] |= np.uint64(1 << (bit & 63))


def clear_bit(words: np.ndarray, bit: int) -> None:
    """Set bit ``bit`` of the word array to 0."""
    words[bit >> 6] &= np.uint64(~(1 << (bit & 63)) & 0xFFFFFFFFFFFFFFFF)


def shift_down_vectorized(words: np.ndarray, bit: int, nbits: int) -> None:
    """Shift the bits in ``[bit, nbits)`` one position down (toward bit 0).

    After the call, logical bit ``j`` (for ``bit <= j < nbits - 1``) holds
    the value previously at ``j + 1``; bits below ``bit`` are unchanged and
    bit ``nbits - 1`` becomes 0.  This is the shard-local delete shift.

    ``words`` is a uint64 view covering at least ``nbits`` bits; only the
    words overlapping ``[bit, nbits)`` are touched.  The cross-word carry
    (``(w >> 1) | (w_next << 63)``) is evaluated on whole numpy slices,
    mirroring the AVX2 lane exchange of the paper's Listing 1.
    """
    if nbits <= 0 or bit >= nbits:
        return
    first = bit >> 6
    last = (nbits - 1) >> 6
    if first == last:
        w = int(words[first])
        low_mask = (1 << (bit & 63)) - 1
        words[first] = np.uint64((w & low_mask) | ((w >> 1) & ~low_mask))
        return
    # Words strictly after the first: shift down with carry from successor.
    body = words[first + 1 : last + 1]
    carry = np.empty_like(body)
    carry[:-1] = body[1:] << _U63
    carry[-1] = 0
    # First word: preserve bits below the deleted position.
    w = int(words[first])
    low_mask = (1 << (bit & 63)) - 1
    new_first = (w & low_mask) | ((w >> 1) & ~low_mask & 0xFFFFFFFFFFFFFFFF)
    new_first |= (int(words[first + 1]) & 1) << 63
    np.right_shift(body, _ONE, out=body)
    np.bitwise_or(body, carry, out=body)
    words[first] = np.uint64(new_first)


def words_to_bool(words: np.ndarray, nbits: int) -> np.ndarray:
    """Expand a word array into a boolean array of the first ``nbits`` bits."""
    as_bytes = words.view(np.uint8)
    bits = np.unpackbits(as_bytes, bitorder="little")
    return bits[:nbits].astype(bool)


def bool_to_words(bits: np.ndarray) -> np.ndarray:
    """Pack a boolean array into a uint64 word array (little-endian bits)."""
    packed = np.packbits(bits.astype(np.uint8), bitorder="little")
    nwords = (len(bits) + WORD_BITS - 1) // WORD_BITS
    padded = np.zeros(nwords * 8, dtype=np.uint8)
    padded[: len(packed)] = packed
    return padded.view(np.uint64)


def popcount_words(words: np.ndarray) -> int:
    """Count set bits over a word array."""
    if len(words) == 0:
        return 0
    return int(np.unpackbits(words.view(np.uint8)).sum())
