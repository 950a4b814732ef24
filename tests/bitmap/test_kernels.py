"""Unit tests for the word-level bit kernels."""

import numpy as np

from repro.bitmap import kernels


def bits_of(words, n):
    return kernels.words_to_bool(words, n)


class TestBitAccess:
    def test_set_get_clear_roundtrip(self):
        words = np.zeros(4, dtype=np.uint64)
        kernels.set_bit(words, 0)
        kernels.set_bit(words, 63)
        kernels.set_bit(words, 64)
        kernels.set_bit(words, 200)
        assert kernels.get_bit(words, 0)
        assert kernels.get_bit(words, 63)
        assert kernels.get_bit(words, 64)
        assert kernels.get_bit(words, 200)
        assert not kernels.get_bit(words, 1)
        kernels.clear_bit(words, 63)
        assert not kernels.get_bit(words, 63)
        assert kernels.get_bit(words, 64)

    def test_set_bit_idempotent(self):
        words = np.zeros(1, dtype=np.uint64)
        kernels.set_bit(words, 5)
        kernels.set_bit(words, 5)
        assert kernels.popcount_words(words) == 1


class TestPackUnpack:
    def test_roundtrip_bool_words(self):
        rng = np.random.default_rng(7)
        bits = rng.random(1000) < 0.3
        words = kernels.bool_to_words(bits)
        back = kernels.words_to_bool(words, len(bits))
        np.testing.assert_array_equal(bits, back)

    def test_empty(self):
        words = kernels.bool_to_words(np.zeros(0, dtype=bool))
        assert kernels.popcount_words(words) == 0

    def test_popcount(self):
        bits = np.zeros(500, dtype=bool)
        bits[[0, 63, 64, 100, 499]] = True
        words = kernels.bool_to_words(bits)
        assert kernels.popcount_words(words) == 5


class TestShiftDown:
    def reference_shift(self, bits, pos):
        out = bits.copy()
        out[pos:-1] = bits[pos + 1 :]
        out[-1] = False
        return out

    def check(self, bits, pos):
        words = kernels.bool_to_words(bits)
        kernels.shift_down_vectorized(words, pos, len(bits))
        got = kernels.words_to_bool(words, len(bits))
        np.testing.assert_array_equal(got, self.reference_shift(bits, pos))

    def test_shift_within_single_word(self):
        bits = np.array([1, 0, 1, 1, 0, 1, 0, 0] * 4, dtype=bool)
        self.check(bits, 3)

    def test_shift_across_words(self):
        rng = np.random.default_rng(3)
        bits = rng.random(64 * 5) < 0.5
        self.check(bits, 10)

    def test_shift_from_zero(self):
        rng = np.random.default_rng(4)
        bits = rng.random(300) < 0.5
        self.check(bits, 0)

    def test_shift_at_word_boundary(self):
        rng = np.random.default_rng(5)
        bits = rng.random(256) < 0.5
        for pos in (63, 64, 127, 128):
            self.check(bits.copy(), pos)

    def test_shift_last_bit(self):
        bits = np.ones(130, dtype=bool)
        self.check(bits, 129)

    def test_shift_noop_when_bit_beyond_valid(self):
        words = kernels.bool_to_words(np.ones(64, dtype=bool))
        before = words.copy()
        kernels.shift_down_vectorized(words, 64, 64)
        np.testing.assert_array_equal(words, before)

    def test_random_positions_match_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 512))
            bits = rng.random(n) < 0.4
            pos = int(rng.integers(0, n))
            self.check(bits, pos)
