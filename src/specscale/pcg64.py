"""A run's two random draws as numpy's ``default_rng(entropy)`` makes them, bit
for bit (checked against numpy 2.4.6), without loading ``numpy.random``. numpy
does not fix ``Generator`` streams across versions (NEP 19); ``SeedSequence``
seeding PCG64 (O'Neill 2014, XSL-RR 128/64) is fixed. The entropy words are each
int's little-endian 32-bit words, 0 giving one word 0."""

import operator

import numpy as np

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # a step: state * _MULT + inc mod 2^128


def _hash(word, h, mult):
    """``SeedSequence``'s hash of a 32-bit word under the running constant h, and the next h."""
    h_next = h * mult & _M32
    word = (word ^ h) * h_next & _M32
    return word ^ word >> 16, h_next


def _draws(state, inc):
    """64-bit draws, the state kept in a local: a method call per draw costs ~30% more."""
    while True:
        state = (state * _MULT + inc) & _M128
        x, r = (state ^ state >> 64) & _M64, state >> 122
        yield (x >> r | x << (64 - r)) & _M64


class Stream:
    """The stream of numpy's ``default_rng(list(entropy))``."""

    def __init__(self, *entropy):
        entropy = [operator.index(n) for n in entropy]
        if any(n < 0 for n in entropy):  # as numpy; the split into words would not end
            raise ValueError("expected non-negative integer")
        words = [n >> s & _M32 for n in entropy for s in range(0, max(n.bit_length(), 1), 32)]
        # the pool hashes 4 words (0 past their end), then mixes in each word's hash
        pool, h = (words + [0] * 4)[:4], 0x43B0D7E5
        for i in range(4):
            pool[i], h = _hash(pool[i], h, 0x931E8875)
        for src in range(max(len(words), 4)):
            for dst in (d for d in range(4) if d != src):
                x, h = _hash(pool[src] if src < 4 else words[src], h, 0x931E8875)
                x = (0xCA01F9DD * pool[dst] - 0x4973F715 * x) & _M32
                pool[dst] = x ^ x >> 16
        # 8 words hash the pool cyclically, pair little-endian into 64-bit u and seed
        w, h = pool * 2, 0x8B51F9DD
        for i in range(8):
            w[i], h = _hash(w[i], h, 0x58F38DED)
        u = [w[i] | w[i + 1] << 32 for i in range(0, 8, 2)]
        seed, inc = u[0] << 64 | u[1], (u[2] << 65 | u[3] << 1 | 1) & _M128
        self._draws, self._half = _draws(((inc + seed) * _MULT + inc) & _M128, inc), None

    def permutation(self, a):
        """``default_rng(entropy).permutation(a)`` of a 1-D array (n <= 2^32): a shuffled copy."""
        order, draws, half = list(range(len(a))), self._draws, self._half
        for i in range(len(order) - 1, 0, -1):
            mask, j = (1 << i.bit_length()) - 1, i + 1
            while j > i:  # a 32-bit draw: the half left waiting, else a fresh draw's low half
                x = next(draws) if half is None else half
                j, half = x & mask, x >> 32 if half is None else None
            order[i], order[j] = order[j], order[i]
        self._half = half
        return np.asarray(a)[order]

    def uniform(self, low, high, n):
        """``default_rng(entropy).uniform(low, high, n)`` for floats low < high."""
        x = np.fromiter(self._draws, np.uint64, n)  # exactly n draws; a waiting half stays
        return low + (high - low) * ((x >> np.uint64(11)) * 2.0**-53)
