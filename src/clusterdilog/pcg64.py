"""numpy's default random stream in the standard library.

`PCG64(seed).uniform(lo, hi, size)` returns, bit for bit, the values of
`numpy.random.default_rng(seed).uniform(lo, hi, size)` for a
non-negative integer seed, so `--rng-seed` draws without importing
numpy.  The chain is numpy's `SeedSequence` (a pool of four 32-bit
words mixed by multiply-xorshift hashes, expanded by `generate_state`
into four 64-bit words), then O'Neill's PCG64 (*PCG: A Family of
Simple Fast Space-Efficient Statistically Good Algorithms for Random
Number Generation*, 2014): a 128-bit linear congruential state with the
XSL-RR output, and a double in [0, 1) from its top 53 bits.
"""

from __future__ import annotations

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
# SeedSequence's hash and mix constants; the pool holds four words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _generate_state(seed: int) -> list:
    """SeedSequence(seed).generate_state(4, numpy.uint64)."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _M32]
    while seed > _M32:
        seed >>= 32
        entropy.append(seed & _M32)
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * _MULT_A & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x, y):
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % _POOL] ^ const
        const = const * _MULT_B & _M32
        value = value * const & _M32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class PCG64:
    """The PCG64 stream of `numpy.random.default_rng(seed)`."""

    __slots__ = ("state", "inc")

    def __init__(self, seed: int):
        s_hi, s_lo, i_hi, i_lo = _generate_state(seed)
        self.inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        # from state 0: one step, add the seed state, one more step
        self.state = self._step(self.inc + (s_hi << 64 | s_lo))

    def _step(self, state: int) -> int:
        return (state * _MULTIPLIER + self.inc) & _M128

    def next64(self) -> int:
        """Advance the state, then fold it to 64 bits: the xor of its two
        halves rotated right by its top 6 bits."""
        self.state = s = self._step(self.state)
        folded, rot = ((s >> 64) ^ s) & _M64, s >> 122
        return (folded >> rot | folded << (64 - rot)) & _M64

    def uniform(self, lo, hi, size: int) -> list:
        """size draws lo + (hi - lo)·u, u = (next64 >> 11)·2⁻⁵³."""
        lo = float(lo)
        span = float(hi) - lo
        return [lo + span * ((self.next64() >> 11) * 2.0 ** -53)
                for _ in range(size)]
