"""numpy's `default_rng(seed)` stream in pure Python, for the two draws
the `borg --random` suite makes, without importing numpy's random module.

`Generator(seed)` seeds PCG64 (XSL-RR 128/64, O'Neill 2014) from
`SeedSequence(seed)` as numpy does, and its `integers` and `uniform`
return what numpy's `Generator.integers(low, high)` and
`Generator.uniform(low, high, n)` return, draw for draw: `integers` is
Lemire's bounded 32-bit draw (ACM TOMACS 2019) with its rejection loop, over
the two 32-bit halves of each 64-bit output, low half first and the high
half kept for the next 32-bit draw; `uniform` is low + (high - low) * u
with u = (next64 >> 11) * 2**-53, rounded twice (after the multiply and
after the add).  That matches numpy builds that do not fuse `low + range*u`
into one FMA, which the x86-64 wheels are.
"""
from __future__ import annotations

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# SeedSequence's hash and mix constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hasher(const: int, mult: int):
    """SeedSequence's hash of one 32-bit word: xor in the running constant,
    step the constant by `mult`, multiply by it and fold the high half down."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    result = (_MIX_L * x - _MIX_R * y) & _M32
    return result ^ result >> 16


def _seed_words(seed: int) -> list[int]:
    """`SeedSequence(seed).generate_state(4, np.uint64)` for an int seed >= 0:
    the seed's 32-bit words (least significant first) hashed into a pool of
    4 words, then 8 hashed 32-bit words read as 4 little-endian 64-bit ones."""
    words = [seed & _M32]
    while seed := seed >> 32:
        words.append(seed & _M32)
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in (words + [0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    state = list(map(_hasher(_INIT_B, _MULT_B), pool + pool))
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


class Generator:
    """numpy's `default_rng(seed)` for an int seed >= 0, limited to
    `integers` and `uniform`."""

    def __init__(self, seed: int):
        s = _seed_words(seed)
        self._inc = ((s[2] << 64 | s[3]) << 1 | 1) & _M128
        # the state starts at 0, steps, adds the seed's state and steps again
        self._state = ((self._inc + (s[0] << 64 | s[1])) * _PCG_MULT + self._inc) & _M128
        self._half: int | None = None  # the high half of a 64-bit draw, not yet returned

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        value, rot = (state >> 64 ^ state) & _M64, state >> 122
        return (value >> rot | value << (64 - rot)) & _M64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        value = self._next64()
        self._half = value >> 32
        return value & _M32

    def integers(self, low: int, high: int) -> int:
        """One integer of [low, high), for 2 <= high - low <= 2**32 (numpy
        draws nothing at 1 and 64-bit words above 2**32)."""
        span = high - low
        m = self._next32() * span
        if m & _M32 < span:
            threshold = (1 << 32) % span
            while m & _M32 < threshold:
                m = self._next32() * span
        return low + (m >> 32)

    def uniform(self, low: float, high: float, n: int) -> list[float]:
        """n floats of [low, high)."""
        span = high - low
        return [low + span * ((self._next64() >> 11) * 2.0**-53) for _ in range(n)]
