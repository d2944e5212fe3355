"""One pedestrian's random stream: PCG64 seeded by a SeedSequence, in Python.

A `PCG64Stream(seed, ped_id)` gives, draw for draw and bit for bit, what
`numpy.random.Generator(PCG64(SeedSequence(entropy=seed,
spawn_key=(ped_id,))))` gives for the two draws vhsim makes: `uniform(low,
high)` and `integers(n)`. NumPy's RNG policy (NEP 19) keeps only its bit
generators' streams stable across releases, not its `Generator` methods, so
owning the draws keeps a trial's outputs independent of numpy's version; it
also keeps `numpy.random` (about 2 MB resident) out of every trial.

The generator is O'Neill's PCG64 (XSL-RR output on a 128-bit LCG, HMC-CS-2014-0905),
stepped before each output as numpy steps it. Seeding follows numpy's
SeedSequence: the seed's little-endian 32-bit words, zero-padded to the pool
size, then the id's words, hash-mixed into a pool of four words, from which
four 64-bit words make the LCG's start and increment.
"""

from __future__ import annotations

_MASK32 = 0xFFFF_FFFF
_MASK64 = 0xFFFF_FFFF_FFFF_FFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence's constants: a pool of four 32-bit words.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _words(value: int) -> list[int]:
    """`value` as little-endian 32-bit words; one word 0 for 0."""
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    words = []
    while True:
        words.append(value & _MASK32)
        value >>= 32
        if not value:
            return words


def _seed_words(seed: int, ped_id: int) -> list[int]:
    """SeedSequence(entropy=seed, spawn_key=(ped_id,)).generate_state(8, uint32)."""
    entropy = _words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy)) + _words(ped_id)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    state, hash_const = [], _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state.append(value ^ (value >> 16))
    return state


class PCG64Stream:
    """The random stream of pedestrian `ped_id` in the trial of `seed`."""

    __slots__ = ("_state", "_inc", "_has_uint32", "_uint32")

    def __init__(self, seed: int, ped_id: int) -> None:
        w = _seed_words(seed, ped_id)
        # four uint64s, each joined from two 32-bit words, low word first
        s0, s1, i0, i1 = (w[k] | (w[k + 1] << 32) for k in range(0, 8, 2))
        self._inc = ((((i0 << 64) | i1) << 1) | 1) & _MASK128
        # from state 0: step, add the seed, step
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULT + self._inc) & _MASK128
        self._has_uint32, self._uint32 = False, 0

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        x = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((x >> rot) | (x << (-rot & 63))) & _MASK64

    def _next32(self) -> int:
        """The low half of a fresh 64-bit output, then its high half."""
        if self._has_uint32:
            self._has_uint32 = False
            return self._uint32
        value = self._next64()
        self._has_uint32, self._uint32 = True, value >> 32
        return value & _MASK32

    def uniform(self, low: float, high: float) -> float:
        """A float in [low, high) from the top 53 bits of one 64-bit output."""
        return low + (high - low) * ((self._next64() >> 11) * 2.0**-53)

    def integers(self, n: int) -> int:
        """An int in [0, n) by Lemire's multiply-and-reject on 32-bit outputs;
        n == 1 draws nothing."""
        if not 1 <= n <= _MASK32:
            raise ValueError(f"integers(n) needs 1 <= n < 2**32, got {n}")
        if n == 1:
            return 0
        m = self._next32() * n
        if m & _MASK32 < n:
            threshold = (_MASK32 + 1 - n) % n
            while m & _MASK32 < threshold:
                m = self._next32() * n
        return m >> 32
