"""The package's one source of randomness.

Rng is a 64-bit xorshift-star stream whose seed passes through one
splitmix64 round, so a (family, params, seed) triple pins every generated
graph and every randomized worklist order bit for bit on every platform.
"""

from __future__ import annotations

from .errors import InvalidParamError

_MASK = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_SPLITMIX_MUL1 = 0xBF58476D1CE4E5B9
_SPLITMIX_MUL2 = 0x94D049BB133111EB
_STAR_MUL = 0x2545F4914F6CDD1D


class Rng:
    """xorshift64* with shifts 12/25/27, seeded by one splitmix64 round.

    Tiny, well studied, and trivially portable; not for cryptography.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        z = (seed + _SPLITMIX_GAMMA) & _MASK
        z = ((z ^ (z >> 30)) * _SPLITMIX_MUL1) & _MASK
        z = ((z ^ (z >> 27)) * _SPLITMIX_MUL2) & _MASK
        z ^= z >> 31
        # xorshift state must never be zero
        self._state = z if z else _SPLITMIX_GAMMA

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK
        x ^= x >> 27
        self._state = x
        return (x * _STAR_MUL) & _MASK

    def below(self, n: int) -> int:
        """Uniform draw from 0..n-1, rejection sampled against modulo bias."""
        if n <= 0:
            raise InvalidParamError(f"below() needs a positive bound, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
