"""Deterministic, splittable random streams (SplitMix64).

Every sampling phase in the package draws from its own `Stream`, derived from
the user seed with `split`. The generator is integer-only, so identical seeds
give bit-identical samples on every platform and Python version (no dependence
on `random`'s float paths or version-specific shuffles).

Draws come in blocks: the k-th output after a state s is mix(s + k * GOLDEN),
so `Stream.block` computes the next k outputs at once in numpy `uint64`
arithmetic, which wraps mod 2^64 exactly as the integer recurrence does.
numpy is imported for that alone; a block equals k scalar draws bit for bit.

SplitMix64 reference: Steele, Lea & Flood, "Fast splittable pseudorandom
number generators" (the java.util.SplittableRandom finalizer).
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z):
    """The SplitMix64 finalizer, on one int in [0, 2^64) or elementwise on a uint64 array."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def split(seed: int, *indices: int) -> int:
    """Derive a child seed from `seed` and one or more stream indices.

    Folding is left-to-right, so split(s, a, b) == split(split(s, a), b).
    """
    child = seed & _MASK64
    for i in indices:
        child = _mix((child + (_GOLDEN * (i + 1))) & _MASK64)
    return child


class Stream:
    """A single SplitMix64 stream."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def block(self, k: int) -> np.ndarray:
        """The stream's next k 64-bit outputs, as a uint64 array."""
        states = np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_GOLDEN) + np.uint64(self._state)
        self._state = (self._state + k * _GOLDEN) & _MASK64
        return _mix(states)

    def shuffle(self, xs: list) -> None:
        """In-place Fisher-Yates shuffle.

        Position i swaps with j = u mod (i + 1) for the next draw u, rejecting
        draws from the incomplete top block of [0, 2^64) so that j is exactly
        uniform. One block covers every remaining position; at the first
        rejected draw the stream rewinds to just after it and draws the rest
        again from there.
        """
        i = len(xs) - 1
        while i > 0:
            start = self._state
            u = self.block(i)
            bound = np.arange(i + 1, 1, -1, dtype=np.uint64)
            rejected = np.flatnonzero(u >= np.uint64(_MASK64) - np.uint64(_MASK64) % bound)
            if rejected.size:
                t = int(rejected[0])
                self._state = (start + (t + 1) * _GOLDEN) & _MASK64
                u, bound = u[:t], bound[:t]
            for j in (u % bound).tolist():
                xs[i], xs[j] = xs[j], xs[i]
                i -= 1
