"""Deterministic pseudo-random streams for reproducible training.

Every random decision in this package (weight init, shuffling, dropout,
patch masking, synthetic data) is drawn from an ``Rng`` stream so that a
run is a pure function of its seed. The generator is specified exactly,
so it can be re-implemented in any language:

* Seeding uses **splitmix64**: ``state += 0x9E3779B97F4A7C15`` followed by
  the finalizer ``z = state; z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EB; z ^= z >> 31`` (all mod 2^64).
* The output stream is **xorshift128+** over ``LANES = 16384`` independent
  lanes. Lane ``i`` is seeded with splitmix64 outputs ``2i`` and ``2i+1``.
  One step of a lane with state ``(s0, s1)``::

      r  = (s0 + s1) mod 2^64      # emitted word
      t  = s0 ^ (s0 << 23)
      s0' = s1
      s1' = t ^ s1 ^ (t >> 18) ^ (s1 >> 5)

* Drawing ``n`` words advances all lanes ``ceil(n / LANES)`` times; the
  word order is round-major, lane-minor (word ``j`` of round ``r`` sits at
  index ``r * LANES + j``). Surplus words at the tail are discarded.
* ``uniform``: ``(word >> 11) * 2**-53`` in [0, 1).
* ``normal``: Box-Muller on consecutive uniform pairs, with
  ``u1 = ((word >> 11) + 1) * 2**-53`` in (0, 1]; pair ``(u1, u2)`` yields
  ``sqrt(-2 ln u1) * (cos, sin)(2 pi u2)``.
* Child streams: ``child(tag)`` reseeds with
  ``splitmix64_mix(seed XOR fnv1a64(tag))`` so distinct purposes never
  share a stream position.
"""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
LANES = 16384
# xorshift128+ shift amounts
_SHL, _SHR_T, _SHR_S1 = np.uint64(23), np.uint64(18), np.uint64(5)
_MANTISSA_SHIFT = np.uint64(11)


def splitmix64_mix(x: int) -> int:
    """The splitmix64 finalizer: a 64-bit bijective hash."""
    z = x & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def splitmix64_sequence(seed: int, count: int) -> np.ndarray:
    """First ``count`` outputs of splitmix64 started at ``seed``.

    State i is seed + (i+1) * golden (mod 2^64), so the whole sequence
    vectorizes as one hash of a counter ramp.
    """
    steps = (np.uint64(seed) + np.uint64(_GOLDEN) * np.arange(1, count + 1, dtype=np.uint64))
    z = steps
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def fnv1a64(text: str) -> int:
    """FNV-1a 64-bit hash of the UTF-8 bytes of ``text``."""
    h = 0xCBF29CE484222325
    for b in text.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


class Rng:
    """A seeded xorshift128+ stream (see module docstring for the spec)."""

    def __init__(self, seed: int):
        self.seed = seed & 0xFFFFFFFFFFFFFFFF
        words = splitmix64_sequence(self.seed, 2 * LANES)
        self._s0 = words[0::2].copy()
        self._s1 = words[1::2].copy()

    def child(self, tag: str) -> "Rng":
        """Derive an independent stream for a named purpose."""
        return Rng(splitmix64_mix(self.seed ^ fnv1a64(tag)))

    def _rounds(self, rows):
        """Step every lane once per row of ``rows``, yielding each row
        once it holds that round's words.

        The lanes step in place: the new lane state goes into the two
        state arrays, with one scratch array for the whole walk.
        """
        s0, s1 = self._s0, self._s1
        t = np.empty(LANES, dtype=np.uint64)
        for row in rows:
            np.add(s0, s1, out=row)
            # t = s0 ^ (s0 << 23); s1' = t ^ s1 ^ (t >> 18) ^ (s1 >> 5) is
            # built in s0's array, then the arrays swap roles (s0' = s1)
            np.left_shift(s0, _SHL, out=t)
            t ^= s0
            np.right_shift(t, _SHR_T, out=s0)
            s0 ^= t
            s0 ^= s1
            np.right_shift(s1, _SHR_S1, out=t)
            s0 ^= t
            s0, s1 = s1, s0
            self._s0, self._s1 = s0, s1
            yield row

    def words(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit words, each round written straight into the output."""
        rows = -(-n // LANES)
        if rows > sys.maxsize // (8 * LANES):
            # numpy rejects a shape this large with a ValueError; it is a
            # request no memory can hold
            raise MemoryError(f"cannot allocate {n} random words")
        out = np.empty((rows, LANES), dtype=np.uint64)
        for _ in self._rounds(out):
            pass
        return out.reshape(-1)[:n]

    def uniform(self, shape=None) -> np.ndarray | float:
        """Uniform float64 in [0, 1)."""
        if shape is None:
            return float(self.words(1)[0] >> _MANTISSA_SHIFT) * 2.0**-53
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = math.prod(shape)
        u = (self.words(n) >> _MANTISSA_SHIFT).astype(np.float64) * 2.0**-53
        return u.reshape(shape)

    def uniform_range(self, low: float, high: float, shape) -> np.ndarray:
        return low + (high - low) * self.uniform(shape)

    def normal(self, shape) -> np.ndarray:
        """Standard normal deviates via Box-Muller."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = math.prod(shape)
        pairs = -(-n // 2)
        w = self.words(2 * pairs)
        u1 = ((w[0::2] >> _MANTISSA_SHIFT).astype(np.float64) + 1.0) * 2.0**-53
        u2 = (w[1::2] >> _MANTISSA_SHIFT).astype(np.float64) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.empty(2 * pairs, dtype=np.float64)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        return z[:n].reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of range(n), swapping from the back.

        The n-1 uniforms are drawn as one batch before swapping.
        """
        perm = np.arange(n)
        if n < 2:
            return perm
        u = self.uniform(n - 1)
        for step, i in enumerate(range(n - 1, 0, -1)):
            j = int(u[step] * (i + 1))
            perm[i], perm[j] = perm[j], perm[i]
        return perm

    def bernoulli(self, p: float, shape) -> np.ndarray:
        """Boolean array, True with probability ``p``.

        Integer form of ``uniform(shape) < p``: since uniforms are
        ``(word >> 11) * 2**-53``, the test equals ``(word >> 11) <
        ceil(p * 2**53)`` exactly. Each round's words are tested in one
        scratch row, straight into the output, so the call never holds
        more than one round of words.
        """
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = math.prod(shape)
        threshold = np.uint64(min(int(np.ceil(p * 2.0**53)), 1 << 53))
        out = np.empty(n, dtype=bool)
        row = np.empty(LANES, dtype=np.uint64)
        for start, w in zip(range(0, n, LANES), self._rounds(itertools.repeat(row))):
            w >>= _MANTISSA_SHIFT
            np.less(w[: n - start], threshold, out=out[start : start + LANES])
        return out.reshape(shape)
