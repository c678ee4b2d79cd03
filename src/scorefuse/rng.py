"""Deterministic pseudo-randomness used everywhere in the toolkit.

All draws come from SplitMix64 (Steele, Lea & Flood 2014): the k-th output
word of a stream seeded with ``s`` is ``mix64(s + k * GOLDEN)`` where GOLDEN
is 0x9E3779B97F4A7C15 and ``mix64`` is the standard finalizer. The generator
is integer-only, so identical seeds give identical streams on every platform
(and in any language that reimplements these few lines).

Substreams are derived by hashing the root seed together with string tags
(SHA-256, first 8 bytes big-endian), e.g. one substream per (matcher, class).
Uniform doubles take the top 53 bits of a word, shifted to the open interval
(0, 1); normal deviates apply the inverse normal CDF (algorithm AS 241 via
``statistics.NormalDist.inv_cdf``) to those uniforms, so a whole Gaussian
stream is reproducible from the documented word sequence.
"""

from __future__ import annotations

import hashlib
from statistics import NormalDist

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

_STD_NORMAL = NormalDist()


def mix64(z: int) -> int:
    """SplitMix64 finalizer for a 64-bit word."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def substream_seed(seed: int, *tags: str) -> int:
    """Derive a 64-bit substream seed from a root seed and string tags."""
    h = hashlib.sha256()
    h.update(b"scorefuse-substream")
    h.update(int(seed & MASK64).to_bytes(8, "big"))
    for tag in tags:
        h.update(b"\x00")
        h.update(tag.encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big")


class SplitMix64:
    """A positioned SplitMix64 stream."""

    def __init__(self, seed: int):
        self._seed = seed & MASK64
        self._count = 0

    def next_word(self) -> int:
        self._count += 1
        return mix64(self._seed + self._count * GOLDEN)

    def words(self, n: int) -> np.ndarray:
        """Next ``n`` words as a uint64 array (vectorized, same sequence)."""
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        with np.errstate(over="ignore"):
            z = np.uint64(self._seed) + idx * np.uint64(GOLDEN)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            z = z ^ (z >> np.uint64(31))
        return z

    def uniforms(self, n: int) -> np.ndarray:
        """Next ``n`` doubles, strictly inside (0, 1)."""
        top53 = (self.words(n) >> np.uint64(11)).astype(np.float64)
        return (top53 + 0.5) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        """Next ``n`` standard normal deviates via inverse-CDF transform."""
        u = self.uniforms(n)
        inv = _STD_NORMAL.inv_cdf
        return np.fromiter((inv(x) for x in u.tolist()), dtype=np.float64, count=n)


def normal_cdf(x: float) -> float:
    """Standard normal CDF via ``math.erf`` (error far below 1e-10)."""
    return _STD_NORMAL.cdf(x)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF (algorithm AS 241)."""
    return _STD_NORMAL.inv_cdf(p)
