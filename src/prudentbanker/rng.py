"""Seeded random streams.

One master seed is split into independent named streams (losses, delays,
one action stream per learner) so that different learners can be compared
on byte-identical environments.
"""
from __future__ import annotations

import zlib

import numpy as np

from .errors import ConfigError, ProtocolError


def stream(seed: int, name: str) -> np.random.Generator:
    """Return an independent generator derived from (seed, name).

    The name is hashed with CRC32, which is stable across platforms and
    Python processes (unlike the builtin hash). The seed must be nonnegative.
    """
    if seed < 0:
        raise ConfigError("seed must be nonnegative")
    key = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(entropy=[int(seed), key]))


def sample_arm(dist: np.ndarray, u: float) -> int:
    """Inverse-CDF sampling of an arm index from a probability vector.

    Raises ProtocolError unless `dist` is nonnegative and sums to 1 within 1e-9.
    """
    cdf = np.cumsum(dist)
    total = cdf.item(-1)
    if not abs(total - 1.0) <= 1e-9 or dist.min() < 0.0:
        raise ProtocolError(f"not a probability vector: {dist!r}")
    # Guard against cumulative rounding leaving cdf[-1] slightly below u.
    cdf[-1] = max(total, 1.0)
    return int(cdf.searchsorted(u, side="right"))


class RngSampler:
    """Draws arms by consuming a generator sequentially."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng

    def draw(self, dist: np.ndarray) -> int:
        return sample_arm(dist, self._rng.random())
