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


#: uniforms drawn per refill; a block gives the values of as many random()
#: calls. A larger block saves little more time and costs peak memory: at 256
#: the list adds 2% to a short desk run's peak, at 64 under 1%.
DRAW_BLOCK = 64


class RngSampler:
    """Draws arms by consuming a generator sequentially.

    Uniforms are drawn DRAW_BLOCK at a time, so the generator runs ahead of
    the draws by up to one block; the k-th draw still uses the k-th uniform.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._uniforms = iter(())

    def draw(self, dist: np.ndarray) -> int:
        u = next(self._uniforms, None)
        if u is None:
            self._uniforms = iter(self._rng.random(DRAW_BLOCK).tolist())
            u = next(self._uniforms)
        return sample_arm(dist, u)
