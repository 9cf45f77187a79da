"""Seeded random streams.

One master seed is split into independent named streams (losses, delays,
one action stream per learner) so that different learners can be compared
on byte-identical environments.

`check_count` is the one count rule: every size, seed and lower-bound count in
the package calls it. `check_integer` alone guards the integers with a range of
their own (an anchor, the probe's trials, `batched_simulate`'s j).
"""
from __future__ import annotations

import operator
import zlib

import numpy as np

from .errors import ConfigError, ProtocolError


def check_integer(name: str, value) -> None:
    """Raise ConfigError naming `name` unless `value` is an integer; 2.0 is not, np.int64(2) is."""
    try:
        operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


def check_count(name: str, value, least: int) -> None:
    """The count rule: raise ConfigError naming `name` unless `value` is an integer >= `least`."""
    check_integer(name, value)
    if value < least:
        raise ConfigError(f"{name} must be at least {least}, got {value!r}")


def check_seed(seed) -> None:
    """The seed rule: a nonnegative integer (numpy integers pass)."""
    check_count("seed", seed, 0)


def stream(seed: int, name: str) -> np.random.Generator:
    """Return an independent generator derived from (seed, name).

    The name is hashed with CRC32, which is stable across platforms and
    Python processes (unlike the builtin hash). The seed must pass check_seed.
    """
    check_seed(seed)
    key = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(entropy=[int(seed), key]))


def sample_arm(dist: np.ndarray, u: float) -> int:
    """Inverse-CDF sampling of an arm index from a probability vector.

    Raises ProtocolError unless `dist` is nonnegative and sums to 1 within 1e-9.
    """
    cdf = np.add.accumulate(dist)  # np.cumsum without its wrapper
    total = cdf.item(-1)
    # a NaN makes the total NaN; the min is read by index, cheaper than a reduction
    if not abs(total - 1.0) <= 1e-9 or dist.item(dist.argmin()) < 0.0:
        raise ProtocolError(f"not a probability vector: {dist!r}")
    # Cumulative rounding can leave the total slightly below u: past it is the last arm.
    return min(int(cdf.searchsorted(u, side="right")), cdf.size - 1)


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
