"""Regularizers on the simplex: gradients and constrained conjugates.

Two mirror maps are supported:

* negative entropy   Psi(x) = sum_i x_i log x_i,      grad_i = 1 + log x_i
* 1/2-Tsallis        Psi(x) = -2 sum_i sqrt(x_i),     grad_i = -1/sqrt(x_i)

The simplex-constrained conjugate map for negative entropy is the softmax
(computed with a max shift); for Tsallis it has no closed form, and the
normalization multiplier is found by a monotone Newton solve, also after a
max shift.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError, NumericalError

NEG_ENTROPY = "negative-entropy"
TSALLIS_HALF = "tsallis-half"
REGULARIZERS = (NEG_ENTROPY, TSALLIS_HALF)

#: coordinates below this are domain violations for grad_psi; callers floor
#: played points at it before taking their gradient
GRAD_FLOOR = 1e-300


@dataclass(frozen=True)
class Regularizer:
    kind: str
    arms: int
    delta: float

    def __post_init__(self):
        if self.kind not in REGULARIZERS:
            raise ConfigError(f"unknown regularizer kind {self.kind!r}")
        if self.arms < 1:
            raise ConfigError("arms must be positive")
        if not (0.0 < self.delta <= 1.0 / self.arms):
            raise ConfigError("delta must lie in (0, 1/arms]")

    def constants(self) -> tuple[float, float]:
        """Regularity constants (C1, C2): diameter bound and stability scale."""
        return self._constants

    @cached_property
    def _constants(self) -> tuple[float, float]:
        # cached_property writes the instance __dict__, past the frozen __setattr__
        if self.kind == NEG_ENTROPY:
            return float(np.log(self.arms)), 1.0 / self.delta
        return float(2.0 * (np.sqrt(self.arms) - 1.0)), 2.0 / self.delta

    @property
    def x0(self) -> np.ndarray:
        """Uniform base point."""
        return np.full(self.arms, 1.0 / self.arms)


def _require_interior(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.min() < GRAD_FLOOR:
        raise DomainError("point has a (numerically) zero coordinate")
    return x


def grad_psi(reg: Regularizer, x: np.ndarray) -> np.ndarray:
    """Componentwise gradient of the regularizer (a new array); needs an interior point."""
    x = _require_interior(x)
    if reg.kind == NEG_ENTROPY:
        return 1.0 + np.log(x)
    return -1.0 / np.sqrt(x)


def grad_psi_star_with_dual(reg: Regularizer, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Simplex-constrained conjugate map, plus the gradient at the output.

    Returns (x, g) with x = argmax_{simplex} <theta, .> - Psi and g = grad Psi(x)
    up to an additive constant. Computing g directly in the dual domain avoids
    evaluating log/1/sqrt on coordinates that underflowed to zero in x.
    """
    theta = np.asarray(theta, dtype=float)
    # a NaN propagates through both reductions, so this rejects NaN and +-inf
    top = np.maximum.reduce(theta)
    if not (math.isfinite(top) and math.isfinite(np.minimum.reduce(theta))):
        raise DomainError("dual vector must be finite")
    shifted = theta - top
    if reg.kind == NEG_ENTROPY:
        w = np.exp(shifted)
        z = w.sum()
        x = w / z
        dual = 1.0 + shifted - np.log(z)
        return x, dual

    # Tsallis: x_i = 1/(lam - theta_i)^2 with lam > max theta the root of
    # f(lam) = sum_i (lam - theta_i)^-2 = 1. After the max shift the root lies
    # in [1, sqrt(A)]: the max coordinate alone gives f(1) >= 1, and
    # f(sqrt(A)) <= A/A = 1. The shift also keeps lam - theta_i at full
    # precision: unshifted, at |theta| ~ 1e4 the ulp of lam alone moves f by
    # more than the tolerance, and the solve fails on well-posed input.
    #
    # Newton runs on h(lam) = f(lam)^(-1/2), solving h = 1 from lam = 1. h is a
    # power mean (exponent -2) of the affine maps lam - theta_i, so it is
    # concave and increasing: each tangent lies above h and crosses 1 at or
    # left of the root, so the iterates rise monotonically and never leave the
    # bracket. h is exactly linear when theta is constant (one step).
    lam = 1.0
    for _ in range(50):  # 3-4 steps are typical
        r = 1.0 / (lam - shifted)
        r2 = r * r
        f = float(r2.sum())
        if abs(f - 1.0) <= 1e-13:
            break
        lam += f * (f ** 0.5 - 1.0) / float(np.dot(r2, r))
    if abs(f - 1.0) > 1e-12:
        raise NumericalError("tsallis conjugate Newton solve did not converge")
    x = r2 / f  # remove the residual normalization error
    dual = shifted - lam
    return x, dual

