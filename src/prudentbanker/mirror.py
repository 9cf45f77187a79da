"""Regularizers on the simplex: gradients and constrained conjugates.

Two mirror maps are supported:

* negative entropy   Psi(x) = sum_i x_i log x_i,      grad_i = 1 + log x_i
* 1/2-Tsallis        Psi(x) = -2 sum_i sqrt(x_i),     grad_i = -1/sqrt(x_i)

The simplex-constrained conjugate map for negative entropy is the softmax
(computed with a max shift); for Tsallis it has no closed form, and the
normalization multiplier is solved for, also after a max shift. That solve
starts at -max theta, which is the root for the duals the ledger stores,
keeps a bracket on the root, and steps to the root of a two-pole model of the
normalization function, with a clamped Newton step as the fallback: about two
evaluations of the function per solve in a desk-scale run, against four for
Newton from the bracket's left end. Each evaluation is np.reciprocal and one
dot product, r.dot(r) with r = 1/(lam - theta): on a 10-vector the dot takes
0.5 us against 0.9 us for np.add.reduce of r * r, and np.reciprocal 0.5 us
against 0.7 us for 1.0 / v (numpy 2.4, x86-64, best of 7 timeit repeats).
r * r is formed only where a step needs the slope or x is returned.

Each conjugate also returns a dual of its output, grad Psi(x) up to an
additive constant, which the callers may ignore. For negative entropy that
dual is theta - max theta, so no normalizer is computed for it. For
1/2-Tsallis it is theta - max theta - lam, grad Psi(x) with a constant of 0:
the solve's start -max theta is the root only at such a dual, so a dual off
by a constant would cost evaluations on every later solve that reads it.

Extrema are read by index, as ``v.item(v.argmax())``, because on a 10- or
100-vector that costs about 0.5 us against 1.4 us for ``np.maximum.reduce``
(numpy 2.4, x86-64) and returns the same value (the first NaN, if any; a
+0.0/-0.0 tie may return the other zero, which no output depends on).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError, NumericalError
from .rng import check_count

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
        check_count("arms", self.arms, 1)
        if not (0.0 < self.delta <= 1.0 / self.arms):
            raise ConfigError("delta must lie in (0, 1/arms]")

    @cached_property
    def constants(self) -> tuple[float, float]:
        """Regularity constants (C1, C2): diameter bound and stability scale."""
        # cached_property writes the instance __dict__, past the frozen __setattr__
        if self.kind == NEG_ENTROPY:
            return float(np.log(self.arms)), 1.0 / self.delta
        return float(2.0 * (np.sqrt(self.arms) - 1.0)), 2.0 / self.delta

    @property
    def x0(self) -> np.ndarray:
        """Uniform base point."""
        return np.full(self.arms, 1.0 / self.arms)


def _require_arms(reg: Regularizer, v: np.ndarray) -> np.ndarray:
    """v as a float array, or DomainError unless it has shape (reg.arms,)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (reg.arms,):
        raise DomainError(f"vector of shape {v.shape} for {reg.arms} arms")
    return v


def _require_interior(x: np.ndarray) -> np.ndarray:
    if not (x.item(x.argmin()) >= GRAD_FLOOR and x.item(x.argmax()) < math.inf):  # NaN fails too
        raise DomainError("point has a non-finite or (numerically) zero coordinate")
    return x


def grad_psi(reg: Regularizer, x: np.ndarray) -> np.ndarray:
    """Componentwise gradient of the regularizer (a new array); needs an interior point."""
    x = _require_interior(_require_arms(reg, x))
    if reg.kind == NEG_ENTROPY:
        return 1.0 + np.log(x)
    return -1.0 / np.sqrt(x)


def grad_psi_star_with_dual(reg: Regularizer, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Simplex-constrained conjugate map, plus the gradient at the output.

    Returns (x, g) with x = argmax_{simplex} <theta, .> - Psi and g = grad Psi(x)
    up to an additive constant. Computing g directly in the dual domain avoids
    evaluating log/1/sqrt on coordinates that underflowed to zero in x. For
    negative entropy g is theta - max theta; for 1/2-Tsallis it is grad Psi(x)
    itself (see the module docstring).
    """
    theta = _require_arms(reg, theta)
    # argmax and argmin both find the first NaN, so this rejects NaN and +-inf
    top = theta.item(theta.argmax())
    if not (math.isfinite(top) and math.isfinite(theta.item(theta.argmin()))):
        raise DomainError("dual vector must be finite")
    shifted = theta - top
    if reg.kind == NEG_ENTROPY:
        # grad Psi(x) = 1 + shifted - log(sum exp(shifted)): the constant is dropped
        x = np.exp(shifted)
        x /= np.add.reduce(x)
        return x, shifted

    # Tsallis: x_i = 1/(lam - theta_i)^2 with lam > max theta the root of
    # f(lam) = sum_i (lam - theta_i)^-2 = 1. After the max shift the root lies
    # in [1, sqrt(A)]: the max coordinate alone gives f(1) >= 1, and
    # f(sqrt(A)) <= A/A = 1. The shift also keeps lam - theta_i at full
    # precision: unshifted, at |theta| ~ 1e4 the ulp of lam alone moves f by
    # more than the tolerance, and the solve fails on well-posed input.
    #
    # The solve starts at -max theta, clamped into [1, sqrt(A)]. The unshifted
    # root is a convex, nondecreasing function of theta, and it is 0 at a
    # conjugate's own dual and at grad_psi of a distribution. So -max theta is
    # the root there, and bounds it from above for a convex mixture of such
    # duals (begin_round) or for one with a coordinate lowered (ingest): every
    # theta the ledger builds.
    #
    # Each evaluation of f narrows the bracket [lo, hi] by the sign of f - 1.
    # The next point is the root of a two-pole model of f, fitted at lam: the
    # max coordinate's term 1/lam^2 exactly, plus one pole K/(lam - p)^2 with
    # the value and slope of the other terms. Their poles lie at or left of 0,
    # so p <= 0 and the model is defined on the whole bracket. The model root
    # is taken only strictly inside (lo, hi); otherwise lam takes a Newton step
    # on h(lam) = f(lam)^(-1/2). h is a power mean (exponent -2) of the affine
    # maps lam - theta_i, so it is concave and increasing, and each tangent
    # lies above h: the step lands at or left of the root. From the right it
    # can land left of the bracket (for theta = (-2, -1000, -1000, -1000), from
    # lam = 2 at 0.999994), so it is clamped into [lo, hi]. The model's Newton
    # iteration starts at that clamped step, which lies at or left of the
    # model's root too (see _two_pole_root).
    #
    # On the seed-0 desk-tsallis benchmark run a solve takes 2.0 evaluations of
    # f (4.0 from lam = 1 by Newton on h alone), and 2.3-3.0 at 100 arms or at
    # alpha = 1. The model's Newton iteration takes 2.3 passes per call there,
    # against 3.9 from lo.
    lo, hi = 1.0, math.sqrt(reg.arms)
    lam = min(max(-top, lo), hi)
    for _ in range(50):
        r = np.reciprocal(lam - shifted)
        f = float(r.dot(r))
        if abs(f - 1.0) <= 1e-13:
            break
        if f > 1.0:
            lo = lam
        else:
            hi = lam
        r2 = r * r
        s3 = float(r2.dot(r))  # -f'(lam) / 2
        step = min(max(lam + f * (f ** 0.5 - 1.0) / s3, lo), hi)
        guess = _two_pole_root(lam, f, s3, step)
        lam = guess if lo < guess < hi else step  # NaN fails too
    if abs(f - 1.0) > 1e-12:
        raise NumericalError("tsallis conjugate Newton solve did not converge")
    x = r * r
    x /= f  # remove the residual normalization error
    # grad Psi(x) with constant 0, which the warm start above relies on; a
    # theta - max theta dual, as for negative entropy, measured slower on the
    # desk-tsallis benchmark (79.1 -> 82.6 us/round, medians of 4 pairs on a
    # 2-vCPU x86-64 VM)
    return x, shifted - lam


def _two_pole_root(lam: float, f: float, s3: float, start: float) -> float:
    """Root of the model 1/mu^2 + K/(mu - p)^2 = 1 of f, from start; NaN if none.

    f and s3 = sum_i (lam - theta_i)^-3 give f's value and slope at lam. The
    max coordinate's term 1/lam^2 is kept exactly and the pole fits the rest.
    start is the clamped Newton step on h = f^(-1/2) from lam. The model has
    f's value and slope at lam, so that step is also the model's Newton step,
    and the model's own h is concave: the step lies at or left of the model's
    root, and Newton on the model from there rises to the root without passing
    it. Where the model lies below 1 at start, the clamp raised the step to lo
    past a root left of the bracket, or start is the root up to rounding, and
    the caller takes start. No evaluation of f is made.
    """
    a = 1.0 / lam
    f_rest, s3_rest = f - a * a, s3 - a * a * a
    if not (f_rest > 0.0 and s3_rest > 0.0):
        return math.nan
    span = f_rest / s3_rest  # lam - p
    gain = f_rest * span * span  # K
    mu = start
    for _ in range(8):  # 1-3 steps are typical
        a, b = 1.0 / mu, 1.0 / (mu - lam + span)
        m = a * a + gain * b * b
        if abs(m - 1.0) <= 1e-15:
            break
        if m < 1.0:
            return math.nan
        mu += m * (m ** 0.5 - 1.0) / (a * a * a + gain * b * b * b)
    return mu
