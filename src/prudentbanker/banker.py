"""Banker-OMD: delayed online mirror descent with step-size credits.

Every round t is granted a credit v_t = sigma_t that it can donate to later
rounds once its own feedback has arrived. A round's prediction is a dual-space
convex combination of the post-update points z_u of the donors it drained,
topped up by a "borrow" b_t from the uniform base point when arrived credits
run short.
`Kahan` is the package's one compensated-sum helper. The ledger's only
run-lifetime diagnostics, the conservation residual and the minimum credit,
are read by `verify` and the benchmark.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ProtocolError
from .mirror import GRAD_FLOOR, Regularizer, grad_psi, grad_psi_star_with_dual
from .protocol import FeedbackEvent


class Kahan:
    """Compensated running sums, entry by entry, over a float array of `shape`."""

    __slots__ = ("total", "_c")

    def __init__(self, shape):
        self.total = np.zeros(shape)
        self._c = np.zeros(shape)

    def add(self, x: float, at) -> None:
        # on Python floats: the same IEEE operations as on numpy scalars, at less cost
        total, c = self.total, self._c
        s = total.item(at)
        y = x - c.item(at)
        t = s + y
        c[at] = (t - s) - y
        total[at] = t


@dataclass(slots=True)
class RoundRecord:
    sigma: float
    v: float
    x: np.ndarray  # played distribution
    arm: int
    dual_z: np.ndarray | None = None  # dual of the post-update point, set on arrival


def step_size(reg: Regularizer, t: int, phase_start: int, d_t: int, DD_t: int) -> float:
    """Delay-adaptive step size for round t of a phase starting at phase_start.

    sigma_t = sqrt(C2/C1) / ( 1/sqrt(t~) + d_t * sqrt(ln(DD_t+1)/DD_t) )

    with t~ the within-phase round index; the delay term is zero when no
    feedback is outstanding.
    """
    if t < phase_start:
        raise ProtocolError("t must be >= phase_start")
    c1, c2 = reg.constants
    tt = t - phase_start + 1
    denom = 1.0 / math.sqrt(tt)
    if d_t > 0 and DD_t > 0:
        denom += d_t * math.sqrt(math.log(DD_t + 1.0) / DD_t)
    return math.sqrt(c2 / c1) / denom


class BankerOMD:
    """One phase-scoped Banker-OMD learner over a ledger of round records.

    The ledger covers only rounds >= phase_start; `reset` starts a fresh phase
    (feedback for earlier rounds is dropped on arrival). A round is outstanding
    exactly when it is in `missing`; `begin_round` deletes an arrived record
    once its credit is spent. `g` holds the phase's compensated per-arm sums of
    the importance-weighted losses that `ingest` applied.
    """

    def __init__(self, reg: Regularizer):
        if reg.arms < 2:  # the step size divides by C1, which is 0 on one arm
            raise ConfigError("Banker-OMD needs at least 2 arms")
        self.reg = reg
        self._dual_x0 = grad_psi(reg, reg.x0)
        # run-lifetime diagnostics (survive phase resets)
        self.max_conservation_residual = 0.0
        self.min_credit_seen = 0.0
        self.reset(1)

    def reset(self, phase_start: int) -> None:
        self.phase_start = phase_start
        self.records: dict[int, RoundRecord] = {}
        self._credit_heap: list[int] = []
        self.missing: set[int] = set()
        self.outstanding_sum = 0  # running sum of per-round outstanding counts
        self.g = Kahan(self.reg.arms)
        self._pending: tuple[int, float] | None = None

    # -- per-round flow -----------------------------------------------------

    def begin_round(self, t: int) -> np.ndarray:
        """Compute sigma_t, drain credits, and return the prediction x-hat_t."""
        d_t = len(self.missing)
        self.outstanding_sum += d_t
        sigma = step_size(self.reg, t, self.phase_start, d_t, self.outstanding_sum)

        allocation, b = self._allocate(t, sigma)
        # theta starts from the first donor's term. The borrow term, if any,
        # is one scalar added to it: grad Psi(x0) has one value in every
        # coordinate and addition commutes, so the bits are those of the borrow
        # vector plus that term. A zero borrow term would change no bit, as no
        # stored dual entry is -0.0 (ingest's theta has none, so neither has
        # its conjugate's dual).
        theta = None
        for u, amount in allocation:
            rec = self.records[u]
            if theta is None:
                theta = (amount / sigma) * rec.dual_z
                if b > 0.0:
                    theta += (b / sigma) * self._dual_x0.item(0)
            else:
                theta += (amount / sigma) * rec.dual_z
            if rec.v <= 0.0:
                del self.records[u]
        if theta is None:  # no arrived credit: the borrow alone
            theta = (b / sigma) * self._dual_x0
        xhat, _ = grad_psi_star_with_dual(self.reg, theta)

        self._pending = (t, sigma)
        return xhat

    def commit(self, t: int, played: np.ndarray, arm: int) -> None:
        """Record the distribution actually played at round t (post-mixture)."""
        if self._pending is None or self._pending[0] != t:
            raise ProtocolError("commit without a matching begin_round")
        _, sigma = self._pending
        self._pending = None
        self.records[t] = RoundRecord(sigma=sigma, v=sigma, x=np.asarray(played, float), arm=arm)
        self.missing.add(t)

    def ingest(self, event: FeedbackEvent) -> float | None:
        """Apply arrived feedback; returns the importance weight, or None if dropped.

        Feedback for rounds before the current phase start (orphaned by a
        restart) is discarded without effect; feedback for any other round that
        is not outstanding (never committed, or already arrived) is an error.
        """
        u = event.origin_round
        if u < self.phase_start:
            return None
        if u not in self.missing:
            raise ProtocolError(f"feedback for round {u}, which is not outstanding")
        rec = self.records[u]
        if rec.arm != event.arm:
            raise ProtocolError(f"feedback arm mismatch at round {u}")
        x_at_arm = rec.x.item(event.arm)
        if x_at_arm <= 0.0:
            raise ProtocolError(f"played probability 0 at round {u}, arm {event.arm}")
        w = event.loss_value / x_at_arm
        x = rec.x
        if not x.item(x.argmin()) >= GRAD_FLOOR:  # NaN too: grad_psi rejects it
            x = np.maximum(x, GRAD_FLOOR)
        theta = grad_psi(self.reg, x)
        theta[event.arm] -= w / rec.sigma
        _, rec.dual_z = grad_psi_star_with_dual(self.reg, theta, primal=False)
        self.missing.remove(u)
        heapq.heappush(self._credit_heap, u)
        self.g.add(w, event.arm)
        return w

    # -- internals ----------------------------------------------------------

    def _allocate(self, t: int, sigma: float) -> tuple[list[tuple[int, float]], float]:
        """Greedily drain arrived credits in increasing round order."""
        b = sigma
        allocation: list[tuple[int, float]] = []
        while b > 0.0 and self._credit_heap:
            u = heapq.heappop(self._credit_heap)
            rec = self.records[u]
            amount = min(rec.v, b)
            rec.v -= amount
            b -= amount
            allocation.append((u, amount))
            self.min_credit_seen = min(self.min_credit_seen, rec.v)
            if rec.v > 0.0:
                heapq.heappush(self._credit_heap, u)
                break  # b is exhausted
        residual = abs(math.fsum(a for _, a in allocation) + b - sigma)
        self.max_conservation_residual = max(self.max_conservation_residual, residual)
        return allocation, b

