"""Comparison learners: Conservative-UCB, Safe-EXP3-IX, and trivial policies.

All learners expose the same interface as PrudentBanker:
  act(t) -> (distribution, arm)        with t 1-indexed,
  receive(events, t)                   called at the end of round t.

Internally the confidence/budget formulas use the 0-indexed round count
(t0 = t - 1), matching the convention "(t+1) plays so far including the
current one".

Both safe baselines and `RunConfig` call `check_alpha_safe`, the one statement
of the alpha_safe rule.
"""
from __future__ import annotations

import math

import numpy as np

from .banker import BankerOMD
from .errors import ConfigError
from .mirror import Regularizer
from .protocol import FeedbackEvent


def check_alpha_safe(alpha_safe: float) -> None:
    """The safety-budget rule of the safe baselines: alpha_safe lies in [0, 1]."""
    if not (0.0 <= alpha_safe <= 1.0):  # NaN fails too
        raise ConfigError("alpha_safe must lie in [0, 1]")


class OneStage:
    """The stage read-outs of a learner without stages: stage 1, phase 1 and alpha = 1."""
    alpha = 1.0
    delay_estimate = 0
    restarts = ()


def cucb_bounds(n_obs: np.ndarray, sums: np.ndarray, t0: int, arms: int,
                delta_ucb: float, default_arm: int, r0: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-arm (LCB, UCB) reward bounds at 0-indexed round t0.

    c_i = sqrt(2 log(max{3, 2A(t0+1)^2 / delta_ucb}) / N_i_obs), clamped to
    [0, 1]; unobserved arms get (0, 1); the default arm's interval is
    collapsed to its known mean (r0, r0). sums[i], a sum of rewards in
    [0, 1], lies in [0, n_obs[i]].
    """
    log_arg = max(3.0, 2.0 * arms * (t0 + 1) ** 2 / delta_ucb)
    # Whole-array ops: an observed arm's entries are the same IEEE operations on
    # the same operands as on its own, so the same bits. An unobserved arm,
    # taken at n = 1 with a zero sum, has c >= sqrt(2 ln 3) > 1, so the clamps
    # alone give it (0, 1).
    n = np.maximum(n_obs, 1.0)
    c = np.sqrt(2.0 * math.log(log_arg) / n)
    mean = sums / n
    lcb = mean - c
    np.maximum(0.0, lcb, out=lcb)
    ucb = mean + c
    np.minimum(1.0, ucb, out=ucb)
    lcb[default_arm] = r0
    ucb[default_arm] = r0
    return lcb, ucb


class ConservativeUCB(OneStage):
    """Conservative-UCB with delayed observations.

    Plays the UCB-optimistic candidate only if a pessimistic budget check
    certifies the safety constraint; otherwise falls back to the default arm
    whose mean reward r0 is known.
    """

    def __init__(self, arms: int, default_arm: int, r0: float, horizon: int,
                 alpha_safe: float = 0.1):
        check_alpha_safe(alpha_safe)
        self.arms = arms
        self.default_arm = default_arm
        self.r0 = r0
        self.alpha_safe = alpha_safe
        self.delta_ucb = 1.0 / max(horizon, 2)
        # float64 counts are exact, and the bounds and the dot then cast nothing
        self.n_obs = np.zeros(arms)
        self.sums = np.zeros(arms)
        self.n_play = np.zeros(arms)

    def bounds(self, t0: int) -> tuple[np.ndarray, np.ndarray]:
        return cucb_bounds(self.n_obs, self.sums, t0, self.arms,
                           self.delta_ucb, self.default_arm, self.r0)

    def choose(self, t0: int) -> int:
        lcb, ucb = self.bounds(t0)
        candidate = int(ucb.argmax())  # ties to lowest index
        budget = float(self.n_play.dot(lcb)) + lcb.item(candidate)
        required = (1.0 - self.alpha_safe) * (t0 + 1) * self.r0
        if budget >= required:
            return candidate
        return self.default_arm

    def act(self, t: int) -> tuple[np.ndarray, int]:
        arm = self.choose(t - 1)
        self.n_play[arm] += 1
        dist = np.zeros(self.arms)
        dist[arm] = 1.0
        return dist, arm

    def receive(self, events: list[FeedbackEvent], t: int) -> None:
        for ev in events:
            self.n_obs[ev.arm] += 1
            self.sums[ev.arm] += 1.0 - ev.loss_value


def exp3ix_rate(arms: int, horizon: int) -> float:
    """eta = min{1/2, sqrt(log A / (A T))}; the IX bias is gamma = eta/2."""
    return min(0.5, math.sqrt(math.log(arms) / (arms * horizon)))


class SafeExp3IX(OneStage):
    """EXP3-IX behind a conservative budget gate.

    Default-arm plays are credited at the known mean r0 immediately;
    non-default rewards are credited only when their delayed feedback
    arrives (pessimistic credit of 0 while in flight). When the credited
    budget falls short of (1 - alpha_safe) r0 (t+1), the default arm is
    played instead of the base learner.
    """

    def __init__(self, arms: int, horizon: int, default_arm: int, r0: float,
                 sampler, alpha_safe: float = 0.1):
        check_alpha_safe(alpha_safe)
        self.arms = arms
        self.default_arm = default_arm
        self.r0 = r0
        self.alpha_safe = alpha_safe
        self.sampler = sampler
        self.eta = exp3ix_rate(arms, horizon)
        self.gamma = self.eta / 2.0
        self.log_w = np.zeros(arms)
        self.budget = 0.0
        self._q_played: dict[int, float] = {}

    def distribution(self) -> np.ndarray:
        shifted = self.log_w - self.log_w.item(self.log_w.argmax())
        w = np.exp(shifted)
        return w / np.add.reduce(w)

    def act(self, t: int) -> tuple[np.ndarray, int]:
        required = (1.0 - self.alpha_safe) * self.r0 * t
        if self.budget >= required:
            q = self.distribution()
            arm = self.sampler.draw(q)
            self._q_played[t] = q.item(arm)
            return q, arm
        self.budget += self.r0
        dist = np.zeros(self.arms)
        dist[self.default_arm] = 1.0
        return dist, self.default_arm

    def receive(self, events: list[FeedbackEvent], t: int) -> None:
        for ev in events:
            q = self._q_played.pop(ev.origin_round, None)
            if q is None:
                continue  # default-arm round: credited at play time, no update
            est = ev.loss_value / (q + self.gamma)
            self.log_w[ev.arm] -= self.eta * est
            self.budget += 1.0 - ev.loss_value


class BankerOMDLearner(OneStage):
    """Unconstrained Banker-OMD (ablation): no comparator, no restarts."""

    def __init__(self, reg: Regularizer, sampler):
        self.sampler = sampler
        self.base = BankerOMD(reg)

    def act(self, t: int) -> tuple[np.ndarray, int]:
        x = self.base.begin_round(t)
        arm = self.sampler.draw(x)
        self.base.commit(t, x, arm)
        return x, arm

    def receive(self, events: list[FeedbackEvent], t: int) -> None:
        for ev in events:
            self.base.ingest(ev)


class PlayDistribution(OneStage):
    """Plays a fixed distribution every round (comparator or point mass)."""

    def __init__(self, dist: np.ndarray, sampler):
        self.dist = np.asarray(dist, dtype=float)
        self.sampler = sampler

    def act(self, t: int) -> tuple[np.ndarray, int]:
        return self.dist, self.sampler.draw(self.dist)

    def receive(self, events: list[FeedbackEvent], t: int) -> None:
        pass
