"""Comparison learners: Conservative-UCB, Safe-EXP3-IX, and trivial policies.

All learners expose the same interface as PrudentBanker:
  act(t) -> (distribution, arm)        with t 1-indexed,
  receive(events, t)                   called at the end of round t.

Each safe baseline decides inside `act`: Conservative-UCB passes the
0-indexed round t - 1 to `cucb_bounds` and budgets on the t plays so far,
the current one included.

Both safe baselines are a `SafeBaseline`, which checks their settings and
holds their point masses; it and `RunConfig` call `check_alpha_safe`, the one
statement of the alpha_safe rule.
"""
from __future__ import annotations

import math

import numpy as np

from .banker import BankerOMD
from .errors import ConfigError
from .mirror import Regularizer
from .protocol import FeedbackEvent
from .rng import check_count, check_integer


def check_alpha_safe(alpha_safe: float) -> None:
    """The safety-budget rule of the safe baselines: alpha_safe lies in [0, 1]."""
    if not (0.0 <= alpha_safe <= 1.0):  # NaN fails too
        raise ConfigError("alpha_safe must lie in [0, 1]")


class OneStage:
    """The stage read-outs of a learner without stages: stage 1, phase 1 and alpha = 1."""
    alpha = 1.0
    delay_estimate = 0
    restarts = ()


class SafeBaseline(OneStage):
    """A learner that falls back to a default arm of known mean reward r0.

    Arms and horizon are counts of at least 1, the default arm is one of the
    arms 0..A-1, and r0 and alpha_safe lie in [0, 1]; a subclass takes its
    own settings after r0 and before alpha_safe."""

    def __init__(self, arms: int, horizon: int, default_arm: int, r0: float,
                 alpha_safe: float = 0.1):
        check_count("arms", arms, 1)
        check_count("horizon", horizon, 1)
        check_integer("default_arm", default_arm)
        if not (0 <= default_arm < arms):
            raise ConfigError(f"default_arm must lie in 0..{arms - 1}, got {default_arm!r}")
        if not (0.0 <= r0 <= 1.0):  # NaN fails too
            raise ConfigError(f"r0 must lie in [0, 1], got {r0!r}")
        check_alpha_safe(alpha_safe)
        self.arms = arms
        self.default_arm = default_arm
        self.r0 = r0
        self.alpha_safe = alpha_safe
        # row `arm` is the point mass on arm: read-only, as every play shares it
        self.point_masses = np.eye(arms)
        self.point_masses.flags.writeable = False


def cucb_bounds(n: np.ndarray, mean: np.ndarray, t0: int, arms: int,
                delta_ucb: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-arm (LCB, UCB) reward bounds at 0-indexed round t0.

    c_i = sqrt(2 log(max{3, 2A(t0+1)^2 / delta_ucb}) / n_i), and the bounds
    mean_i - c_i and mean_i + c_i are clamped to [0, 1]. n[i] is arm i's
    count of observations floored at 1 and mean[i] its sum of rewards over
    n[i]: an unobserved arm (n = 1, mean = 0) has c >= sqrt(2 ln 3) > 1, so
    the clamps alone give it (0, 1). The default arm, whose mean r0 in
    [0, 1] is known, is held as an arm observed infinitely often (n = inf,
    mean = r0): its c is exactly 0 and the clamps return (r0, r0).
    """
    log_arg = max(3.0, 2.0 * arms * (t0 + 1) ** 2 / delta_ucb)
    c = np.sqrt(2.0 * math.log(log_arg) / n)
    lcb = mean - c
    np.maximum(0.0, lcb, out=lcb)
    ucb = mean + c
    np.minimum(1.0, ucb, out=ucb)
    return lcb, ucb


class ConservativeUCB(SafeBaseline):
    """Conservative-UCB with delayed observations.

    At round t, `act` takes the candidate of highest UCB from `cucb_bounds`
    at t - 1 (ties to the lowest index) and plays it only if the pessimistic
    budget, the LCBs of the past plays and of the candidate, reaches
    (1 - alpha_safe) t r0; otherwise it falls back to the default arm, whose
    mean reward r0 is known.

    `receive` keeps the operands of `cucb_bounds` current: n_obs and sums
    count each arm's observations and rewards, and for the arm of each
    arriving event other than the default arm it refreshes n =
    max(n_obs, 1) and mean = sums / n, the same operations on the same
    operands as over the whole arrays, so the bounds keep their bits. The
    default arm's mean r0 is known, as if it had been observed infinitely
    often: its n is inf and its mean r0 from the start, so `cucb_bounds`
    gives it (r0, r0) with no per-round store and no feedback changes them.
    """

    def __init__(self, arms: int, horizon: int, default_arm: int, r0: float,
                 alpha_safe: float = 0.1):
        super().__init__(arms, horizon, default_arm, r0, alpha_safe)
        self.delta_ucb = 1.0 / max(horizon, 2)
        # float64 counts are exact, and the bounds and the dot then cast nothing
        self.n_obs = np.zeros(arms)
        self.sums = np.zeros(arms)
        self.n_play = np.zeros(arms)
        self.n = np.ones(arms)
        self.mean = np.zeros(arms)
        self.n[default_arm] = math.inf
        self.mean[default_arm] = r0

    def act(self, t: int) -> tuple[np.ndarray, int]:
        lcb, ucb = cucb_bounds(self.n, self.mean, t - 1, self.arms, self.delta_ucb)
        arm = int(ucb.argmax())  # ties to lowest index
        budget = float(self.n_play.dot(lcb)) + lcb.item(arm)
        if not budget >= (1.0 - self.alpha_safe) * t * self.r0:  # NaN falls back too
            arm = self.default_arm
        self.n_play[arm] += 1
        return self.point_masses[arm], arm

    def receive(self, events: list[FeedbackEvent], t: int) -> None:
        n_obs, sums = self.n_obs, self.sums
        for ev in events:
            arm = ev.arm
            n_obs[arm] += 1
            sums[arm] += 1.0 - ev.loss_value
            if arm != self.default_arm:
                # n_obs[arm] >= 1 now, so it is max(n_obs[arm], 1)
                n = self.n[arm] = n_obs[arm]
                self.mean[arm] = sums[arm] / n


def exp3ix_rate(arms: int, horizon: int) -> float:
    """eta = min{1/2, sqrt(log A / (A T))}; the IX bias is gamma = eta/2."""
    check_count("arms", arms, 1)
    check_count("horizon", horizon, 1)
    return min(0.5, math.sqrt(math.log(arms) / (arms * horizon)))


class SafeExp3IX(SafeBaseline):
    """EXP3-IX behind a conservative budget gate.

    Default-arm plays are credited at the known mean r0 immediately;
    non-default rewards are credited only when their delayed feedback
    arrives (pessimistic credit of 0 while in flight). At round t, `act`
    plays the default arm when the credited budget falls short of
    (1 - alpha_safe) r0 t, and otherwise the EXP3-IX distribution: the
    exponentials of the log-weights shifted by their max, over their sum.
    """

    def __init__(self, arms: int, horizon: int, default_arm: int, r0: float,
                 sampler, alpha_safe: float = 0.1):
        super().__init__(arms, horizon, default_arm, r0, alpha_safe)
        self.sampler = sampler
        self.eta = exp3ix_rate(arms, horizon)
        self.gamma = self.eta / 2.0
        self.log_w = np.zeros(arms)
        self.budget = 0.0
        self._q_played: dict[int, float] = {}

    def act(self, t: int) -> tuple[np.ndarray, int]:
        required = (1.0 - self.alpha_safe) * self.r0 * t
        if self.budget >= required:
            log_w = self.log_w
            q = np.exp(log_w - log_w.item(log_w.argmax()))
            q /= np.add.reduce(q)
            arm = self.sampler.draw(q)
            self._q_played[t] = q.item(arm)
            return q, arm
        self.budget += self.r0
        return self.point_masses[self.default_arm], self.default_arm

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
