"""Prudent-Banker: safe phased-aggression wrapper around Banker-OMD.

Three control layers sit on top of the base learner:

* delay stages — a doubling estimate D-hat of the total delay; when the
  realized (arrived) delay of the current stage exceeds it, a *hard restart*
  doubles the estimate up to a power of two and resets everything;
* aggression phases — the played point is alpha * x-hat + (1 - alpha) * x^c;
  alpha doubles (a *soft restart*) only when the arrived-feedback gap
  statistic certifies that the safe comparator x^c is suboptimal;
* the safe mixture itself, which keeps every played probability at least
  (1 - alpha) * delta and thereby bounds importance weights.

One rule, `_enter`, sets D-hat, alpha and B(D-hat) for every phase, the first
included. The restart log is the only stage count, and `PrudentBanker` takes
its regularizer from the `ThresholdFunctions` it is given.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .banker import BankerOMD
from .errors import ConfigError
from .mirror import Regularizer
from .protocol import FeedbackEvent
from .rng import check_count, check_integer


def _check_delay(D: int | float) -> None:
    if not D >= 0:  # NaN fails too
        raise ConfigError("D must be nonnegative")


@dataclass(frozen=True)
class ThresholdFunctions:
    """Restart thresholds R-hat, xi-hat and their sum B as functions of D.

    C1, C2 and delta come from `reg`. `scale` multiplies both components; 1.0 is
    the analysis value. The theoretical constants are very conservative, so
    qualitative experiment reproductions run with a smaller calibration: see
    "Threshold calibration" in the README and the CLI's --threshold-scale.
    """

    reg: Regularizer
    horizon: int
    scale: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.scale < math.inf):  # NaN fails too
            raise ConfigError("threshold_scale must be positive and finite")
        check_count("horizon", self.horizon, 1)

    def rhat(self, D: int | float) -> float:
        """R-hat(D) = sqrt(C1 C2) * (3 sqrt(T) + 7 sqrt(2 D ln(D+1)))."""
        _check_delay(D)
        term = 0.0
        if D > 0:
            term = 7.0 * math.sqrt(2.0 * D * math.log(D + 1.0))
        c1, c2 = self.reg.constants
        return self.scale * math.sqrt(c1 * c2) * (3.0 * math.sqrt(self.horizon) + term)

    def xi(self, D: int | float) -> float:
        """xi-hat(D) = (sqrt(8D + 1) - 1) / delta."""
        _check_delay(D)
        return self.scale * (math.sqrt(8.0 * D + 1.0) - 1.0) / self.reg.delta

    def restart_threshold(self, D: int | float) -> float:
        """B(D) = 2 R-hat(D) + xi-hat(D)."""
        return 2.0 * self.rhat(D) + self.xi(D)


def gap_statistic(g: np.ndarray, xc: np.ndarray) -> float:
    """max over the simplex of <g, x^c - x> = <g, x^c> - min_a g(a).

    The maximum is attained at a vertex; ties go to the lowest arm index
    (irrelevant for the value, fixed for determinism of the argmin).
    """
    g = np.asarray(g, dtype=float)
    return float(g.dot(xc) - g.item(g.argmin()))


def build_comparator(arms: int, delta: float, anchor: int) -> np.ndarray:
    """Full-support comparator: 1-(A-1)delta on the anchor arm, delta elsewhere."""
    check_count("arms", arms, 1)
    if not (0.0 < delta <= 1.0 / arms):
        raise ConfigError("delta must lie in (0, 1/arms]")
    check_integer("anchor", anchor)
    if not (0 <= anchor < arms):
        raise ConfigError("anchor arm out of range")
    xc = np.full(arms, delta)
    xc[anchor] = 1.0 - (arms - 1) * delta
    return xc


def next_delay_estimate(trigger: int) -> int:
    """Doubling rule 2^ceil(log2(trigger)) computed exactly in integers."""
    check_count("trigger", trigger, 1)
    return 1 << (operator.index(trigger) - 1).bit_length()


@dataclass
class RestartRecord:
    round: int
    kind: str  # "hard" | "soft"
    trigger: float  # stage delay (hard) or gap value (soft)
    old_estimate: int
    new_estimate: int
    new_phase: int
    new_alpha: float


def restart_segments(restarts: list[RestartRecord], alpha0: float,
                     rows: int) -> list[tuple[int, int, int, float]]:
    """The phases that rows 0..rows - 1 play, in order, as (first row, stage, phase, alpha).

    Row t - 1 is round t. A hard restart happens in act(t), so its phase
    starts at row t - 1; a soft one in receive(t), so at row t. A phase that
    the next restart replaces before its first row is left out, as is one
    that would start at row `rows`. alpha0 is the alpha before the game.
    """
    segments, stage = [(0, 1, 1, alpha0)], 1
    for r in restarts:
        stage += r.kind == "hard"
        first = r.round - (r.kind == "hard")
        if segments[-1][0] == first:  # replaced before its first row
            segments.pop()
        segments.append((first, stage, r.new_phase, r.new_alpha))
    return [s for s in segments if s[0] < rows]


class PrudentBanker:
    """The full learner; exposes the standard act/receive interface."""

    def __init__(self, thresholds: ThresholdFunctions, comparator: np.ndarray, sampler):
        self.tf, self.reg = thresholds, thresholds.reg  # the thresholds' regularizer
        comparator = np.asarray(comparator, dtype=float)
        if comparator.shape != (self.reg.arms,):
            raise ConfigError("comparator dimension mismatch")
        if not comparator.min() >= self.reg.delta - 1e-12:  # NaN fails too
            raise ConfigError("comparator must have every coordinate >= delta")
        if abs(comparator.sum() - 1.0) > 1e-9:
            raise ConfigError("comparator must sum to 1")
        self.xc = comparator
        self.sampler = sampler

        self.base = BankerOMD(self.reg)
        self.stage_start = 1
        self.stage_delay = 0  # realized delay of arrived feedback, current stage
        self.restarts: list[RestartRecord] = []
        self._safe_alpha = self._safe_part = None  # see _mix
        self._enter(1, 1)

    # -- round loop ---------------------------------------------------------

    def act(self, t: int) -> tuple[np.ndarray, int]:
        if self.stage_delay > self.delay_estimate:  # hard restart
            trigger = self.stage_delay
            self._restart(t, "hard", float(trigger), next_delay_estimate(trigger), 1)
            self.stage_start, self.stage_delay = t + 1, 0
            # The restart round still plays the mixture, anchored at the reset
            # base point; it is not part of the new stage's ledger.
            x = self._mix(self.reg.x0)
            return x, self.sampler.draw(x)
        x = self._mix(self.base.begin_round(t))
        arm = self.sampler.draw(x)
        self.base.commit(t, x, arm)
        return x, arm

    def receive(self, events: list[FeedbackEvent], t: int) -> None:
        for ev in events:
            if ev.origin_round >= self.stage_start:
                self.stage_delay += ev.delay
            self.base.ingest(ev)
        if self.alpha >= 1.0:
            return
        # soft restart when the gap of this phase's loss sums exceeds B(D-hat)
        gap = gap_statistic(self.base.g.total, self.xc)
        if gap <= self.threshold:
            return
        self._restart(t, "soft", gap, self.delay_estimate, self.phase + 1)

    def _mix(self, xhat: np.ndarray) -> np.ndarray:
        """alpha * xhat + (1 - alpha) * x^c, formed in place on the fresh array xhat.

        (1 - alpha) * x^c is kept with the alpha it was built from, so it is
        rebuilt only when alpha changes, whoever changes it.
        """
        alpha = self.alpha
        if alpha != self._safe_alpha:
            self._safe_alpha, self._safe_part = alpha, (1.0 - alpha) * self.xc
        xhat *= alpha
        xhat += self._safe_part
        return xhat

    # -- restarts -----------------------------------------------------------

    def _enter(self, estimate: int, phase: int) -> None:
        """Enter `phase` under D-hat = `estimate`: alpha = min(2^(phase-1) / R-hat, 1)."""
        self.delay_estimate = estimate
        self.phase = phase
        self.alpha = min(2.0 ** (phase - 1) / self.tf.rhat(estimate), 1.0)
        self.threshold = self.tf.restart_threshold(estimate)  # B(D-hat)

    def _restart(self, t: int, kind: str, trigger: float, estimate: int, phase: int) -> None:
        """Log the restart and start `phase` at round t + 1 under `estimate`."""
        old_estimate = self.delay_estimate
        self._enter(estimate, phase)
        self.restarts.append(RestartRecord(
            round=t, kind=kind, trigger=trigger, old_estimate=old_estimate,
            new_estimate=estimate, new_phase=phase, new_alpha=self.alpha))
        self.base.reset(t + 1)
