"""The delayed adversarial bandit game.

Loss tables are generated obliviously (before any learner acts) and never
mutated. Feedback for the action of round t becomes visible at the end of
round t + d_t and is first usable for the decision at round t + d_t + 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ProtocolError

DELAY_MODELS = ("none", "fixed-one-step", "geometric", "lomax")


@dataclass(frozen=True)
class LossTable:
    """Full horizon-by-arms loss matrix with entries in [0, 1]."""

    losses: np.ndarray

    def __post_init__(self):
        losses = np.asarray(self.losses, dtype=float)
        if losses.ndim != 2:
            raise ConfigError(f"loss matrix must be 2-D, got shape {losses.shape}")
        if losses.size and not (0.0 <= losses.min() and losses.max() <= 1.0):  # NaN fails too
            raise ConfigError("loss entries must lie in [0, 1]")
        object.__setattr__(self, "losses", losses)

    @property
    def horizon(self) -> int:
        return len(self.losses)


@dataclass(frozen=True)
class DelaySequence:
    """Per-round nonnegative integer delays d_t."""

    delays: np.ndarray

    def __post_init__(self):
        delays = np.asarray(self.delays)
        if delays.size and not np.issubdtype(delays.dtype, np.integer):
            raise ConfigError("delays must be integers")
        delays = delays.astype(np.int64)
        if delays.size and delays.min() < 0:
            raise ConfigError("delays must be nonnegative")
        object.__setattr__(self, "delays", delays)

    def __len__(self) -> int:
        return len(self.delays)

    def delay(self, t: int) -> int:
        """Delay of 1-indexed round t."""
        return int(self.delays[t - 1])

    @property
    def total(self) -> int:
        """Total delay D, computed in exact integer arithmetic."""
        return int(np.sum(self.delays, dtype=object)) if len(self.delays) else 0


class _FeedbackFields(NamedTuple):
    origin_round: int
    arm: int
    loss_value: float
    arrival_round: int


class FeedbackEvent(_FeedbackFields):
    """The pair (arm, loss) generated at origin_round, visible at arrival_round.

    An immutable tuple record: one is built in every round of a game, and a
    tuple builds in about half the time of a frozen dataclass.
    """

    __slots__ = ()

    def __new__(cls, origin_round: int, arm: int, loss_value: float, arrival_round: int):
        if arrival_round < origin_round:
            raise ProtocolError("feedback cannot arrive before it is generated")
        return tuple.__new__(cls, (origin_round, arm, loss_value, arrival_round))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # _replace builds through here, so it validates too

    @property
    def delay(self) -> int:
        return self.arrival_round - self.origin_round


#: the delay models' constants: activation probability of a delayed round,
#: Geom(Q_GEO) delays on {1, 2, ...}, and the Lomax shape and scale
P_ACTIVE, Q_GEO, LOMAX_SHAPE, LOMAX_SCALE = 0.03, 0.4, 2.5, 1.0


@dataclass
class EnvironmentConfig:
    horizon: int = 20000
    arms: int = 10
    blocks: int = 100
    delay_model: str = "none"
    seed: int = 0

    def validate(self) -> None:
        if self.horizon < 1:
            raise ConfigError("horizon must be positive")
        if self.arms < 1:
            raise ConfigError("arms must be positive")
        if self.blocks < 1 or self.blocks > self.horizon:
            raise ConfigError("need 1 <= blocks <= horizon")
        if self.delay_model not in DELAY_MODELS:
            raise ConfigError(f"unknown delay model {self.delay_model!r}")


def generate_block_losses(config: EnvironmentConfig, rng: np.random.Generator) -> LossTable:
    """Block-nonstationary losses: per (arm, block) truncated-normal draws.

    Each arm/block pair gets a mean ~ Unif(0,1) and a stddev ~ Unif(0.1,0.2);
    per-round losses are normal draws truncated to [0, 1] (rejection sampling
    with at most 100 attempts, then clamping the stragglers). Block b holds
    rows [b w, (b + 1) w) with w = floor(T/B) + 1; B w > T, so the last blocks
    may be short or empty.
    """
    config.validate()
    T, A, B = config.horizon, config.arms, config.blocks
    means = rng.uniform(0.0, 1.0, size=(A, B))
    sds = rng.uniform(0.1, 0.2, size=(A, B))
    width = T // B + 1

    losses = np.empty((T, A))
    for b, start in enumerate(range(0, T, width)):
        rows = losses[start:start + width]
        rows[:] = rng.normal(means[:, b], sds[:, b], size=rows.shape)
    # out-of-range entries in row-major order, the order of the redraws
    r, a = np.nonzero((losses < 0.0) | (losses > 1.0))
    for _ in range(100):
        if not len(r):
            break
        redraw = rng.normal(means[a, r // width], sds[a, r // width])
        losses[r, a] = redraw
        out = (redraw < 0.0) | (redraw > 1.0)
        r, a = r[out], a[out]
    if len(r):
        np.clip(losses, 0.0, 1.0, out=losses)
    return LossTable(losses)


def sample_delays(config: EnvironmentConfig, rng: np.random.Generator) -> DelaySequence:
    """Draw a delay sequence from the configured model."""
    config.validate()
    T = config.horizon
    model = config.delay_model
    if model == "none":
        return DelaySequence(delays=np.zeros(T, dtype=np.int64))
    # one activation draw for every delayed model; fixed-one-step stops here
    active = rng.random(T) < P_ACTIVE
    d = active.astype(np.int64)
    if model == "geometric":
        # Geom(q) on {1, 2, ...}
        d[active] = rng.geometric(Q_GEO, size=int(active.sum()))
    elif model == "lomax":
        u = rng.random(int(active.sum()))
        # inverse CDF of Lomax(shape, scale): z = scale * ((1-u)^(-1/shape) - 1)
        z = LOMAX_SCALE * ((1.0 - u) ** (-1.0 / LOMAX_SHAPE) - 1.0)
        d[active] = 1 + np.floor(z).astype(np.int64)
    return DelaySequence(delays=d)


class FeedbackQueue:
    """Delivers feedback events at their arrival rounds, exactly once each.

    Events whose arrival round lies beyond the horizon are discarded at
    enqueue time (the game ends at T; late feedback is never observed).
    Within a round, events are delivered in origin-round order.
    """

    def __init__(self, horizon: int):
        self.horizon = horizon
        self._pending: dict[int, list[FeedbackEvent]] = {}
        self._cursor = 0  # last round already stepped

    def enqueue(self, event: FeedbackEvent) -> None:
        if event.arrival_round <= self._cursor:
            raise ProtocolError(
                f"event for round {event.origin_round} arrives at already-queried "
                f"round {event.arrival_round}"
            )
        if event.arrival_round > self.horizon:
            return
        self._pending.setdefault(event.arrival_round, []).append(event)

    def step(self, t: int) -> list[FeedbackEvent]:
        """Return the events arriving at the end of round t (in origin order)."""
        if t != self._cursor + 1:
            raise ProtocolError(f"queue stepped out of order: expected {self._cursor + 1}, got {t}")
        self._cursor = t
        events = self._pending.pop(t, [])
        if len(events) > 1:
            events.sort(key=lambda e: e.origin_round)
        return events


def outstanding_counters(delays: DelaySequence, phase_start: int, t: int) -> tuple[int, int]:
    """Outstanding-feedback count and its running sum over a phase window.

    The first component counts rounds tau in [phase_start, t-1] whose feedback
    is still missing at the start of round t (tau + d_tau >= t). The second is
    the running sum of those counts for r = phase_start..t.
    """
    if phase_start > t:
        raise ConfigError("phase_start must be <= t")
    d = delays.delays
    running = 0
    latest = 0
    for r in range(phase_start, t + 1):
        taus = np.arange(phase_start, r)
        latest = int(np.sum(taus + d[taus - 1] >= r)) if len(taus) else 0
        running += latest
    return latest, running
