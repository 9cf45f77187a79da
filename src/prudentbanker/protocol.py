"""The delayed adversarial bandit game.

Loss tables are generated obliviously (before any learner acts) and never
mutated. Feedback for the action of round t becomes visible at the end of
round t + d_t and is first usable for the decision at round t + d_t + 1.
The three delayed models share one activation draw, so one seed delays the
same rounds under each.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ProtocolError
from .rng import check_count, check_seed

DELAY_MODELS = ("none", "fixed-one-step", "geometric", "lomax")
# table entries scanned, or redrawn, at a time when rejecting out-of-range losses
REDRAW_CHUNK = 1 << 14


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
    """Per-round nonnegative integer delays d_t, as a 1-D array."""

    delays: np.ndarray

    def __post_init__(self):
        delays = np.asarray(self.delays)
        if delays.ndim != 1:
            raise ConfigError(f"delays must be 1-D, got shape {delays.shape}")
        if delays.size and not np.issubdtype(delays.dtype, np.integer):
            raise ConfigError("delays must be integers")
        delays = delays.astype(np.int64)
        if delays.size and delays.min() < 0:
            raise ConfigError("delays must be nonnegative")
        object.__setattr__(self, "delays", delays)

    def __len__(self) -> int:
        return len(self.delays)

    @property
    def total(self) -> int:
        """Total delay D, computed in exact integer arithmetic."""
        return int(np.sum(self.delays, dtype=object))


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


@dataclass(frozen=True)
class EnvironmentConfig:
    """The settings of one environment, checked when built and immutable."""

    horizon: int = 20000
    arms: int = 10
    blocks: int = 100
    delay_model: str = "none"
    seed: int = 0

    def __post_init__(self):
        for name in ("horizon", "arms", "blocks"):
            check_count(name, getattr(self, name), 1)
        if self.blocks > self.horizon:
            raise ConfigError("need 1 <= blocks <= horizon")
        if self.delay_model not in DELAY_MODELS:
            raise ConfigError(f"unknown delay model {self.delay_model!r}")
        check_seed(self.seed)


def generate_block_losses(config: EnvironmentConfig, rng: np.random.Generator) -> LossTable:
    """Block-nonstationary losses: per (arm, block) truncated-normal draws.

    Each arm/block pair gets a mean ~ Unif(0,1) and a stddev ~ Unif(0.1,0.2);
    per-round losses are normal draws truncated to [0, 1] (rejection sampling
    with at most 100 attempts, then clamping the whole table if any entry is
    still out of range). Each draw is a standard normal z, scaled and shifted
    in place as z * sd + mean: the same stream, one z per entry in C order,
    and the same bits as ``rng.normal(mean, sd)``, which computes
    mean + sd * z. Block b holds rows [b w, (b + 1) w) with
    w = floor(T/B) + 1; B w > T, so the last blocks may be short or empty.

    Redraws go pass by pass, each pass in row-major order over the entries
    still out of range. Every pass works through REDRAW_CHUNK entries at a
    time, so no mask or index array the size of the table is ever built.
    """
    T, A, B = config.horizon, config.arms, config.blocks
    means = rng.uniform(0.0, 1.0, size=(A, B))
    sds = rng.uniform(0.1, 0.2, size=(A, B))
    width = T // B + 1

    losses = np.empty((T, A))
    for b, start in enumerate(range(0, T, width)):
        rows = losses[start:start + width]
        rng.standard_normal(out=rows)
        rows *= sds[:, b]
        rows += means[:, b]

    flat = losses.reshape(-1)  # a view

    def redraw(i):
        """Redraw flat entries i; return those still out of range."""
        row = i // A
        k = (i - row * A) * B + row // width  # flat index of (arm, block) in means
        x = rng.standard_normal(len(i))
        x *= sds.take(k)
        x += means.take(k)
        flat[i] = x
        return i[_outside(x)]

    # attempt 1 scans the table itself, one chunk at a time
    todo = (np.flatnonzero(_outside(flat[k:k + REDRAW_CHUNK])) + k
            for k in range(0, flat.size, REDRAW_CHUNK))
    for _ in range(100):
        left = np.concatenate([np.empty(0, np.intp), *(redraw(i) for i in todo if len(i))])
        if not len(left):
            break
        todo = (left[k:k + REDRAW_CHUNK] for k in range(0, len(left), REDRAW_CHUNK))
    else:
        np.clip(losses, 0.0, 1.0, out=losses)
    return LossTable(losses)


def _outside(x: np.ndarray) -> np.ndarray:
    return (x < 0.0) | (x > 1.0)


def sample_delays(config: EnvironmentConfig, rng: np.random.Generator) -> DelaySequence:
    """Draw a delay sequence from the configured model."""
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
