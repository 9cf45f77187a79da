"""The delayed adversarial bandit game.

Loss tables are generated obliviously (before any learner acts) and never
mutated. Feedback for the action of round t becomes visible at the end of
round t + d_t and is first usable for the decision at round t + d_t + 1.
The three delayed models share one activation draw, so one seed delays the
same rounds under each.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ProtocolError
from .rng import DRAW_CHUNK, check_count, check_seed

DELAY_MODELS = ("none", "fixed-one-step", "geometric", "lomax")
# table entries scanned at a time when rejecting out-of-range losses; later
# passes redraw their survivors a quarter of that at a time
REDRAW_CHUNK = 1 << 14


@dataclass(frozen=True)
class LossTable:
    """Full horizon-by-arms loss matrix with entries in [0, 1].

    It marks its float array read-only, as `hindsight` and
    `comparator_curve` cache what they read there and every trace of a run
    on the table reads the best arm's column in place; a view of that array
    taken before stays writable."""

    losses: np.ndarray
    _curves: weakref.WeakValueDictionary = field(default_factory=weakref.WeakValueDictionary,
                                                 init=False, repr=False, compare=False)

    def __post_init__(self):
        losses = np.asarray(self.losses, dtype=float)
        if losses.ndim != 2:
            raise ConfigError(f"loss matrix must be 2-D, got shape {losses.shape}")
        if losses.size and not (0.0 <= losses.min() and losses.max() <= 1.0):  # NaN fails too
            raise ConfigError("loss entries must lie in [0, 1]")
        losses.flags.writeable = False
        object.__setattr__(self, "losses", losses)

    @property
    def horizon(self) -> int:
        return len(self.losses)

    @cached_property
    def hindsight(self) -> tuple[int, float, float]:
        """(istar, total, r0), computed on first read: the hindsight-best arm
        (lowest index on ties), its total loss and its mean reward.

        `total` is the last value of ``np.cumsum(losses[:, istar])``, so it
        has the bits of the CSV's last loss_star; the curve itself is not
        kept, as a trace reads the arm's column of `losses`.
        A table with no entries has no best arm and raises ``ConfigError``.
        """
        if not self.losses.size:
            raise ConfigError(f"empty loss table of shape {self.losses.shape} has no best arm")
        istar = int(np.argmin(self.losses.sum(axis=0)))
        column = self.losses[:, istar]
        return istar, float(np.cumsum(column)[-1]), float(np.mean(1.0 - column))

    def comparator_curve(self, x: np.ndarray) -> np.ndarray:
        """The read-only cumulative loss curve ``cumsum(losses @ x)`` of
        playing x every round, computed on the first call with x's bytes:
        while any caller holds that array, every later call with them
        returns it. The table holds its curves weakly, so a table played at
        many comparators (one per δ) keeps no curve that no trace holds."""
        key = x.tobytes()
        curve = self._curves.get(key)
        if curve is None:
            curve = self.losses @ x
            np.cumsum(curve, out=curve)
            curve.flags.writeable = False
            self._curves[key] = curve
        return curve


@dataclass(frozen=True)
class DelaySequence:
    """Per-round nonnegative integer delays d_t below 2^63, as a 1-D array.

    It keeps a read-only copy of the delays it is given, in the smallest
    signed type that holds their maximum (int8 for the shipped models at
    seed 0), as `arrived` and `total` cache what they read there; the
    caller's array stays as it was. The type is signed, so the difference
    of two delays cannot wrap; a sum of them can, so a reader that adds
    delays takes them as Python ints (``item``, ``tolist``) or widens them.
    """

    delays: np.ndarray

    def __post_init__(self):
        delays = np.asarray(self.delays)
        if delays.ndim != 1:
            raise ConfigError(f"delays must be 1-D, got shape {delays.shape}")
        if delays.size and not np.issubdtype(delays.dtype, np.integer):
            raise ConfigError("delays must be integers")
        top = 0
        if delays.size:
            if delays.min() < 0:
                raise ConfigError("delays must be nonnegative")
            top = int(delays.max())
            if top >= 1 << 63:
                raise ConfigError(f"delays must be below 2^63, got {top}")
        delays = delays.astype(np.min_scalar_type(-top - 1))  # a copy
        delays.flags.writeable = False
        object.__setattr__(self, "delays", delays)

    def __len__(self) -> int:
        return len(self.delays)

    @cached_property
    def total(self) -> int:
        """Total delay D, computed on first read in exact integer arithmetic."""
        return int(np.sum(self.delays, dtype=object))

    @cached_property
    def arrived(self) -> np.ndarray:
        """Feedback events delivered at the end of each round of the T =
        len(self) round game, computed on first read: entry t - 1 counts the
        rounds u with u + d_u = t, as a `FeedbackQueue` delivers them; the
        feedback of a round with u + d_u > T never arrives.

        A read-only array of the smallest unsigned type that holds its
        largest count (uint8 for the shipped models at seed 0: no round
        delivers more than 3 events), counted DRAW_CHUNK rounds at a time in
        the type that holds T and narrowed once, after the count.
        """
        T = len(self.delays)
        arrived = np.zeros(T, dtype=np.min_scalar_type(T))
        for lo in range(0, T, DRAW_CHUNK):
            wait = self.delays[lo:lo + DRAW_CHUNK]
            row = np.arange(lo, lo + len(wait))  # round t is row t - 1
            due = wait < T - row  # t + d_t <= T, without a sum that a huge delay would wrap
            np.add.at(arrived, row[due] + wait[due], 1)
        arrived = arrived.astype(np.min_scalar_type(arrived.max(initial=0)), copy=False)
        arrived.flags.writeable = False
        return arrived


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
    still out of range). Block b holds rows [b w, (b + 1) w) with
    w = floor(T/B) + 1; B w > T, so the last blocks may be short or empty.

    The whole table is drawn by one standard-normal call in C order, then
    scaled and shifted in place as z * sd + mean: the full = floor(T/w)
    complete blocks at once, by broadcasting each block's sd and mean over a
    (full, w, A) view, and the partial block full (full < B; it may have no
    rows) on its own. Generator draws concatenate, so this consumes the
    stream exactly as one draw per block would, one z per entry in C order,
    and every entry gets the same bits as ``rng.normal(mean, sd)``, which
    computes mean + sd * z.

    Redraws go pass by pass, each pass in row-major order over the entries
    still out of range, so no mask or index array the size of the table is
    ever built. Attempt 1 scans the table REDRAW_CHUNK entries at a time,
    and its survivors are joined once into one index array of the smallest
    unsigned type that holds flat.size. Attempts 2 to 100 walk that array
    REDRAW_CHUNK // 4 entries at a time, each batch widened to intp only for
    its own index arithmetic, and compact it in place: a batch's survivors
    are written back to the front of the array, which is then cut to them.
    How the draws are grouped into calls does not change the bits.
    """
    T, A, B = config.horizon, config.arms, config.blocks
    means = rng.uniform(0.0, 1.0, size=(A, B))
    sds = rng.uniform(0.1, 0.2, size=(A, B))
    width = T // B + 1

    losses = np.empty((T, A))
    rng.standard_normal(out=losses)
    full = T // width
    blocks = losses[:full * width].reshape(full, width, A)  # a view
    blocks *= sds[:, :full].T[:, None]
    blocks += means[:, :full].T[:, None]
    rest = losses[full * width:]
    rest *= sds[:, full]
    rest += means[:, full]

    flat = losses.reshape(-1)  # a view
    index_type = np.min_scalar_type(flat.size)

    def redraw(i):
        """Redraw flat entries i; return those still out of range, as index_type."""
        row = i // A
        k = (i - row * A) * B + row // width  # flat index of (arm, block) in means
        x = rng.standard_normal(len(i))
        x *= sds.take(k)
        x += means.take(k)
        flat[i] = x
        return i[_outside(x)].astype(index_type)

    # attempt 1 scans the table itself, one chunk at a time
    scan = (np.flatnonzero(_outside(flat[k:k + REDRAW_CHUNK])) + k
            for k in range(0, flat.size, REDRAW_CHUNK))
    todo = np.concatenate([np.empty(0, index_type), *(redraw(i) for i in scan if len(i))])
    for _ in range(99):  # attempts 2 to 100
        if not todo.size:
            break
        kept = 0
        for k in range(0, todo.size, REDRAW_CHUNK // 4):
            left = redraw(todo[k:k + REDRAW_CHUNK // 4].astype(np.intp))
            todo[kept:kept + len(left)] = left
            kept += len(left)
        todo = todo[:kept]
    if todo.size:
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
