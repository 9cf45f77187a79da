"""Run orchestration: environments, learners, metrics, trace emission.

All learners in a comparison consume the same realized loss table and delay
sequence; per-learner action noise comes from independently named streams of
the master seed, so swapping learners never perturbs the environment.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import baselines
from .errors import ConfigError
from .mirror import NEG_ENTROPY, REGULARIZERS, Regularizer
from .protocol import (DelaySequence, EnvironmentConfig, FeedbackEvent,
                       FeedbackQueue, LossTable, generate_block_losses,
                       sample_delays)
from .prudent import PrudentBanker, build_comparator, restart_columns
from .rng import RngSampler, stream

LEARNERS = ("prudent-banker", "banker-omd", "conservative-ucb", "safe-exp3ix",
            "play-comparator", "play-fixed-arm")

CSV_HEADER = "t,stage,phase,alpha,loss_B,loss_star,loss_c,arrived"
#: CSV columns that change only at a restart or an arrival, so hold few values
STEP_COLUMNS = frozenset({"stage", "phase", "alpha", "arrived"})

#: desk/paper experiment profiles (horizon, arms, blocks)
SCALES = {"desk": (20000, 10, 100), "paper": (50000, 100, 500)}


def pseudo_loss(p: np.ndarray, loss_row: np.ndarray) -> float:
    """Expected loss <p_t, l_t> of playing distribution p_t."""
    p = np.asarray(p, dtype=float)
    loss_row = np.asarray(loss_row, dtype=float)
    if p.shape != loss_row.shape:
        raise ConfigError(f"dimension mismatch {p.shape} vs {loss_row.shape}")
    return float(np.dot(p, loss_row))


def best_fixed_arm(table: LossTable) -> tuple[int, np.ndarray]:
    """Hindsight-optimal arm (ties to lowest index) and its cumulative loss curve."""
    sums = table.losses.sum(axis=0)
    istar = int(np.argmin(sums))
    return istar, np.cumsum(table.losses[:, istar])


@dataclass
class RunConfig:
    env: EnvironmentConfig = field(default_factory=EnvironmentConfig)
    learner: str = "prudent-banker"
    regularizer: str = NEG_ENTROPY
    delta: float = 0.01
    alpha_safe: float = 0.1
    threshold_scale: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        self.env.validate()
        if self.learner not in LEARNERS:
            raise ConfigError(f"unknown learner {self.learner!r}")
        if self.regularizer not in REGULARIZERS:
            raise ConfigError(f"unknown regularizer {self.regularizer!r}")
        if self.env.arms < 2 and self.learner in ("prudent-banker", "banker-omd"):
            # their step size divides by C1, which is 0 on one arm
            raise ConfigError(f"{self.learner} needs at least 2 arms")
        if not (0.0 < self.delta <= 1.0 / self.env.arms):
            raise ConfigError("delta must lie in (0, 1/arms]")
        if not (0.0 < self.threshold_scale < math.inf):
            raise ConfigError("threshold_scale must be positive and finite")
        if not (0.0 <= self.alpha_safe <= 1.0):
            raise ConfigError("alpha_safe must lie in [0, 1]")
        if min(self.seed, self.env.seed) < 0:
            raise ConfigError("seed must be nonnegative")


def _repr_each_value_once(col: np.ndarray):
    """repr of each entry of a 64-bit column, formatting each distinct value once.

    Values are keyed by their bits, so -0.0 and 0.0 stay apart.
    """
    keys, inverse = np.unique(col.view(np.int64), return_inverse=True)
    text = [repr(v) for v in keys.view(col.dtype).tolist()]
    return map(text.__getitem__, inverse.tolist())


@dataclass
class RunTrace:
    t: np.ndarray
    stage: np.ndarray
    phase: np.ndarray
    alpha: np.ndarray
    loss_B: np.ndarray
    loss_star: np.ndarray
    loss_c: np.ndarray
    arrived: np.ndarray
    summary: dict
    learner: object | None = None  # populated when run(..., keep_learner=True)

    def csv_string(self) -> str:
        # integer columns print as ints, float columns in repr's round-trip form
        columns = (_repr_each_value_once(getattr(self, name)) if name in STEP_COLUMNS
                   else map(repr, getattr(self, name).tolist())
                   for name in CSV_HEADER.split(","))
        return "\n".join([CSV_HEADER, *map(",".join, zip(*columns))]) + "\n"


def build_environment(env: EnvironmentConfig) -> tuple[LossTable, DelaySequence]:
    """Generate the shared oblivious environment from the named seed streams."""
    table = generate_block_losses(env, stream(env.seed, "losses"))
    delays = sample_delays(env, stream(env.seed, "delays"))
    return table, delays


def make_learner(config: RunConfig, istar: int, r0: float, xc: np.ndarray):
    """The configured learner; xc is the comparator anchored on arm istar."""
    A, T = config.env.arms, config.env.horizon
    sampler = RngSampler(stream(config.seed, f"action:{config.learner}"))
    reg = Regularizer(config.regularizer, A, config.delta)
    name = config.learner
    if name == "prudent-banker":
        return PrudentBanker(reg, xc, T, sampler, threshold_scale=config.threshold_scale)
    if name == "banker-omd":
        return baselines.BankerOMDLearner(reg, sampler)
    if name == "conservative-ucb":
        return baselines.ConservativeUCB(A, istar, r0, T, alpha_safe=config.alpha_safe)
    if name == "safe-exp3ix":
        return baselines.SafeExp3IX(A, T, istar, r0, sampler,
                                    alpha_safe=config.alpha_safe)
    if name == "play-comparator":
        return baselines.PlayDistribution(xc, sampler)
    if name == "play-fixed-arm":
        return baselines.PlayDistribution(np.eye(A)[istar], sampler)
    raise ConfigError(name)


@dataclass
class PlayColumns:
    """Per-round columns of one played game; entry t - 1 belongs to round t."""

    loss: np.ndarray  # pseudo-loss <p_t, l_t> of the played distribution
    arrived: np.ndarray  # feedback events delivered at the end of the round
    arm: np.ndarray


def _add_note(exc: BaseException, note: str) -> None:
    """BaseException.add_note (Python 3.11+; 3.10 lacks it)."""
    exc.__notes__ = [*getattr(exc, "__notes__", ()), note]


def play(learner, table: LossTable, delays: DelaySequence) -> PlayColumns:
    """Play the delayed game; round t's feedback arrives at the end of t + d_t.

    The learner is driven only through ``act(t)`` and ``receive(events, t)``.
    An exception raised inside round t propagates as the same object, with
    "round t" appended to its ``__notes__``.
    """
    T = table.horizon
    if len(delays) != T:
        raise ConfigError(f"{len(delays)} delays for a horizon of {T} rounds")
    queue = FeedbackQueue(T)
    enqueue, step = queue.enqueue, queue.step
    act, receive = learner.act, learner.receive
    losses, d = table.losses, delays.delays
    # numpy columns, not lists: a list of T floats would add to a run's peak memory
    loss = np.zeros(T)
    arrived, arms = np.zeros(T, dtype=np.int64), np.zeros(T, dtype=np.int64)
    # FeedbackEvent and pseudo_loss are read from this module in each round:
    # bench/spans.py replaces them here
    for t in range(1, T + 1):
        try:
            dist, arm = act(t)
            arms[t - 1] = arm
            row = losses[t - 1]
            loss[t - 1] = pseudo_loss(dist, row)
            # (origin_round, arm, loss_value, arrival_round): keywords would
            # nearly double the cost of building the event
            enqueue(FeedbackEvent(t, arm, row.item(arm), t + d.item(t - 1)))
            events = step(t)
            arrived[t - 1] = len(events)
            receive(events, t)
        except Exception as exc:
            _add_note(exc, f"round {t}")  # keeps the object and its type
            raise
    return PlayColumns(loss, arrived, arms)


def run(config: RunConfig, table: LossTable | None = None,
        delays: DelaySequence | None = None, keep_learner: bool = False) -> RunTrace:
    """Execute one full run and collect the per-round trace.

    A pre-built (table, delays) pair can be passed in to share one realized
    environment across learners; by default both are generated from the seed.
    Errors inside a round carry a "round t" note (see ``play``).
    """
    config.validate()
    if (table is None) != (delays is None):
        raise ConfigError("pass both table and delays, or neither")
    if table is None:
        table, delays = build_environment(config.env)
    T, A = config.env.horizon, config.env.arms
    if table.losses.shape != (T, A):
        raise ConfigError(f"loss table of shape {table.losses.shape} for a horizon of "
                          f"{T} rounds and {A} arms")

    istar, star_curve = best_fixed_arm(table)
    # oracle-derived default reward: mean reward of the hindsight-best arm
    r0 = float(np.mean(1.0 - table.losses[:, istar]))
    xc = build_comparator(A, config.delta, istar)
    learner = make_learner(config, istar, r0, xc)
    alpha0 = getattr(learner, "alpha", 1.0)
    cols = play(learner, table, delays)

    loss_B = np.cumsum(cols.loss)
    loss_c = np.cumsum(table.losses @ xc)
    restarts = getattr(learner, "restarts", [])
    stage, phase, alpha = restart_columns(restarts, alpha0, T)
    summary = {
        "learner": config.learner,
        "seed": int(config.seed),
        "horizon": T,
        "arms": A,
        "delay_model": config.env.delay_model,
        "realized_D": delays.total,
        "best_fixed_arm": istar,
        "r0": r0,
        "r0_source": "oracle (hindsight best arm)",
        "comparator_anchor_source": "oracle (hindsight best arm)",
        "stages": int(stage[-1]),
        "phases": len(restarts) + 1,
        "final_alpha": float(alpha[-1]),
        "final_delay_estimate": int(getattr(learner, "delay_estimate", 0)),
        "regret_vs_best_fixed_arm": float(loss_B[-1] - star_curve[-1]),
        "comparator_gap": float(loss_B[-1] - loss_c[-1]),
        "threshold_scale": config.threshold_scale,
    }
    trace = RunTrace(t=np.arange(1, T + 1, dtype=np.int64),
                     stage=stage, phase=phase, alpha=alpha,
                     loss_B=loss_B, loss_star=star_curve, loss_c=loss_c,
                     arrived=cols.arrived, summary=summary)
    if keep_learner:
        trace.learner = learner
    return trace


def emit(trace: RunTrace, out_base: str | Path) -> list[Path]:
    """Write the trace to <out_base>.csv and its summary to <out_base>.json."""
    out_base = Path(out_base)
    out_base.parent.mkdir(parents=True, exist_ok=True)
    summary = json.dumps(trace.summary, indent=2, sort_keys=True) + "\n"
    written = []
    for suffix, text in ((".csv", trace.csv_string()), (".json", summary)):
        path = out_base.with_name(out_base.name + suffix)  # run.v2 -> run.v2.csv
        path.write_text(text)
        written.append(path)
    return written


def load_config_file(path: str | Path) -> dict[str, str]:
    """Flat key=value config file; '#' starts a comment."""
    out = {}
    for raw in Path(path).read_text().split("\n"):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line: {raw!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out
