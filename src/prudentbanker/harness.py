"""Run orchestration: environments, learners, metrics, trace emission.

All learners in a comparison consume the same realized loss table and delay
sequence; per-learner action noise comes from independently named streams of
the master seed, so swapping learners never perturbs the environment.
`play` is the only round loop: every simulation, the batched reduction
included, runs through it. After the game `run` reads the learner's `alpha`,
`restarts` and `delay_estimate` directly. A `RunTrace` keeps the four columns
the game produced and the restart log; the CSV's round, stage, phase and
alpha columns are rebuilt from the log. `RunConfig` builds the one
`Regularizer` and the one `ThresholdFunctions` of a run.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import baselines
from .errors import ConfigError
from .mirror import NEG_ENTROPY, Regularizer
from .protocol import (DelaySequence, EnvironmentConfig, FeedbackEvent,
                       FeedbackQueue, LossTable, generate_block_losses, sample_delays)
from .prudent import (PrudentBanker, RestartRecord, ThresholdFunctions, build_comparator,
                      restart_segments)
from .rng import RngSampler, check_seed, stream

LEARNERS = ("prudent-banker", "banker-omd", "conservative-ucb", "safe-exp3ix",
            "play-comparator", "play-fixed-arm")

CSV_HEADER = "t,stage,phase,alpha,loss_B,loss_star,loss_c,arrived"
#: CSV columns a RunTrace stores; the others are rebuilt from its restart log
DATA_COLUMNS = ("loss_B", "loss_star", "loss_c", "arrived")
#: rows of the CSV formatted at a time, so that emit never holds the whole text
CSV_CHUNK = 1024


def pseudo_loss(p: np.ndarray, loss_row: np.ndarray) -> float:
    """Expected loss <p_t, l_t> of playing distribution p_t."""
    p = np.asarray(p, dtype=float)
    loss_row = np.asarray(loss_row, dtype=float)
    if p.shape != loss_row.shape:
        raise ConfigError(f"dimension mismatch {p.shape} vs {loss_row.shape}")
    return float(p.dot(loss_row))


@dataclass(frozen=True)
class RunConfig:
    """The settings of one run, checked when built and immutable."""

    env: EnvironmentConfig = EnvironmentConfig()
    learner: str = "prudent-banker"
    regularizer: str = NEG_ENTROPY
    delta: float = 0.01
    alpha_safe: float = 0.1
    threshold_scale: float = 1.0
    seed: int = 0
    reg: Regularizer = field(init=False, compare=False, repr=False)  # built by __post_init__
    thresholds: ThresholdFunctions = field(init=False, compare=False, repr=False)  # likewise

    def __post_init__(self):
        if self.learner not in LEARNERS:
            raise ConfigError(f"unknown learner {self.learner!r}")
        if self.env.arms < 2 and self.learner in ("prudent-banker", "banker-omd"):
            # their step size divides by C1, which is 0 on one arm
            raise ConfigError(f"{self.learner} needs at least 2 arms")
        # the regularizer kind, delta and threshold scale are checked by their owners
        reg = Regularizer(self.regularizer, self.env.arms, self.delta)
        object.__setattr__(self, "reg", reg)
        object.__setattr__(self, "thresholds",
                           ThresholdFunctions(reg, self.env.horizon, self.threshold_scale))
        baselines.check_alpha_safe(self.alpha_safe)
        check_seed(self.seed)


@dataclass
class RunTrace:
    """One run: the four columns its game produced, its restart log and its summary.

    `loss_B`, `loss_star`, `loss_c` and `arrived` hold entry t - 1 for round
    t; they must be 1-D and of one length, checked when built. `loss_star`
    is the table's read-only `hindsight` curve, one array for every trace of
    the table; `run` builds the other three once and hands them over, and
    nothing writes them after. The CSV's other columns are not stored: `t`
    is 1..T, and `stage`, `phase` and `alpha` change only at a restart, so
    `csv_chunks` formats them once per phase of `restart_segments(restarts,
    alpha0, T)`, alpha0 being the alpha before the game. `csv_chunks`,
    `csv_string` and `emit` only read the trace.
    """

    loss_B: np.ndarray
    loss_star: np.ndarray
    loss_c: np.ndarray
    arrived: np.ndarray
    restarts: list[RestartRecord]
    alpha0: float
    summary: dict
    learner: object | None = None  # populated when run(..., keep_learner=True)

    def __post_init__(self):
        shapes = {name: np.shape(getattr(self, name)) for name in DATA_COLUMNS}
        if len(set(shapes.values())) != 1 or len(shapes["arrived"]) != 1:
            raise ConfigError(f"trace columns must be 1-D and of one length, got {shapes}")

    def csv_chunks(self):
        """The CSV text: the header line, then CSV_CHUNK rows at a time."""
        yield CSV_HEADER + "\n"
        T = len(self.arrived)
        segments = restart_segments(self.restarts, self.alpha0, T)
        first = [s[0] for s in segments]
        # as int64 and float64 columns print: repr(np.float64(x)) names its type
        state = [f"{int(stage)},{int(phase)},{float(alpha)!r}"
                 for _, stage, phase, alpha in segments]
        for lo in range(0, T, CSV_CHUNK):
            hi = min(lo + CSV_CHUNK, T)
            which = np.searchsorted(first, np.arange(lo, hi), side="right") - 1
            # float columns print in repr's round-trip form
            chunk = (map(str, range(lo + 1, hi + 1)), map(state.__getitem__, which.tolist()),
                     *(map(repr, getattr(self, name)[lo:hi].tolist())
                       for name in ("loss_B", "loss_star", "loss_c")),
                     map(str, self.arrived[lo:hi].tolist()))
            # a list display: join over a bare map over-allocates the rows it lists
            yield "\n".join([*map(",".join, zip(*chunk))]) + "\n"

    def csv_string(self) -> str:
        return "".join(self.csv_chunks())


def build_environment(env: EnvironmentConfig) -> tuple[LossTable, DelaySequence]:
    """Generate the shared oblivious environment from the named seed streams."""
    table = generate_block_losses(env, stream(env.seed, "losses"))
    delays = sample_delays(env, stream(env.seed, "delays"))
    return table, delays


def make_learner(config: RunConfig, istar: int, r0: float, xc: np.ndarray):
    """The configured learner; xc is the comparator anchored on arm istar."""
    A, T = config.env.arms, config.env.horizon
    sampler = RngSampler(stream(config.seed, f"action:{config.learner}"))
    name = config.learner
    if name == "prudent-banker":
        return PrudentBanker(config.thresholds, xc, sampler)
    if name == "banker-omd":
        return baselines.BankerOMDLearner(config.reg, sampler)
    if name == "conservative-ucb":
        return baselines.ConservativeUCB(A, istar, r0, T, alpha_safe=config.alpha_safe)
    if name == "safe-exp3ix":
        return baselines.SafeExp3IX(A, T, istar, r0, sampler,
                                    alpha_safe=config.alpha_safe)
    if name == "play-comparator":
        return baselines.PlayDistribution(xc, sampler)
    if name == "play-fixed-arm":
        return baselines.PlayDistribution(np.eye(A)[istar], sampler)


@dataclass
class PlayColumns:
    """Per-round columns of one played game; entry t - 1 belongs to round t.

    `arrived` and `arm` take the smallest unsigned dtypes that hold T and A - 1."""

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
    arrived = np.zeros(T, dtype=np.min_scalar_type(T))
    arms = np.zeros(T, dtype=np.min_scalar_type(losses.shape[1] - 1))
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

    Each of the trace's four columns is built once: ``loss_B`` is summed in
    place over the loss column of the ``PlayColumns`` that ``play`` returns,
    which is overwritten, and ``loss_c`` in place over the comparator's
    per-round losses. The arm column is dropped before ``loss_c`` is built.
    ``loss_star`` is the table's ``hindsight`` curve, shared by its runs.
    The trace keeps the learner's restart log in place of per-round stage,
    phase and alpha columns. Read through ``restart_segments``, the summary's
    ``stages`` and ``final_alpha`` are those of round T, and ``phases``
    counts the phases some round plays: not one a soft restart at round T
    would start, nor one a hard restart at t + 1 replaces after a soft
    restart at t.
    """
    if (table is None) != (delays is None):
        raise ConfigError("pass both table and delays, or neither")
    if table is None:
        table, delays = build_environment(config.env)
    T, A = config.env.horizon, config.env.arms
    if table.losses.shape != (T, A):
        raise ConfigError(f"loss table of shape {table.losses.shape} for a horizon of "
                          f"{T} rounds and {A} arms")

    # r0, the oracle-derived default reward, is the hindsight-best arm's mean reward
    istar, loss_star, r0 = table.hindsight
    xc = build_comparator(A, config.delta, istar)
    learner = make_learner(config, istar, r0, xc)
    alpha0 = learner.alpha
    cols = play(learner, table, delays)
    loss_B = np.cumsum(cols.loss, out=cols.loss)
    arrived = cols.arrived
    del cols  # and with it the arm column, which the trace does not keep

    loss_c = table.losses @ xc
    np.cumsum(loss_c, out=loss_c)
    restarts = list(learner.restarts)
    segments = restart_segments(restarts, alpha0, T)
    _, stages, _, final_alpha = segments[-1]  # the phase of round T
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
        "stages": int(stages),
        "phases": len(segments),
        "final_alpha": float(final_alpha),
        "final_delay_estimate": int(learner.delay_estimate),
        "regret_vs_best_fixed_arm": float(loss_B[-1] - loss_star[-1]),
        "comparator_gap": float(loss_B[-1] - loss_c[-1]),
        "threshold_scale": config.threshold_scale,
    }
    trace = RunTrace(loss_B=loss_B, loss_star=loss_star, loss_c=loss_c, arrived=arrived,
                     restarts=restarts, alpha0=alpha0, summary=summary)
    if keep_learner:
        trace.learner = learner
    return trace


def emit(trace: RunTrace, out_base: str | Path) -> list[Path]:
    """Write the trace to <out_base>.csv and its summary to <out_base>.json.

    The CSV is written chunk by chunk from ``RunTrace.csv_chunks``, so emit
    holds CSV_CHUNK rows of text at a time; it reads the trace and writes
    none of it.
    """
    out_base = Path(out_base)
    out_base.parent.mkdir(parents=True, exist_ok=True)
    summary = json.dumps(trace.summary, indent=2, sort_keys=True) + "\n"
    written = []
    for suffix, chunks in ((".csv", trace.csv_chunks()), (".json", [summary])):
        path = out_base.with_name(out_base.name + suffix)  # run.v2 -> run.v2.csv
        with path.open("w") as out:
            out.writelines(chunks)
        written.append(path)
    return written
