"""Run orchestration: environments, learners, metrics, trace emission.

All learners in a comparison consume the same realized loss table and delay
sequence; per-learner action noise comes from independently named streams of
the master seed, so swapping learners never perturbs the environment.
`play` is the only round loop: every simulation, the batched reduction
included, runs through it, except the game of a `PlayDistribution`, whose
distribution never changes: `play` builds its columns in whole-array calls,
with the loop's bytes. After the game `run` reads the learner's `alpha`,
`restarts` and `delay_estimate` directly. A `RunTrace` keeps the learner's
loss curve, the environment's three shared columns and the restart log; the
CSV's round, stage, phase and alpha columns are rebuilt from the log, and
its loss_star column is summed from the best arm's losses as it is written.
`RunConfig` builds the one `Regularizer` and the one `ThresholdFunctions` of
a run.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import baselines
from .errors import ConfigError, ProtocolError
from .mirror import NEG_ENTROPY, Regularizer
from .protocol import (DelaySequence, EnvironmentConfig, FeedbackEvent,
                       FeedbackQueue, LossTable, generate_block_losses, sample_delays)
from .prudent import (PrudentBanker, RestartRecord, ThresholdFunctions, build_comparator,
                      restart_segments)
from .rng import RngSampler, check_seed, stream

LEARNERS = ("prudent-banker", "banker-omd", "conservative-ucb", "safe-exp3ix",
            "play-comparator", "play-fixed-arm")

CSV_HEADER = "t,stage,phase,alpha,loss_B,loss_star,loss_c,arrived"
#: the per-round arrays a RunTrace stores: three CSV columns and the best arm's
#: losses, which the loss_star column sums; the others are rebuilt from its restart log
DATA_COLUMNS = ("loss_B", "best_arm_losses", "loss_c", "arrived")
#: rows of the CSV formatted at a time, so that emit never holds the whole text;
#: a chunk's cell strings all live until its one join, so emit's peak grows with
#: the chunk: on 20,000 rows of full-width floats it is near 0.23 MiB at 512
#: rows and 0.45 MiB at 1024
CSV_CHUNK = 512


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
    """One run: its four data columns, its restart log and its summary.

    `loss_B`, `best_arm_losses`, `loss_c` and `arrived` hold entry t - 1 for
    round t; they must be 1-D and of one length, checked when built. Only
    `loss_B` is the run's own: `run` sums it in place over the game's loss
    column. The other three are read-only arrays of the environment, one
    for every trace that reads them: `best_arm_losses` is the hindsight-best
    arm's column of the loss table, a view that keeps the table's array
    alive, `loss_c` the table's `comparator_curve` of the run's comparator
    and `arrived` the delays' `arrived` counts. Nothing writes any of the
    four after. The CSV's other columns are not stored: `loss_star` is the
    cumulative sum of `best_arm_losses`, which `csv_chunks` builds a chunk
    at a time; `t` is 1..T; and `stage`, `phase` and `alpha` change only at
    a restart, so `csv_chunks` formats them once per phase of
    `restart_segments(restarts, alpha0, T)`, alpha0 being the alpha before
    the game. `csv_chunks`, `csv_string` and `emit` only read the trace.
    """

    loss_B: np.ndarray
    best_arm_losses: np.ndarray
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
        """The CSV text: the header line, then CSV_CHUNK rows at a time.

        A chunk is one ``",".join`` over five cells per row: the row's
        stage,phase,alpha text (the chunk's first row with its t in front),
        its three floats, and its arrived count with the newline and the next
        row's t. One cursor walks the phases across the chunks.

        The loss_star cells are the chunk's best arm losses summed in a copy
        by ``np.cumsum``, the first with the sum carried from the chunk
        before added in front; the sum starts at -0.0, which adds nothing,
        not even to a -0.0. ``np.cumsum`` adds in sequence, so the column has
        the bits of one ``np.cumsum`` over all T entries.
        """
        yield CSV_HEADER + "\n"
        T = len(self.arrived)
        # (first row, stage,phase,alpha text) of each phase, then a sentinel at
        # T; as int64 and float64 columns print: repr(np.float64(x)) names its type
        phases = [(first, f"{int(stage)},{int(phase)},{float(alpha)!r}")
                  for first, stage, phase, alpha in restart_segments(self.restarts,
                                                                     self.alpha0, T)]
        phases.append((T, None))
        k = 0  # the phase of row lo
        star = -0.0  # the loss_star of row lo - 1
        for lo in range(0, T, CSV_CHUNK):
            hi = min(lo + CSV_CHUNK, T)
            while phases[k + 1][0] <= lo:
                k += 1
            cells = [None] * (5 * (hi - lo))
            j = k
            while phases[j][0] < hi:  # each phase that overlaps [lo, hi)
                a, b = max(phases[j][0], lo) - lo, min(phases[j + 1][0], hi) - lo
                cells[5 * a:5 * b:5] = [phases[j][1]] * (b - a)
                j += 1
            cells[0] = f"{lo + 1},{cells[0]}"
            # float columns print in repr's round-trip form
            cells[1::5] = map(repr, self.loss_B[lo:hi].tolist())
            loss_star = self.best_arm_losses[lo:hi].copy()
            loss_star[0] += star
            star = np.cumsum(loss_star, out=loss_star)[-1]
            cells[2::5] = map(repr, loss_star.tolist())
            cells[3::5] = map(repr, self.loss_c[lo:hi].tolist())
            arrived = self.arrived[lo:hi].tolist()
            cells[4::5] = [f"{n}\n{t}" for n, t in zip(arrived, range(lo + 2, hi + 2))]
            cells[-1] = f"{arrived[-1]}\n"
            yield ",".join(cells)

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
        return baselines.ConservativeUCB(A, T, istar, r0, alpha_safe=config.alpha_safe)
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

    `arm` takes the smallest unsigned dtype that holds A - 1. The feedback
    each round delivers depends on the delays alone: it is
    `DelaySequence.arrived`, not a column of the game."""

    loss: np.ndarray  # pseudo-loss <p_t, l_t> of the played distribution
    arm: np.ndarray


def play(learner, table: LossTable, delays: DelaySequence) -> PlayColumns:
    """Play the delayed game; round t's feedback arrives at the end of t + d_t.

    The learner is driven only through ``act(t)`` and ``receive(events, t)``.
    An arm outside 0..A-1 is a ``ProtocolError``. An exception raised inside
    round t propagates as the same object, with "round t" appended to its
    ``__notes__``.

    A ``PlayDistribution`` over the table's A arms learns nothing, so its
    game is not played round by round: ``_play_fixed`` builds the same
    columns, byte for byte, and calls neither ``act`` nor ``receive``.
    The loop counts no arrivals: the queue hands every round's events to
    the learner, and ``delays.arrived`` holds how many there are.
    """
    T = table.horizon
    if len(delays) != T:
        raise ConfigError(f"{len(delays)} delays for a horizon of {T} rounds")
    losses, d = table.losses, delays.delays
    # numpy columns, not lists: a list of T floats would add to a run's peak memory
    loss = np.zeros(T)
    A = losses.shape[1]
    arms = np.zeros(T, dtype=np.min_scalar_type(A - 1))
    cols = PlayColumns(loss, arms)
    if isinstance(learner, baselines.PlayDistribution) and learner.dist.shape == (A,):
        try:
            _play_fixed(learner.dist, learner.sampler, losses, cols)
        except Exception as exc:
            exc.add_note("round 1")  # the round the loop would raise it in
            raise
        return cols
    queue = FeedbackQueue(T)
    enqueue, step = queue.enqueue, queue.step
    act, receive = learner.act, learner.receive
    # FeedbackEvent and pseudo_loss are read from this module in each round:
    # bench/spans.py replaces them here
    for t in range(1, T + 1):
        try:
            dist, arm = act(t)
            if not 0 <= arm < A:  # else a narrow arm column would wrap it
                raise ProtocolError(f"arm {arm} outside 0..{A - 1}")
            arms[t - 1] = arm
            row = losses[t - 1]
            loss[t - 1] = pseudo_loss(dist, row)
            # (origin_round, arm, loss_value, arrival_round): keywords would
            # nearly double the cost of building the event
            enqueue(FeedbackEvent(t, arm, row.item(arm), t + d.item(t - 1)))
            receive(step(t), t)
        except Exception as exc:
            exc.add_note(f"round {t}")  # keeps the object and its type
            raise
    return cols


def _play_fixed(dist: np.ndarray, sampler: RngSampler, losses: np.ndarray,
                cols: PlayColumns) -> None:
    """Fill `cols` with the loop's columns for a learner that plays `dist` every round.

    ``np.vecdot`` takes each row's dot with `dist` in the kernel that
    ``pseudo_loss``'s ``dot`` uses, so with the same bits; a matrix product
    or ``einsum`` sums in another order. It writes straight into the loss
    column, so it builds no horizon-sized temporary. The arms take the
    uniforms that T ``draw(dist)`` calls would (``RngSampler.draw_fixed``).
    """
    sampler.draw_fixed(dist, cols.arm)  # checks dist first, as round 1 of the loop does
    np.vecdot(losses, dist, out=cols.loss)


def run(config: RunConfig, table: LossTable | None = None,
        delays: DelaySequence | None = None, keep_learner: bool = False) -> RunTrace:
    """Execute one full run and collect the per-round trace.

    A pre-built (table, delays) pair can be passed in to share one realized
    environment across learners; by default both are generated from the seed.
    Errors inside a round carry a "round t" note (see ``play``).

    Each of the trace's four columns is built once: ``loss_B`` is summed in
    place over the loss column of the ``PlayColumns`` that ``play`` returns,
    which is overwritten. The other three are the environment's, built by
    the first run that reads them and shared, read-only, by every later one:
    ``best_arm_losses`` is the hindsight-best arm's column of the table, a
    view, so the trace keeps the table's loss array alive; ``loss_c`` is the
    table's ``comparator_curve`` of the comparator (one per δ, rebuilt once
    no trace holds it) and ``arrived`` the delays' ``arrived`` counts. The
    table's ``hindsight`` keeps the best arm's total loss, not its curve,
    and the summary's regret is taken from it. ``arrived``
    and the delays' ``total``, the summary's ``realized_D``, are read
    before the game, and ``loss_c`` after it, once the arm column is
    dropped. So a sweep sums each environment's delays once.
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
    istar, star_total, r0 = table.hindsight
    xc = build_comparator(A, config.delta, istar)
    learner = make_learner(config, istar, r0, xc)
    alpha0 = learner.alpha
    # read before the game, while the learner holds little: the first run
    # builds the counts and sums D here, and their temporaries set no peak
    arrived, realized_D = delays.arrived, delays.total
    cols = play(learner, table, delays)
    loss_B = np.cumsum(cols.loss, out=cols.loss)
    del cols  # and with it the arm column, which the trace does not keep

    loss_c = table.comparator_curve(xc)
    restarts = list(learner.restarts)
    segments = restart_segments(restarts, alpha0, T)
    _, stages, _, final_alpha = segments[-1]  # the phase of round T
    summary = {
        "learner": config.learner,
        "seed": int(config.seed),
        "horizon": T,
        "arms": A,
        "delay_model": config.env.delay_model,
        "realized_D": realized_D,
        "best_fixed_arm": istar,
        "r0": r0,
        "r0_source": "oracle (hindsight best arm)",
        "comparator_anchor_source": "oracle (hindsight best arm)",
        "stages": int(stages),
        "phases": len(segments),
        "final_alpha": float(final_alpha),
        "final_delay_estimate": int(learner.delay_estimate),
        "regret_vs_best_fixed_arm": float(loss_B[-1] - star_total),
        "comparator_gap": float(loss_B[-1] - loss_c[-1]),
        "threshold_scale": config.threshold_scale,
    }
    trace = RunTrace(loss_B=loss_B, best_arm_losses=table.losses[:, istar], loss_c=loss_c,
                     arrived=arrived, restarts=restarts, alpha0=alpha0, summary=summary)
    if keep_learner:
        trace.learner = learner
    return trace


def emit(trace: RunTrace, out_base: str | Path) -> list[Path]:
    """Write the trace to <out_base>.csv and its summary to <out_base>.json.

    The CSV is written chunk by chunk from ``RunTrace.csv_chunks`` through
    one open file, so emit holds one chunk at a time: the cells of CSV_CHUNK
    rows, then their joined text. It reads the trace and writes none of it.
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
