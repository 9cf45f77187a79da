import dataclasses
import sys
import tracemalloc
import weakref
from itertools import zip_longest
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prudentbanker import harness
from prudentbanker.baselines import BankerOMDLearner, OneStage, PlayDistribution
from prudentbanker.errors import ConfigError, NumericalError, ProtocolError
from prudentbanker.harness import (CSV_HEADER, DATA_COLUMNS, RunConfig, RunTrace,
                                   build_environment, emit, play, pseudo_loss, run)
from prudentbanker.mirror import NEG_ENTROPY, TSALLIS_HALF, Regularizer
from prudentbanker.protocol import DelaySequence, EnvironmentConfig, LossTable
from prudentbanker.prudent import (PrudentBanker, RestartRecord, ThresholdFunctions,
                                   build_comparator, restart_segments)
from prudentbanker.rng import RngSampler, stream

from reference import (csv_string_each_entry, outstanding_counters, parse_csv, restart_state,
                       stage_schedule, trace_columns)


def small_cfg(learner="prudent-banker", horizon=300, **kw):
    env = EnvironmentConfig(horizon=horizon, arms=4, blocks=5,
                            delay_model=kw.pop("delay_model", "geometric"),
                            seed=kw.pop("env_seed", 0))
    return RunConfig(env=env, learner=learner, **{"delta": 0.1, "seed": 0, **kw})


# -- metrics ----------------------------------------------------------------

def test_pseudo_loss_examples():
    assert pseudo_loss(np.array([1.0, 0.0]), np.array([0.3, 0.9])) == 0.3
    assert pseudo_loss(np.full(4, 0.25), np.array([0.0, 1.0, 1.0, 0.0])) == 0.5
    with pytest.raises(ConfigError):
        pseudo_loss(np.full(3, 1 / 3), np.zeros(4))


def test_pseudo_loss_matches_sampling_mean():
    rng = np.random.default_rng(0)
    p = rng.dirichlet(np.ones(5))
    row = rng.random(5)
    draws = row[rng.choice(5, size=200000, p=p)]
    assert pseudo_loss(p, row) == pytest.approx(draws.mean(), abs=0.005)


def test_best_fixed_arm():
    losses = np.array([[0.9, 0.1], [0.9, 0.1], [0.0, 1.0]])
    istar, total, r0 = LossTable(losses).hindsight
    assert istar == 1
    assert total == pytest.approx(1.2)
    assert r0 == pytest.approx(0.6)
    # ties resolve to the lowest index
    flat = LossTable(np.full((2, 3), 0.5))
    assert flat.hindsight[0] == 0
    # a table without rows (or arms) has no best arm: an error, not a NaN r0 and a warning
    for shape in ((0, 3), (0, 1), (2, 0)):
        with pytest.raises(ConfigError, match="empty loss table"):
            LossTable(np.zeros(shape)).hindsight


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_hindsight_has_the_bits_of_the_per_run_expressions(data):
    # quarter-valued entries sum exactly, so arms tie often
    T, A = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 6))
    entries = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
    losses = np.array(data.draw(st.lists(st.lists(entries, min_size=A, max_size=A),
                                         min_size=T, max_size=T)))
    sums = losses.sum(axis=0)
    want = int(np.argmin(sums))
    assert want == min(a for a in range(A) if sums[a] == sums.min())
    istar, total, r0 = LossTable(losses).hindsight
    assert istar == want
    assert np.float64(total).tobytes() == np.cumsum(losses[:, want])[-1].tobytes()
    assert np.float64(r0).tobytes() == np.float64(np.mean(1.0 - losses[:, want])).tobytes()
    # the table keeps three numbers, no curve
    assert (type(istar), type(total), type(r0)) == (int, float, float)


def test_runs_on_one_table_share_one_read_only_loss_star():
    cfg = small_cfg(horizon=200)
    table, delays = build_environment(cfg.env)
    a = run(cfg, table, delays)
    b = run(small_cfg("safe-exp3ix", horizon=200), table, delays)
    c = run(small_cfg("play-comparator", horizon=200), table, delays)
    other = run(small_cfg(horizon=200, delta=0.05), table, delays)
    # every run reads the best arm's column in the table itself, copying nothing
    istar = table.hindsight[0]
    for trace in (a, b, c, other):
        assert np.shares_memory(trace.best_arm_losses, table.losses)
        np.testing.assert_array_equal(trace.best_arm_losses, table.losses[:, istar])
    # every run at one delta reads one comparator curve and one arrival column
    assert a.loss_c is b.loss_c is c.loss_c
    assert a.arrived is b.arrived is c.arrived is other.arrived is delays.arrived
    for shared in (a.best_arm_losses, a.loss_c, a.arrived, table.losses):
        assert not shared.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0
    # another delta's comparator has a curve of its own, with the bits of a fresh one
    assert other.loss_c is not a.loss_c and not other.loss_c.flags.writeable
    xc = build_comparator(cfg.env.arms, 0.05, table.hindsight[0])
    assert other.loss_c.tobytes() == np.cumsum(table.losses @ xc).tobytes()
    # each run's own loss curve stays writable
    own = [trace.loss_B for trace in (a, b, c, other)]
    assert len(set(map(id, own))) == 4 and all(loss_B.flags.writeable for loss_B in own)
    # the table holds its curves weakly: once no trace holds one it is freed,
    # and a later run builds it again with the same bits
    curve, want = weakref.ref(a.loss_c), a.loss_c.tobytes()
    del a, b, c
    assert curve() is None
    assert run(cfg, table, delays).loss_c.tobytes() == want
    # the table takes its float array over, so no one can rewrite it
    losses = np.zeros((3, 2))
    assert LossTable(losses).losses is losses and not losses.flags.writeable


# -- oracle policies --------------------------------------------------------

def test_play_comparator_matches_comparator_curve():
    trace = run(small_cfg("play-comparator", horizon=200))
    np.testing.assert_allclose(trace.loss_B, trace.loss_c, atol=1e-9)
    assert trace.summary["comparator_gap"] == pytest.approx(0.0, abs=1e-9)


def test_play_best_fixed_arm_has_zero_regret():
    trace = run(small_cfg("play-fixed-arm", horizon=200))
    np.testing.assert_allclose(trace.loss_B, trace_columns(trace)["loss_star"], atol=1e-9)
    assert trace.summary["regret_vs_best_fixed_arm"] == pytest.approx(0.0, abs=1e-9)


# -- trace consistency ------------------------------------------------------

def test_trace_columns_consistent():
    trace = run(small_cfg(horizon=300))
    T = 300
    cols = trace_columns(trace)
    assert len(cols["t"]) == T and cols["t"][0] == 1 and cols["t"][-1] == T
    # cumulative columns are nondecreasing in a [0,1] loss environment
    for col in (cols["loss_B"], cols["loss_star"], cols["loss_c"]):
        assert np.all(np.diff(col) >= -1e-12)
        assert col[-1] <= T
    # every feedback arrives exactly once within the horizon or is discarded
    assert trace.arrived.sum() <= T
    assert np.all(cols["stage"] >= 1) and np.all(cols["phase"] >= 1)
    assert np.all((cols["alpha"] > 0) & (cols["alpha"] <= 1))


def test_alpha_nondecreasing_within_stage():
    trace = run(small_cfg(horizon=2000, threshold_scale=0.02))
    cols = trace_columns(trace)
    stage, alpha = cols["stage"], cols["alpha"]
    for i in range(1, len(stage)):
        if stage[i] == stage[i - 1]:
            assert alpha[i] >= alpha[i - 1]
    # once alpha reaches 1 it holds until the next hard restart
    at_one = alpha == 1.0
    for i in range(1, len(stage)):
        if at_one[i - 1] and stage[i] == stage[i - 1]:
            assert at_one[i]


def test_no_delay_every_round_arrives():
    trace = run(small_cfg(horizon=100, delay_model="none"))
    np.testing.assert_array_equal(trace.arrived, 1)


def test_environment_of_another_horizon_is_rejected():
    table, delays = build_environment(small_cfg(horizon=200).env)
    with pytest.raises(ConfigError):
        run(small_cfg(horizon=300), table, delays)
    cfg = small_cfg()
    learner = harness.make_learner(cfg, 0, 0.5, build_comparator(cfg.env.arms, cfg.delta, 0))
    with pytest.raises(ConfigError):
        play(learner, table, DelaySequence(delays=delays.delays[:-1]))


def watch_restart_state(learner) -> list[tuple[int, int, float]]:
    """Record the learner's (stage, phase, alpha) right after each act."""
    readings = []
    real_act = learner.act

    def act(t):
        out = real_act(t)
        stage = 1 + sum(r.kind == "hard" for r in learner.restarts)
        readings.append((stage, learner.phase, learner.alpha))
        return out

    learner.act = act
    return readings


def assert_columns_match(readings, stage, phase, alpha):
    want_stage, want_phase, want_alpha = (np.array(c) for c in zip(*readings))
    np.testing.assert_array_equal(stage, want_stage)
    np.testing.assert_array_equal(phase, want_phase)
    np.testing.assert_array_equal(alpha, want_alpha)


def test_play_columns_build_the_trace(monkeypatch, tmp_path):
    # the desk geometric run at threshold_scale 0.02 has both kinds of restart
    cfg = RunConfig(env=EnvironmentConfig(delay_model="geometric"), threshold_scale=0.02)
    real_make_learner, watched = harness.make_learner, []

    def make_learner(*args):
        learner = real_make_learner(*args)
        watched.append(watch_restart_state(learner))
        return learner

    monkeypatch.setattr(harness, "make_learner", make_learner)
    trace = run(cfg)
    assert {r.kind for r in trace.restarts} == {"hard", "soft"}
    [readings] = watched
    csv_path, _ = emit(trace, tmp_path / "run")
    cols = parse_csv(csv_path)
    assert_columns_match(readings, cols["stage"], cols["phase"], cols["alpha"])


def test_play_arm_column_is_the_played_arm():
    cfg = small_cfg(horizon=300)
    table, delays = build_environment(cfg.env)
    learner = harness.make_learner(cfg, 0, 0.5, build_comparator(cfg.env.arms, cfg.delta, 0))
    cols = play(learner, table, delays)
    assert learner.base.records
    for u, rec in learner.base.records.items():
        assert rec.arm == cols.arm[u - 1]


class LoopedDistribution(OneStage):
    """Plays `dist` every round through play's round loop: the per-round
    reference of a PlayDistribution's game, which play builds without it."""

    def __init__(self, dist, sampler):
        self.dist, self.sampler = dist, sampler

    def act(self, t):
        return self.dist, self.sampler.draw(self.dist)

    def receive(self, events, t):
        pass


@st.composite
def fixed_games(draw):
    """(delays, dist) of T <= 300 rounds: zero, long and past-horizon delays,
    and a comparator, a point mass or a random distribution on 1-6 arms."""
    T, A = draw(st.integers(1, 300)), draw(st.integers(1, 6))
    delay = st.just(0) | st.integers(1, T) | st.integers(T, 2**63 - 1)
    d = draw(st.lists(delay, min_size=T, max_size=T))
    kind, arm = draw(st.sampled_from(["comparator", "point", "random"])), draw(st.integers(0, A - 1))
    if kind == "comparator":
        dist = build_comparator(A, draw(st.floats(1e-6, 1.0 / A)), arm)
    elif kind == "point":
        dist = np.eye(A)[arm]
    else:
        dist = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).dirichlet(np.ones(A))
    return DelaySequence(np.array(d, dtype=np.int64)), dist


@settings(max_examples=200, deadline=None)
@given(game=fixed_games(), seed=st.integers(0, 2**16))
@example(game=(DelaySequence(np.array([0, 7, 299, 2**63 - 1] * 75)),
               build_comparator(100, 0.01, 37)), seed=0)
def test_a_fixed_distribution_plays_the_columns_of_the_round_loop(game, seed):
    delays, dist = game
    table = random_table(len(delays), seed, arms=len(dist))
    got = play(PlayDistribution(dist, RngSampler(stream(seed, "act"))), table, delays)
    want = play(LoopedDistribution(dist, RngSampler(stream(seed, "act"))), table, delays)
    for name in ("loss", "arm"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("dist", [[np.nan, 0.5, 0.5], [0.3, 0.3, 0.3], [-0.2, 0.6, 0.6]],
                         ids=["nan", "sum-0.9", "negative"])
def test_a_fixed_non_distribution_is_rejected_in_round_1(dist):
    table, delays = flat_game(3)
    for learner in (PlayDistribution, LoopedDistribution):
        with pytest.raises(ProtocolError, match="not a probability vector") as info:
            play(learner(np.array(dist), RngSampler(stream(0, "act"))), table, delays)
        assert info.value.__notes__ == ["round 1"], learner


def test_a_fixed_distribution_of_another_length_plays_through_the_loop():
    table, delays = flat_game(4)
    for learner in (PlayDistribution, LoopedDistribution):
        with pytest.raises(ConfigError, match="dimension mismatch") as info:
            play(learner(np.full(3, 1.0 / 3), RngSampler(stream(0, "act"))), table, delays)
        assert info.value.__notes__ == ["round 1"], learner


@pytest.mark.parametrize("T, arms, arrived_dtype, arm_dtype",
                         [(2000, 10, np.uint8, np.uint8), (200, 300, np.uint8, np.uint16)])
def test_play_integer_columns_are_as_narrow_as_their_range(T, arms, arrived_dtype, arm_dtype):
    env = EnvironmentConfig(horizon=T, arms=arms, blocks=10, delay_model="geometric")
    table, delays = build_environment(env)
    dist = np.full(arms, 1.0 / arms)
    cols = play(PlayDistribution(dist, RngSampler(stream(0, "act"))), table, delays)
    assert (delays.arrived.dtype, cols.arm.dtype) == (arrived_dtype, arm_dtype)
    played = play(LoopedDistribution(dist, RngSampler(stream(0, "act"))), table, delays).arm
    np.testing.assert_array_equal(cols.arm, played)
    # the queue delivers round u's feedback at the end of round u + d_u <= T
    arrival = np.arange(1, T + 1) + delays.delays
    delivered = np.bincount(arrival[arrival <= T], minlength=T + 1)[1:]
    np.testing.assert_array_equal(delays.arrived, delivered)
    assert delivered.max() > 1  # some round delivers delayed feedback too


def test_play_looks_up_event_and_pseudo_loss_in_harness_every_round(monkeypatch):
    # bench/spans.py times these two by replacing them in harness before a run;
    # a reference taken when harness was imported would hide them from it
    calls = {"FeedbackEvent": 0, "pseudo_loss": 0}

    def counting(name):
        original = getattr(harness, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(harness, name, counting(name))
    run(small_cfg("conservative-ucb", horizon=60))
    assert calls == {"FeedbackEvent": 60, "pseudo_loss": 60}


#: "call" and "c_call" profile events over `run` of the seed-0 desk geometric
#: game of 2000 rounds, after a first run; measured on Python 3.11.7 and
#: numpy 2.4.6, where they repeat exactly
CALLS_PER_GAME = {
    ("prudent-banker", NEG_ENTROPY): (55692, 132005),
    ("prudent-banker", TSALLIS_HALF): (59784, 181908),
    ("banker-omd", NEG_ENTROPY): (50070, 125736),
    ("banker-omd", TSALLIS_HALF): (56692, 188973),
    ("conservative-ucb", NEG_ENTROPY): (14313, 30272),
    ("safe-exp3ix", NEG_ENTROPY): (16298, 46262),
    ("play-comparator", NEG_ENTROPY): (153, 201),
    ("play-fixed-arm", NEG_ENTROPY): (154, 204)}


def calls_per_game(learner, regularizer, T=2000) -> tuple[int, int]:
    """The "call" and "c_call" events of one CALLS_PER_GAME game, as measured there.

    CI prints them for every case on each Python version it tests.
    """
    cfg = RunConfig(env=EnvironmentConfig(horizon=T, delay_model="geometric"),
                    learner=learner, regularizer=regularizer)
    run(cfg)  # a process's first run makes a few more calls than later ones
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(profile)
    try:
        run(cfg)
    finally:
        sys.setprofile(None)
    return counts["call"], counts["c_call"]


@pytest.mark.parametrize("learner, regularizer", list(CALLS_PER_GAME))
def test_calls_per_round_stay_below_the_measured_plus_one(learner, regularizer):
    """The profile counts Python calls and calls of builtins, but a numpy
    ufunc call on arrays (``np.maximum(a, b)``, ``a / b``) and an item store
    (``a[i] = x``) make no profile event, so one of them added to or dropped
    from every round leaves both counts where they were."""
    # one call more in every round fails here before it shows in a timing
    T = 2000
    counts = calls_per_game(learner, regularizer, T)
    for event, count, measured in zip(("call", "c_call"), counts,
                                      CALLS_PER_GAME[learner, regularizer]):
        assert count < measured + T, (event, count / T, measured / T)
        # a change that removes a call every round stores the new count, or a
        # call added back later would pass; the table was measured on 3.11
        if sys.version_info[:2] == (3, 11):
            assert count > measured - T, (event, count / T, measured / T)


# -- properties through play on hand-built delay sequences ------------------

@st.composite
def delay_sequences(draw):
    """T <= 120 rounds, delays up to 3T: dense, sparse or non-increasing."""
    T = draw(st.integers(1, 120))
    d = draw(st.lists(st.integers(0, 3 * T), min_size=T, max_size=T))
    shape = draw(st.sampled_from(["dense", "sparse", "decreasing"]))
    if shape == "sparse":
        keep = draw(st.lists(st.integers(0, 9), min_size=T, max_size=T))
        d = [x if k == 0 else 0 for x, k in zip(d, keep)]
    elif shape == "decreasing":
        d = sorted(d, reverse=True)
    return DelaySequence(delays=np.array(d, dtype=np.int64))


def random_table(T, seed, arms=3):
    return LossTable(np.random.default_rng(seed).random((T, arms)))


@settings(max_examples=300, deadline=None)
@given(delays=delay_sequences(), seed=st.integers(0, 2**16))
def test_banker_outstanding_sum_matches_reference(delays, seed):
    T = len(delays)
    learner = BankerOMDLearner(Regularizer(NEG_ENTROPY, 3, 0.1),
                               RngSampler(stream(seed, "act")))
    play(learner, random_table(T, seed), delays)
    base = learner.base
    assert base.outstanding_sum == outstanding_counters(delays, 1, T)[1]
    # a record lives only while its feedback is outstanding or it holds credit
    assert all(u in base.missing or rec.v > 0.0 for u, rec in base.records.items())


@settings(max_examples=300, deadline=None)
@given(delays=delay_sequences(), seed=st.integers(0, 2**16))
def test_prudent_stage_bound_and_doubling(delays, seed):
    T = len(delays)
    learner = PrudentBanker(ThresholdFunctions(Regularizer(NEG_ENTROPY, 3, 0.1), T, 0.01),
                            build_comparator(3, 0.1, 0), RngSampler(stream(seed, "act")))
    alpha0 = learner.alpha
    readings = watch_restart_state(learner)
    play(learner, random_table(T, seed), delays)
    want = [restart_state(learner.restarts, alpha0, t) for t in range(1, T + 1)]
    assert_columns_match(readings, *zip(*want))
    hard = [r for r in learner.restarts if r.kind == "hard"]
    for r in hard:
        assert r.trigger <= r.new_estimate < 2 * r.trigger
        assert r.new_estimate >= 2 * r.old_estimate
    # ceil(log2 D) + 1 in exact integers; a single stage when D <= 1
    bound = (max(delays.total, 1) - 1).bit_length() + 1
    assert len(hard) + 1 == want[-1][0] <= bound


@settings(max_examples=200, deadline=None)
@given(delays=delay_sequences(), seeds=st.lists(st.integers(0, 2**16), min_size=2, max_size=2))
def test_hard_restarts_depend_only_on_the_delays(delays, seeds):
    # two loss tables and two threshold scales move the soft restarts, not the hard ones
    T = len(delays)
    schedule = stage_schedule(delays)
    for seed in seeds:
        for scale in (1.0, 0.01):
            tf = ThresholdFunctions(Regularizer(NEG_ENTROPY, 3, 0.1), T, scale)
            learner = PrudentBanker(tf, build_comparator(3, 0.1, 0),
                                    RngSampler(stream(seed, "act")))
            play(learner, random_table(T, seed), delays)
            hard = [(r.round, r.trigger, r.new_estimate)
                    for r in learner.restarts if r.kind == "hard"]
            assert hard == schedule, (seed, scale)


@settings(max_examples=200, deadline=None)
@given(T=st.integers(1, 300), arms=st.integers(2, 6), data=st.data())
def test_prudent_banker_stays_within_alpha_of_its_comparator_every_round(T, arms, data):
    """The played point is alpha_t x-hat_t + (1 - alpha_t) x^c, so round t's
    pseudo-loss is <x^c, l_t> + alpha_t <x-hat_t - x^c, l_t>, and its distance
    from <x^c, l_t> is at most alpha_t max_a |l_t(a) - <x^c, l_t>|. Each side
    is a few roundings of numbers in [0, 1], so the bound holds within 1e-12."""
    anchor = data.draw(st.integers(0, arms - 1), label="anchor")
    delta = data.draw(st.floats(1e-3, 1.0 / arms), label="delta")
    scale = data.draw(st.floats(1e-3, 1.0), label="threshold_scale")
    kind = data.draw(st.sampled_from([NEG_ENTROPY, TSALLIS_HALF]), label="regularizer")
    shape = data.draw(st.sampled_from(["zero", "long", "past the horizon"]), label="delays")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    rng = np.random.default_rng(seed)
    losses = rng.random((T, arms))
    delays = {"zero": np.zeros(T, dtype=np.int64),
              "long": rng.integers(0, 2 * T, size=T),
              # round t's feedback would arrive after round T
              "past the horizon": T - np.arange(T) + rng.integers(0, T, size=T)}[shape]
    xc = build_comparator(arms, delta, anchor)
    learner = PrudentBanker(ThresholdFunctions(Regularizer(kind, arms, delta), T, scale), xc,
                            RngSampler(stream(seed, "act")))
    alpha0 = learner.alpha
    loss = play(learner, LossTable(losses), DelaySequence(delays=delays)).loss
    alpha = np.array([restart_state(learner.restarts, alpha0, t)[2] for t in range(1, T + 1)])
    comparator = losses @ xc
    cap = alpha * np.abs(losses - comparator[:, None]).max(axis=1)
    excess = np.abs(loss - comparator) - cap
    assert excess.max() <= 1e-12, (int(excess.argmax()) + 1, float(excess.max()))


# -- serialization ----------------------------------------------------------

def assert_same_csv(got, want):
    """Require got == want (two CSV texts, str or bytes); on a mismatch, fail
    with the first differing line. pytest's own diff of two texts thousands
    of rows long runs for many minutes."""
    if got == want:
        return
    lines = zip_longest(got.splitlines(keepends=True), want.splitlines(keepends=True))
    line, (a, b) = next((i, pair) for i, pair in enumerate(lines, 1) if pair[0] != pair[1])
    pytest.fail(f"CSV texts differ first at line {line}: got {a!r}, want {b!r}")


def test_empty_trace_csv_is_header_only():
    trace = RunTrace(loss_B=np.array([]), best_arm_losses=np.array([]), loss_c=np.array([]),
                     arrived=np.array([], dtype=np.int64), restarts=[], alpha0=1.0,
                     summary={})
    assert_same_csv(trace.csv_string(), CSV_HEADER + "\n")
    cols = trace_columns(trace)
    assert [len(cols[name]) for name in CSV_HEADER.split(",")] == [0] * 8


def soft_restart(round, new_phase, new_alpha) -> RestartRecord:
    return RestartRecord(round, "soft", 0.0, 1, 1, new_phase, new_alpha)


def hard_restart(round, new_phase, new_alpha) -> RestartRecord:
    return RestartRecord(round, "hard", 2.0, 1, 2, new_phase, new_alpha)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_csv_string_matches_formatting_every_entry(data):
    n = data.draw(st.integers(0, 40))
    # -0.0 between two 0.0: formatting must key values by their bits
    floats = st.sampled_from([0.0, -0.0, 0.1, 1.0]) | st.floats()
    # the best arm's losses lie in [0, 1]; a run of -0.0 sums to -0.0
    losses = st.sampled_from([0.0, -0.0, 0.1, 1.0]) | st.floats(0.0, 1.0)

    def column(values, head):
        return np.array(head + data.draw(st.lists(values, min_size=n, max_size=n)))

    ints = st.sampled_from([0, 1, 2, 7]) | st.integers(-2**63, 2**63 - 1)
    # soft restarts in rounds 1..n + 2 set the phase and alpha of rows 2..n + 3
    restarts = [soft_restart(r, phase, alpha) for r, (phase, alpha) in enumerate(
        zip(column(ints, [0, 1]).tolist(), column(floats, [-0.0, 0.0]).tolist()), start=1)]
    trace = RunTrace(loss_B=column(floats, [0.0, -0.0, 0.0]),
                     best_arm_losses=column(losses, [-0.0, -0.0, 0.0]),
                     loss_c=column(floats, [0.0, -0.0, 0.0]),
                     arrived=column(ints, [0, 0, 1]).astype(np.int64), restarts=restarts,
                     alpha0=0.0, summary={})
    assert_same_csv(trace.csv_string(), csv_string_each_entry(trace))


def stepped_trace(T: int, C: int) -> RunTrace:
    """A T-row trace whose stage steps and whose alpha and loss_star turn
    from -0.0 to 0.0 between rows C and C + 1, and whose phase steps every
    other row."""
    t = np.arange(1, T + 1, dtype=np.int64)
    loss = np.cumsum(0.1 * (t % 7))
    star = np.where(t <= C, -0.0, (t % 7) / 7)
    restarts = []
    for r in range(1, T + 1):
        if r == C + 1:
            restarts.append(hard_restart(r, r // 2 + 1, 0.0))  # shows from round r
        if r % 2:
            restarts.append(soft_restart(r, r // 2 + 2, -0.0 if r < C else 0.0))  # from r + 1
    return RunTrace(loss_B=loss, best_arm_losses=star, loss_c=np.sqrt(t), arrived=t % 3,
                    restarts=restarts, alpha0=-0.0, summary={})


# the shipped chunk, a tiny one, and two larger ones, 1024 and 4096
@pytest.mark.parametrize("C", sorted({3, harness.CSV_CHUNK, 1024, 4096}))
@pytest.mark.parametrize("chunks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)],
                         ids=["0", "1", "C-1", "C", "C+1", "2C+1"])
def test_csv_chunks_join_to_the_csv_of_every_entry(monkeypatch, tmp_path, C, chunks, extra):
    T = chunks * C + extra
    monkeypatch.setattr(harness, "CSV_CHUNK", C)
    trace = stepped_trace(T, C)
    want = csv_string_each_entry(trace)
    assert len(list(trace.csv_chunks())) == 1 + -(-T // C)  # the header, then the rows
    assert_same_csv(trace.csv_string(), want)
    csv_path, _ = emit(trace, tmp_path / "run")
    assert_same_csv(csv_path.read_text(), want)


@pytest.mark.parametrize("C", [1, 2, 7])
def test_loss_star_column_is_one_cumsum_of_the_best_arm_column(C):
    # 23 rows are no whole number of 2- or 7-row chunks; the best arm's
    # first losses are -0.0, so the column's first sums are -0.0 too, and
    # at C = 1 and 2 one is carried into the next chunk
    T = 23
    losses = np.random.default_rng(0).random((T, 3))
    losses[:, 1] *= 0.1
    losses[:3, 1] = [-0.0, -0.0, 0.0]
    table = LossTable(losses)
    env = EnvironmentConfig(horizon=T, arms=3, blocks=1, delay_model="none")
    trace = run(RunConfig(env=env, learner="play-fixed-arm"), table,
                DelaySequence(np.zeros(T, dtype=np.int64)))
    with mock.patch.object(harness, "CSV_CHUNK", C):
        text = trace.csv_string()
    istar, total, _ = table.hindsight
    want = np.cumsum(table.losses[:, istar])
    assert istar == 1 and want[:2].tolist() == [-0.0, -0.0] and repr(want[0].item()) == "-0.0"
    star = CSV_HEADER.split(",").index("loss_star")
    got = [line.split(",")[star] for line in text.splitlines()[1:]]
    assert got == [repr(x) for x in want.tolist()]
    assert np.float64(total).tobytes() == want[-1].tobytes()
    assert trace.summary["regret_vs_best_fixed_arm"] == float(trace.loss_B[-1] - want[-1])
    # the trace's column is the table's own, read-only; the table caches no curve
    column = trace.best_arm_losses
    assert np.shares_memory(column, table.losses) and not column.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        column[0] = 0.5
    assert not any(isinstance(value, np.ndarray) for value in table.hindsight)
    assert [name for name, value in vars(table).items()
            if isinstance(value, np.ndarray)] == ["losses"]


class LoggedRestarts(OneStage):
    """Plays arm 0 and reports a given restart log; alpha is the alpha before the game."""

    def __init__(self, alpha0, restarts):
        self.alpha, self.restarts = alpha0, restarts

    def act(self, t):
        return np.array([1.0, 0.0, 0.0, 0.0]), 0

    def receive(self, events, t):
        pass


def logged_restarts_run(T, alpha0, log) -> RunTrace:
    """`run` of a T-round game whose learner reports the restart log `log`."""
    config = RunConfig(env=EnvironmentConfig(horizon=T, arms=4, blocks=1,
                                             delay_model="none"), learner="play-fixed-arm")
    with mock.patch.object(harness, "make_learner",
                           lambda *a: LoggedRestarts(alpha0, list(log))):
        return run(config)


@st.composite
def restart_logs(draw):
    """(C, T, alpha0, log): a restart log of a T-round game, CSV chunks of C rows.

    Restart rounds are drawn near the chunk edges C - 1, C and C + 1 (and
    those of later chunks) and at T as often as anywhere. A round holds a
    hard restart (made in act), a soft one (made in receive) or both, hard
    first. A soft restart at round t and a hard one at t + 1 both take
    effect from round t + 1, so the soft one's phase plays no round, and
    neither does the phase of a soft restart at round T.
    """
    C = draw(st.integers(1, 5))
    T = draw(st.integers(1, 4 * C + 2))
    edges = [r for k in range(1, T // C + 2) for r in (k * C - 1, k * C, k * C + 1)]
    near = st.sampled_from([r for r in edges if 1 <= r <= T] + [T])
    rounds = sorted(set(draw(st.lists(near | st.integers(1, T), max_size=8))))
    alphas = st.sampled_from([0.125, 0.25, 1.0]) | st.floats(0.0, 1.0, exclude_min=True)
    log, phase = [], 1
    for r in rounds:
        for kind in draw(st.sampled_from([("hard",), ("soft",), ("hard", "soft")])):
            phase = 1 if kind == "hard" else phase + 1
            make = hard_restart if kind == "hard" else soft_restart
            log.append(make(r, phase, draw(alphas)))
    return C, T, draw(alphas), log


@example((3, 7, 0.25, [soft_restart(2, 2, 0.5), hard_restart(3, 1, 0.125),
                       soft_restart(7, 2, 0.25)]))
@example((3, 7, 0.25, [hard_restart(3, 1, 0.5), soft_restart(3, 2, 1.0),
                       hard_restart(4, 1, 0.125), soft_restart(6, 2, 0.25)]))
@settings(max_examples=300, deadline=None)
@given(restart_logs())
def test_run_rebuilds_stage_phase_and_alpha_from_the_log(case):
    C, T, alpha0, log = case
    trace = logged_restarts_run(T, alpha0, log)
    with mock.patch.object(harness, "CSV_CHUNK", C):
        text = trace.csv_string()
    want = [restart_state(log, alpha0, t) for t in range(1, T + 1)]
    assert trace.restarts == log and trace.alpha0 == alpha0
    assert_same_csv(text, csv_string_each_entry(trace))
    first = [s[0] for s in restart_segments(log, alpha0, T)]
    assert first[0] == 0 and first == sorted(set(first)) and first[-1] < T
    stage, _, alpha = want[-1]
    # phases counts the (stage, phase) pairs the rows play: a phase that no
    # row plays, such as one started by a soft restart at round T, is not one
    played = {(s, p) for s, p, _ in want}
    assert (trace.summary["stages"], trace.summary["phases"],
            trace.summary["final_alpha"]) == (stage, len(played), alpha)


def test_numpy_scalars_in_the_restart_log_write_the_same_csv():
    # under numpy 2, repr(np.float64(0.5)) is 'np.float64(0.5)'
    def log(i, f):
        return [soft_restart(2, i(2), f(0.5)), hard_restart(3, i(1), f(0.125)),
                soft_restart(5, i(2), f(-0.0)), soft_restart(6, i(3), f(1.0))]

    plain = logged_restarts_run(7, 0.25, log(int, float))
    numpy = logged_restarts_run(7, np.float64(0.25), log(np.int64, np.float64))
    assert_same_csv(numpy.csv_string(), plain.csv_string())
    assert_same_csv(plain.csv_string(), csv_string_each_entry(plain))
    assert numpy.summary == plain.summary


def test_a_phase_that_no_round_plays_is_not_counted(tmp_path):
    # Arm 0 loses 1 in every round and arm 1 none. The feedback of rounds 3
    # and 6 arrives at the end of round 7, where the gap sets off a soft
    # restart; its total delay of 5 sets off a hard restart in act(8), which
    # replaces the soft restart's phase before round 8 plays it.
    env = EnvironmentConfig(horizon=8, arms=2, blocks=1, delay_model="none")
    trace = run(RunConfig(env=env, delta=0.25, threshold_scale=0.05, seed=0),
                LossTable(np.tile([1.0, 0.0], (8, 1))),
                DelaySequence(np.array([0, 0, 4, 0, 0, 1, 2, 0])))
    assert [(r.round, r.kind) for r in trace.restarts] == [(7, "soft"), (8, "hard")]
    csv_path, _ = emit(trace, tmp_path / "run")
    cols = parse_csv(csv_path)
    played = set(zip(cols["stage"].tolist(), cols["phase"].tolist()))
    assert played == {(1, 1), (2, 1)}
    assert trace.summary["phases"] == len(played) == 2
    assert trace.summary["stages"] == 2
    assert trace.summary["final_alpha"] == trace.restarts[-1].new_alpha


@pytest.mark.parametrize("columns", [
    {"loss_B": np.zeros(2), "best_arm_losses": np.zeros(2), "loss_c": np.zeros(2)},
    {"arrived": np.zeros(4, dtype=np.int64)},
    {"loss_c": np.zeros((3, 1))},
    {name: np.zeros((3, 2)) for name in DATA_COLUMNS},
    {name: np.float64(0.0) for name in DATA_COLUMNS}],
    ids=["floats-shorter-than-t", "one-column-longer", "one-column-2d", "all-2d",
         "all-scalar"])
def test_run_trace_rejects_columns_of_other_shapes(columns):
    # t, 1..T, takes its length from arrived
    full = {name: np.zeros(3) for name in DATA_COLUMNS}
    with pytest.raises(ConfigError, match="1-D and of one length"):
        RunTrace(**{**full, **columns}, restarts=[], alpha0=1.0, summary={})


def desk_comparator_run(T: int) -> tuple:
    env = EnvironmentConfig(horizon=T, delay_model="geometric")
    return (RunConfig(env=env, learner="play-comparator"), *build_environment(env))


def traced_peak(call) -> int:
    """Peak bytes that call() allocates and holds at once, by tracemalloc."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_holds_each_trace_column_once():
    # the trace keeps four T-entry columns and rebuilds t, stage, phase and
    # alpha from the restart log; building loss_B over play's loss column and
    # dropping the arm column before loss_c is built keeps the peak near four,
    # not at six
    T = 20000
    args = desk_comparator_run(T)
    assert traced_peak(lambda: run(*args)) <= 5 * T * 8


def test_a_sweep_holds_no_hindsight_curve_and_keeps_integer_columns_narrow():
    # set-up, then three learners on one desk environment, each trace freed
    # only once the next run returns, as sweep does. Beyond the table and the
    # delays the peak was 8.5 columns of T float64 while each run kept its
    # own hindsight curve and int64 arm and arrival columns, and 6.0 with the
    # table's one read-only hindsight curve and uint8/uint16 integer columns;
    # with one comparator curve and one uint16 arrival column for all three
    # runs it is 4.7, and 4.6 with the total delay D summed before the game,
    # not after it. With no hindsight curve at all (a trace reads the best
    # arm's column in the table, and the CSV sums it chunk by chunk) and
    # uint8 arrival counts it is 3.46. A comparator curve per run would add
    # about one column, an arrival column per run an eighth of one, and D's
    # object-dtype sum after the game an eighth of one. The delays, held as
    # int8 here, are not counted
    def sweep(T):
        env = EnvironmentConfig(horizon=T, blocks=min(T, 100), delay_model="geometric")
        table, delays = build_environment(env)
        for learner in ("safe-exp3ix", "conservative-ucb", "play-comparator"):
            trace = run(RunConfig(env=env, learner=learner), table, delays)  # noqa: F841
        assert delays.delays.dtype == np.int8  # the seed-0 maximum is 14
        return table.losses.nbytes + delays.delays.nbytes

    sweep(100)  # a process's first runs allocate a few caches of their own
    T, held = 20000, []
    peak = traced_peak(lambda: held.append(sweep(T)))
    assert peak - held[0] <= 3.5 * T * 8


def test_emit_holds_a_chunk_of_text_not_the_csv(tmp_path):
    # the CSV of a T=20000 desk run is 1.3 MiB of text and its list of rows
    # several times that; one chunk of rows costs the same whatever T is
    peaks = []
    for T in (20000, 40000):
        trace = run(*desk_comparator_run(T))
        peaks.append(traced_peak(lambda: emit(trace, tmp_path / f"run{T}")))
    assert max(peaks) < 2 * 2**20
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]


def test_emit_peak_is_a_small_chunk_of_rows(tmp_path):
    # a 20000-row trace of full-width floats, built without playing a game:
    # emit formats 512 rows at a time, one join over their cells, and peaks
    # near 0.23 MiB; a chunk of 1024 rows would peak near 0.45 MiB
    T = 20000
    rng = np.random.default_rng(0)
    loss = np.cumsum(rng.random(T))
    restarts = [hard_restart(5000, 1, 0.25), soft_restart(12000, 2, 0.5)]
    trace = RunTrace(loss_B=loss, best_arm_losses=rng.random(T), loss_c=np.sqrt(loss),
                     arrived=rng.integers(0, 3, T), restarts=restarts, alpha0=0.125,
                     summary={})
    assert traced_peak(lambda: emit(trace, tmp_path / "run")) <= 0.3 * 2**20


def test_csv_round_trip_exact(tmp_path):
    trace = run(small_cfg(horizon=50))
    path, _ = emit(trace, tmp_path / "out")
    cols, want = parse_csv(path), trace_columns(trace)
    np.testing.assert_array_equal(cols["t"], want["t"])
    np.testing.assert_array_equal(cols["stage"], want["stage"])
    np.testing.assert_array_equal(cols["arrived"], trace.arrived)
    # float columns survive the text round trip bit-for-bit
    for name in ("alpha", "loss_B", "loss_star", "loss_c"):
        np.testing.assert_array_equal(cols[name], want[name])


def test_emit_json_summary(tmp_path):
    import json
    trace = run(small_cfg(horizon=50))
    csv_path, json_path = emit(trace, tmp_path / "out")
    assert csv_path.suffix == ".csv" and json_path.suffix == ".json"
    summary = json.loads(json_path.read_text())
    assert summary == trace.summary


def test_emit_keeps_a_dotted_base(tmp_path):
    csv_path, json_path = emit(run(small_cfg(horizon=50)), tmp_path / "run.v2")
    assert (csv_path.name, json_path.name) == ("run.v2.csv", "run.v2.json")
    assert csv_path.exists() and json_path.exists()


def test_emit_error_keeps_its_type(tmp_path):
    (tmp_path / "out.csv").mkdir()
    with pytest.raises(IsADirectoryError) as exc:
        emit(run(small_cfg(horizon=50)), tmp_path / "out")
    assert exc.value.filename == str(tmp_path / "out.csv")


def test_parse_csv_rejects_foreign_header(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(ConfigError):
        parse_csv(p)


def test_run_is_byte_deterministic(tmp_path):
    texts = []
    for rep in range(2):
        trace = run(small_cfg(horizon=200))
        path, _ = emit(trace, tmp_path / f"rep{rep}")
        texts.append(path.read_bytes())
    assert_same_csv(texts[0], texts[1])


def test_environment_shared_across_learners():
    cfg_a = small_cfg("prudent-banker", horizon=100)
    cfg_b = small_cfg("safe-exp3ix", horizon=100)
    ta, da = build_environment(cfg_a.env)
    tb, db = build_environment(cfg_b.env)
    np.testing.assert_array_equal(ta.losses, tb.losses)
    np.testing.assert_array_equal(da.delays, db.delays)
    # and the comparator curve only depends on the environment
    tr_a = run(cfg_a, ta, da)
    tr_b = run(cfg_b, tb, db)
    np.testing.assert_array_equal(tr_a.loss_c, tr_b.loss_c)


def test_run_rejects_a_lone_or_mismatched_environment():
    cfg = small_cfg(horizon=100)
    table, delays = build_environment(cfg.env)
    with pytest.raises(ConfigError, match="both"):
        run(cfg, table=table)
    with pytest.raises(ConfigError, match="both"):
        run(cfg, delays=delays)
    wide = LossTable(np.hstack([table.losses, table.losses]))
    with pytest.raises(ConfigError, match="4 arms"):
        run(cfg, wide, delays)


# -- config handling --------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        small_cfg(learner="mystery")
    with pytest.raises(ConfigError):
        small_cfg(delta=0.5)  # > 1/arms
    with pytest.raises(ConfigError):
        small_cfg(threshold_scale=-1.0)
    # the config builds the Regularizer whatever the learner, so the kind is
    # checked for every learner
    with pytest.raises(ConfigError, match="regularizer"):
        small_cfg("play-comparator", regularizer="mystery")
    with pytest.raises(ConfigError, match="seed"):
        small_cfg(seed=-1)
    with pytest.raises(ConfigError, match="seed"):
        small_cfg(env_seed=-1)


def test_configs_are_checked_when_built():
    run_config, env_config = RunConfig(), EnvironmentConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        run_config.delta = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        env_config.blocks = 0
    # replace builds a new config, so the copy is checked too
    with pytest.raises(ConfigError, match="delta"):
        dataclasses.replace(run_config, delta=2.0)
    with pytest.raises(ConfigError, match="blocks"):
        dataclasses.replace(env_config, blocks=0)
    with pytest.raises(ConfigError, match="seed"):
        EnvironmentConfig(seed=-1)


def test_run_config_keeps_the_regularizer_it_checked():
    cfg = small_cfg(regularizer="tsallis-half")
    assert (cfg.reg.kind, cfg.reg.arms, cfg.reg.delta) == ("tsallis-half", 4, 0.1)
    # equal configs compare equal whatever their regularizer objects
    assert small_cfg() == small_cfg() and small_cfg().reg is not small_cfg().reg
    assert dataclasses.replace(cfg, delta=0.2).reg.delta == 0.2
    # the thresholds it checked are built on that regularizer and kept too
    assert cfg.thresholds.reg is cfg.reg
    assert (cfg.thresholds.horizon, cfg.thresholds.scale) == (cfg.env.horizon, 1.0)
    a, b = small_cfg(), small_cfg()
    assert a.thresholds is not b.thresholds and a == b and hash(a) == hash(b)
    assert "thresholds" not in repr(a)
    scaled = dataclasses.replace(cfg, delta=0.2, threshold_scale=0.5)
    assert scaled.thresholds.reg is scaled.reg and scaled.thresholds.scale == 0.5


def test_run_config_needs_an_integer_seed():
    with pytest.raises(ConfigError, match="seed must be an integer"):
        small_cfg(seed=1.5)
    assert small_cfg(seed=np.int64(1)) == small_cfg(seed=1)


# -- the stage read-outs of every learner -----------------------------------

def assert_stage_read_outs(name, learner):
    assert isinstance(learner.alpha, float) and 0.0 < learner.alpha <= 1.0
    assert isinstance(learner.delay_estimate, int)
    assert all(r.kind in ("hard", "soft") for r in learner.restarts)
    if name != "prudent-banker":
        assert (learner.alpha, learner.delay_estimate, learner.restarts) == (1.0, 0, ())


@pytest.mark.parametrize("name", harness.LEARNERS)
def test_every_learner_states_its_stage_read_outs(name):
    cfg = small_cfg(name, horizon=100, threshold_scale=0.02)
    table, delays = build_environment(cfg.env)
    istar = table.hindsight[0]
    learner = harness.make_learner(cfg, istar, 0.5,
                                   build_comparator(cfg.env.arms, cfg.delta, istar))
    assert_stage_read_outs(name, learner)
    play(learner, table, delays)
    assert_stage_read_outs(name, learner)
    if name in ("prudent-banker", "banker-omd"):
        assert learner.base.reg is cfg.reg  # the config's own, not a rebuilt one
    if name == "prudent-banker":
        assert learner.tf is cfg.thresholds


READ_OUTS = {"alpha": 1.0, "delay_estimate": 0, "restarts": ()}


@pytest.mark.parametrize("missing", sorted(READ_OUTS))
def test_run_needs_every_stage_read_out(monkeypatch, missing):
    attrs = {"act": lambda self, t: (np.array([1.0, 0.0, 0.0, 0.0]), 0),
             "receive": lambda self, events, t: None,
             **{k: v for k, v in READ_OUTS.items() if k != missing}}
    monkeypatch.setattr(harness, "make_learner", lambda *a: type("Partial", (), attrs)())
    with pytest.raises(AttributeError, match=missing):
        run(small_cfg(horizon=20))


# -- errors raised inside a round -------------------------------------------

class TwoArgError(Exception):
    """Its constructor does not take a single message, so it cannot be rebuilt."""

    def __init__(self, code, detail):
        super().__init__(code, detail)
        self.code = code


class FailingLearner(OneStage):
    """Plays arm 0; raises `exc` from act or receive at round `at`."""

    def __init__(self, exc, at, where):
        self.exc, self.at, self.where = exc, at, where

    def act(self, t):
        if self.where == "act" and t == self.at:
            raise self.exc
        return np.array([1.0, 0.0, 0.0, 0.0]), 0

    def receive(self, events, t):
        if self.where == "receive" and t == self.at:
            raise self.exc


@pytest.mark.parametrize("where", ["act", "receive"])
@pytest.mark.parametrize("make_exc", [lambda: TwoArgError(7, "bad state"),
                                      lambda: NumericalError("no convergence")],
                         ids=["two-arg", "numerical"])
def test_round_error_keeps_object_and_type(monkeypatch, where, make_exc):
    exc = make_exc()
    args = exc.args
    monkeypatch.setattr(harness, "make_learner", lambda *a: FailingLearner(exc, 5, where))
    with pytest.raises(type(exc)) as info:
        run(small_cfg(horizon=20))
    assert info.value is exc
    assert info.value.args == args
    assert info.value.__notes__ == ["round 5"]


class FixedArmLearner(OneStage):
    """Returns `arm` from act every round, whatever the table's arms."""

    def __init__(self, arm, arms):
        self.arm, self.dist = arm, np.full(arms, 1.0 / arms)

    def act(self, t):
        return self.dist, self.arm

    def receive(self, events, t):
        pass


def flat_game(arms, T=3):
    return LossTable(np.full((T, arms), 0.5)), DelaySequence(np.zeros(T, dtype=np.int64))


@pytest.mark.parametrize("arm", [-1, np.int64(-1), 4, np.int64(4)],
                         ids=["-1", "int64(-1)", "A", "int64(A)"])
def test_play_rejects_an_arm_outside_the_table(arm):
    table, delays = flat_game(4)
    with pytest.raises(ProtocolError, match="outside 0..3") as info:
        play(FixedArmLearner(arm, 4), table, delays)
    assert info.value.__notes__ == ["round 1"]


def test_play_rejects_a_negative_arm_its_uint8_column_would_store():
    table, delays = flat_game(256)
    with pytest.raises(ProtocolError) as info:
        play(FixedArmLearner(np.int64(-1), 256), table, delays)  # stored, it reads 255
    assert info.value.__notes__ == ["round 1"]
    cols = play(FixedArmLearner(255, 256), table, delays)
    assert cols.arm.dtype == np.uint8
    assert cols.arm.tolist() == [255, 255, 255]


def test_round_note_appends_to_existing_notes(monkeypatch):
    exc = TwoArgError(1, "x")
    exc.__notes__ = ["earlier"]
    monkeypatch.setattr(harness, "make_learner",
                        lambda *a: FailingLearner(exc, 2, "receive"))
    with pytest.raises(TwoArgError) as info:
        run(small_cfg(horizon=10))
    assert info.value.code == 1
    assert info.value.__notes__ == ["earlier", "round 2"]
