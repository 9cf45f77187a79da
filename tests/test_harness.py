import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prudentbanker import harness
from prudentbanker.baselines import BankerOMDLearner
from prudentbanker.errors import ConfigError, NumericalError
from prudentbanker.harness import (CSV_HEADER, RunConfig, RunTrace,
                                   best_fixed_arm, build_environment, emit,
                                   load_config_file, play, pseudo_loss, run)
from prudentbanker.mirror import NEG_ENTROPY, Regularizer
from prudentbanker.protocol import (DelaySequence, EnvironmentConfig, LossTable,
                                    outstanding_counters)
from prudentbanker.prudent import PrudentBanker, build_comparator, restart_columns
from prudentbanker.rng import RngSampler, stream

from reference import csv_string_each_entry, parse_csv


def small_cfg(learner="prudent-banker", horizon=300, **kw):
    env = EnvironmentConfig(horizon=horizon, arms=4, blocks=5,
                            delay_model=kw.pop("delay_model", "geometric"),
                            seed=kw.pop("env_seed", 0))
    return RunConfig(env=env, learner=learner, delta=0.1, seed=0, **kw)


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
    istar, curve = best_fixed_arm(LossTable(losses))
    assert istar == 1
    np.testing.assert_allclose(curve, [0.1, 0.2, 1.2])
    # ties resolve to the lowest index
    flat = LossTable(np.full((2, 3), 0.5))
    assert best_fixed_arm(flat)[0] == 0


# -- oracle policies --------------------------------------------------------

def test_play_comparator_matches_comparator_curve():
    trace = run(small_cfg("play-comparator", horizon=200))
    np.testing.assert_allclose(trace.loss_B, trace.loss_c, atol=1e-9)
    assert trace.summary["comparator_gap"] == pytest.approx(0.0, abs=1e-9)


def test_play_best_fixed_arm_has_zero_regret():
    trace = run(small_cfg("play-fixed-arm", horizon=200))
    np.testing.assert_allclose(trace.loss_B, trace.loss_star, atol=1e-9)
    assert trace.summary["regret_vs_best_fixed_arm"] == pytest.approx(0.0, abs=1e-9)


# -- trace consistency ------------------------------------------------------

def test_trace_columns_consistent():
    trace = run(small_cfg(horizon=300))
    T = 300
    assert len(trace.t) == T and trace.t[0] == 1 and trace.t[-1] == T
    # cumulative columns are nondecreasing in a [0,1] loss environment
    for col in (trace.loss_B, trace.loss_star, trace.loss_c):
        assert np.all(np.diff(col) >= -1e-12)
        assert col[-1] <= T
    # every feedback arrives exactly once within the horizon or is discarded
    assert trace.arrived.sum() <= T
    assert np.all(trace.stage >= 1) and np.all(trace.phase >= 1)
    assert np.all((trace.alpha > 0) & (trace.alpha <= 1))


def test_alpha_nondecreasing_within_stage():
    trace = run(small_cfg(horizon=2000, threshold_scale=0.02))
    for i in range(1, len(trace.t)):
        if trace.stage[i] == trace.stage[i - 1]:
            assert trace.alpha[i] >= trace.alpha[i - 1]
    # once alpha reaches 1 it holds until the next hard restart
    at_one = trace.alpha == 1.0
    for i in range(1, len(trace.t)):
        if at_one[i - 1] and trace.stage[i] == trace.stage[i - 1]:
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
        readings.append((learner.stage, learner.phase, learner.alpha))
        return out

    learner.act = act
    return readings


def assert_columns_match(readings, stage, phase, alpha):
    want_stage, want_phase, want_alpha = (np.array(c) for c in zip(*readings))
    np.testing.assert_array_equal(stage, want_stage)
    np.testing.assert_array_equal(phase, want_phase)
    np.testing.assert_array_equal(alpha, want_alpha)


def test_play_columns_build_the_trace():
    # the desk geometric run at threshold_scale 0.02 has both kinds of restart
    cfg = RunConfig(env=EnvironmentConfig(delay_model="geometric"), threshold_scale=0.02)
    table, delays = build_environment(cfg.env)
    trace = run(cfg, table, delays, keep_learner=True)
    assert {r.kind for r in trace.learner.restarts} == {"hard", "soft"}
    istar, _ = best_fixed_arm(table)
    learner = harness.make_learner(cfg, istar, trace.summary["r0"],
                                   build_comparator(cfg.env.arms, cfg.delta, istar))
    readings = watch_restart_state(learner)
    cols = play(learner, table, delays)
    assert_columns_match(readings, trace.stage, trace.phase, trace.alpha)
    np.testing.assert_array_equal(np.cumsum(cols.loss), trace.loss_B)
    # the played arm's loss is the feedback the learner saw
    base = trace.learner.base
    for u, rec in base.records.items():
        assert rec.arm == cols.arm[u - 1]


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
    learner = PrudentBanker(Regularizer(NEG_ENTROPY, 3, 0.1), build_comparator(3, 0.1, 0),
                            T, RngSampler(stream(seed, "act")), threshold_scale=0.01)
    alpha0 = learner.alpha
    readings = watch_restart_state(learner)
    play(learner, random_table(T, seed), delays)
    stage, phase, alpha = restart_columns(learner.restarts, alpha0, T)
    assert_columns_match(readings, stage, phase, alpha)
    hard = [r for r in learner.restarts if r.kind == "hard"]
    for r in hard:
        assert r.trigger <= r.new_estimate < 2 * r.trigger
        assert r.new_estimate >= 2 * r.old_estimate
    # ceil(log2 D) + 1 in exact integers; a single stage when D <= 1
    bound = (max(delays.total, 1) - 1).bit_length() + 1
    assert learner.stage == len(hard) + 1 == stage[-1] <= bound


# -- serialization ----------------------------------------------------------

def test_empty_trace_csv_is_header_only():
    trace = RunTrace(t=np.array([], dtype=np.int64),
                     stage=np.array([], dtype=np.int64),
                     phase=np.array([], dtype=np.int64), alpha=np.array([]),
                     loss_B=np.array([]), loss_star=np.array([]),
                     loss_c=np.array([]), arrived=np.array([], dtype=np.int64),
                     summary={})
    assert trace.csv_string() == CSV_HEADER + "\n"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_csv_string_matches_formatting_every_entry(data):
    n = data.draw(st.integers(0, 40))

    def ints():
        values = st.sampled_from([0, 1, 2, 7]) | st.integers(-2**63, 2**63 - 1)
        return np.array([0, 0, 1] + data.draw(st.lists(values, min_size=n, max_size=n)),
                        dtype=np.int64)

    def floats():
        # -0.0 between two 0.0: formatting must key values by their bits
        values = st.sampled_from([0.0, -0.0, 0.1, 1.0]) | st.floats()
        return np.array([0.0, -0.0, 0.0] + data.draw(st.lists(values, min_size=n,
                                                             max_size=n)))

    trace = RunTrace(t=np.arange(1, n + 4, dtype=np.int64), stage=ints(), phase=ints(),
                     alpha=floats(), loss_B=floats(), loss_star=floats(),
                     loss_c=floats(), arrived=ints(), summary={})
    assert trace.csv_string() == csv_string_each_entry(trace)


def test_csv_round_trip_exact(tmp_path):
    trace = run(small_cfg(horizon=50))
    path, _ = emit(trace, tmp_path / "out")
    cols = parse_csv(path)
    np.testing.assert_array_equal(cols["t"], trace.t)
    np.testing.assert_array_equal(cols["stage"], trace.stage)
    np.testing.assert_array_equal(cols["arrived"], trace.arrived)
    # float columns survive the text round trip bit-for-bit
    for name, ref in (("alpha", trace.alpha), ("loss_B", trace.loss_B),
                      ("loss_star", trace.loss_star), ("loss_c", trace.loss_c)):
        np.testing.assert_array_equal(cols[name], ref)


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
    assert texts[0] == texts[1]


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
    cfg = small_cfg()
    cfg.learner = "mystery"
    with pytest.raises(ConfigError):
        run(cfg)
    cfg = small_cfg()
    cfg.delta = 0.5  # > 1/arms
    with pytest.raises(ConfigError):
        run(cfg)
    cfg = small_cfg(threshold_scale=-1.0)
    with pytest.raises(ConfigError):
        run(cfg)
    # every learner is given the Regularizer, so the kind is checked for every learner
    with pytest.raises(ConfigError, match="regularizer"):
        small_cfg("play-comparator", regularizer="mystery").validate()
    cfg = small_cfg()
    cfg.seed = -1
    with pytest.raises(ConfigError, match="seed"):
        cfg.validate()
    with pytest.raises(ConfigError, match="seed"):
        small_cfg(env_seed=-1).validate()


def test_load_config_file(tmp_path):
    p = tmp_path / "cfg"
    p.write_text("horizon = 500  # rounds\n\nlearner=safe-exp3ix\n")
    assert load_config_file(p) == {"horizon": "500", "learner": "safe-exp3ix"}
    p.write_text("no equals sign\n")
    with pytest.raises(ConfigError):
        load_config_file(p)


# -- errors raised inside a round -------------------------------------------

class TwoArgError(Exception):
    """Its constructor does not take a single message, so it cannot be rebuilt."""

    def __init__(self, code, detail):
        super().__init__(code, detail)
        self.code = code


class FailingLearner:
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


def test_round_note_appends_to_existing_notes(monkeypatch):
    exc = TwoArgError(1, "x")
    exc.__notes__ = ["earlier"]
    monkeypatch.setattr(harness, "make_learner",
                        lambda *a: FailingLearner(exc, 2, "receive"))
    with pytest.raises(TwoArgError) as info:
        run(small_cfg(horizon=10))
    assert info.value.code == 1
    assert info.value.__notes__ == ["earlier", "round 2"]
