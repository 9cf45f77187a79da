import dataclasses
import math

import numpy as np
import pytest

from prudentbanker.banker import BankerOMD
from prudentbanker.errors import ConfigError
from prudentbanker.harness import RunConfig, build_environment, play, run
from prudentbanker.mirror import NEG_ENTROPY, Regularizer
from prudentbanker.protocol import EnvironmentConfig, FeedbackEvent
from prudentbanker.prudent import (PrudentBanker, ThresholdFunctions,
                                   build_comparator, gap_statistic,
                                   next_delay_estimate)
from prudentbanker.rng import RngSampler, stream

from reference import trace_columns

# C1 = log 100 and C2 = 1 / 0.001 = 1000 exactly
LARGE_TF = ThresholdFunctions(Regularizer(NEG_ENTROPY, 100, 0.001), horizon=50000)
LARGE_C = math.sqrt(math.log(100) * 1000.0)


def make_learner(arms=4, delta=0.1, horizon=100, seed=0, scale=1.0):
    tf = ThresholdFunctions(Regularizer(NEG_ENTROPY, arms, delta), horizon, scale)
    xc = build_comparator(arms, delta, 0)
    return PrudentBanker(tf, xc, RngSampler(stream(seed, "act")))


# -- threshold functions ----------------------------------------------------

def test_thresholds_read_their_constants_from_the_regularizer():
    assert LARGE_TF.reg.constants == (math.log(100), 1000.0)
    assert [f.name for f in dataclasses.fields(ThresholdFunctions)] == ["reg", "horizon", "scale"]


def test_rhat_values():
    assert LARGE_TF.rhat(0) == pytest.approx(3.0 * LARGE_C * math.sqrt(50000))
    assert LARGE_TF.rhat(1) - LARGE_TF.rhat(0) == pytest.approx(
        LARGE_C * 7.0 * math.sqrt(2.0 * math.log(2.0)))
    D = 0
    probes = [LARGE_TF.rhat(D) for D in (0, 1, 2, 4, 100, 10000)]
    assert probes == sorted(probes)


def test_xi_values():
    assert LARGE_TF.xi(0) == 0.0
    assert LARGE_TF.xi(1) == pytest.approx((3.0 - 1.0) / 0.001)
    tf = ThresholdFunctions(Regularizer(NEG_ENTROPY, 2, 0.5), horizon=10)
    assert tf.xi(3) == pytest.approx((5.0 - 1.0) / 0.5)


def test_restart_threshold_composition():
    for D in (0, 1, 7, 1024):
        assert LARGE_TF.restart_threshold(D) == pytest.approx(
            2.0 * LARGE_TF.rhat(D) + LARGE_TF.xi(D))
    assert LARGE_TF.restart_threshold(0) == pytest.approx(
        2.0 * 3.0 * LARGE_C * math.sqrt(50000))
    for D in (1, 2, 8, 512):
        assert LARGE_TF.restart_threshold(2 * D) >= LARGE_TF.restart_threshold(D)


@pytest.mark.parametrize("D", [math.nan, -1])
def test_thresholds_reject_a_bad_delay(D):
    for threshold in (LARGE_TF.rhat, LARGE_TF.xi, LARGE_TF.restart_threshold):
        with pytest.raises(ConfigError, match="D must be nonnegative"):
            threshold(D)


# -- gap statistic ----------------------------------------------------------

def test_gap_statistic_examples():
    xc = np.full(3, 1.0 / 3)
    assert gap_statistic(np.zeros(3), xc) == 0.0
    assert gap_statistic(np.array([1.0, 0.0, 0.0]), xc) == pytest.approx(1.0 / 3)


def test_gap_statistic_vertex_oracle():
    rng = np.random.default_rng(0)
    for _ in range(500):
        A = int(rng.integers(2, 7))
        g = rng.normal(scale=10.0, size=A)
        xc = rng.dirichlet(np.ones(A))
        brute = max(float(np.dot(g, xc) - g[a]) for a in range(A))
        assert gap_statistic(g, xc) == brute


# -- comparator -------------------------------------------------------------

def test_build_comparator():
    xc = build_comparator(100, 0.001, 7)
    assert xc[7] == pytest.approx(0.901)
    assert xc.sum() == pytest.approx(1.0)
    np.testing.assert_allclose(build_comparator(4, 0.25, 2), 0.25)
    np.testing.assert_allclose(build_comparator(2, 0.25, 0), [0.75, 0.25])
    with pytest.raises(ConfigError):
        build_comparator(4, 0.3, 0)


@pytest.mark.parametrize("call, message", [
    (lambda: build_comparator(4, 0.25, 4), "anchor arm out of range"),
    (lambda: build_comparator(4, 0.25, -1), "anchor arm out of range"),
    (lambda: build_comparator(4, 0.1, 1.5), "anchor must be an integer"),
    (lambda: build_comparator(2.5, 0.1, 0), "arms must be an integer"),
    (lambda: build_comparator(0, 0.1, 0), "arms must be at least 1"),
    (lambda: next_delay_estimate(0), "trigger must be at least 1, got 0"),
    (lambda: PrudentBanker(ThresholdFunctions(Regularizer(NEG_ENTROPY, 3, 0.1), 100),
                           np.array([0.5, 0.5]), RngSampler(stream(0, "act"))),
     "comparator dimension mismatch")],
    ids=["anchor-past-the-arms", "anchor-negative", "anchor-not-an-integer",
         "arms-not-an-integer", "arms-zero", "trigger-zero", "comparator-shape"])
def test_prudent_rejects_bad_input(call, message):
    with pytest.raises(ConfigError, match=message):
        call()


@pytest.mark.parametrize("xc, error", [
    ([np.nan, 0.5, 0.5], "every coordinate >= delta"),
    ([0.05, 0.5, 0.5], "every coordinate >= delta"),
    ([0.5, 0.5, 0.5], "sum to 1"),
    ([0.3, 0.3, 0.3], "sum to 1")],
    ids=["nan", "below-delta", "sum-above-1", "sum-below-1"])
def test_prudent_banker_rejects_a_non_probability_comparator(xc, error):
    reg = Regularizer(NEG_ENTROPY, 3, 0.1)
    with pytest.raises(ConfigError, match=error):  # at construction, not in round 1
        PrudentBanker(ThresholdFunctions(reg, 100), np.array(xc), RngSampler(stream(0, "act")))


@pytest.mark.parametrize("horizon, scale, error", [
    (100, 0.0, "threshold_scale"), (100, -1.0, "threshold_scale"),
    (100, math.nan, "threshold_scale"), (100, math.inf, "threshold_scale"),
    (0, 1.0, "horizon"), (-5, 1.0, "horizon"), (2.5, 1.0, "horizon must be an integer")],
    ids=["scale-zero", "scale-negative", "scale-nan", "scale-inf", "horizon-zero",
         "horizon-negative", "horizon-not-an-integer"])
def test_prudent_banker_rejects_bad_thresholds(horizon, scale, error):
    reg = Regularizer(NEG_ENTROPY, 3, 0.1)
    with pytest.raises(ConfigError, match=error):  # at construction, not in round 1
        PrudentBanker(ThresholdFunctions(reg, horizon, scale), build_comparator(3, 0.1, 0),
                      RngSampler(stream(0, "act")))


# -- hard restarts ----------------------------------------------------------

def test_next_delay_estimate_doubling():
    assert next_delay_estimate(3) == 4
    assert next_delay_estimate(4) == 4
    assert next_delay_estimate(5) == 8
    assert next_delay_estimate(1) == 1
    for trigger in range(2, 200):
        est = next_delay_estimate(trigger)
        assert est >= trigger
        assert est < 2 * trigger
        assert est & (est - 1) == 0  # power of two


def test_hard_restart_fires_and_resets():
    learner = make_learner()
    learner.stage_delay = 3
    dist, _ = learner.act(5)
    assert [r.kind for r in learner.restarts] == ["hard"]
    assert learner.delay_estimate == 4
    assert learner.stage_start == 6 and learner.base.phase_start == 6
    assert learner.phase == 1 and learner.stage_delay == 0
    # restart round still plays the mixture anchored at the uniform base point
    expected = learner.alpha * learner.reg.x0 + (1 - learner.alpha) * learner.xc
    np.testing.assert_allclose(dist, expected)
    rec = learner.restarts[-1]
    assert rec.kind == "hard" and rec.new_estimate == 4 and rec.trigger == 3.0


def test_hard_restart_exact_power():
    learner = make_learner()
    learner.stage_delay = 4
    learner.act(5)
    assert learner.delay_estimate == 4


def test_no_hard_restart_below_estimate():
    learner = make_learner()
    learner.delay_estimate = 8
    learner.stage_delay = 8
    learner.act(5)
    assert not learner.restarts and learner.delay_estimate == 8


def test_restart_round_feedback_excluded_from_new_stage():
    learner = make_learner()
    learner.stage_delay = 3
    _, arm = learner.act(5)  # hard restart at round 5
    # feedback for round 5 (origin < new stage start) must not count
    learner.receive([FeedbackEvent(5, arm, 0.5, 7)], 7)
    assert learner.stage_delay == 0
    assert 5 not in learner.base.records


# -- soft restarts ----------------------------------------------------------

def test_soft_restart_doubles_alpha():
    learner = make_learner(horizon=100)
    a1 = learner.alpha
    assert a1 < 1.0
    threshold = learner.tf.restart_threshold(learner.delay_estimate)
    learner.base.g.total[:] = 0.0
    learner.base.g.total[1] = -(2.0 * threshold + 10.0)  # drive min g down: gap > B
    learner.receive([], 10)
    assert learner.phase == 2
    assert learner.alpha == pytest.approx(min(2 * a1, 1.0))
    assert learner.base.phase_start == 11
    assert np.all(learner.base.g.total == 0.0)
    assert learner.restarts[-1].kind == "soft"


def test_soft_restart_not_below_threshold():
    learner = make_learner()
    learner.base.g.total[0] = 1.0
    learner.receive([], 10)
    assert learner.phase == 1


def test_soft_restart_threshold_follows_the_delay_estimate():
    learner = make_learner()
    b1, b4 = (learner.tf.restart_threshold(d) for d in (1, 4))
    learner.stage_delay = 3
    learner.act(5)  # hard restart: D-hat 1 -> 4
    # with anchor arm 0 the gap is (1 - delta) * (-g[1]); place it between B(1) and B(4)
    learner.base.g.total[1] = -0.5 * (b1 + b4) / (1.0 - 0.1)
    learner.receive([], 6)
    assert learner.phase == 1
    learner.base.g.total[1] = -1.01 * b4 / (1.0 - 0.1)
    learner.receive([], 7)
    assert learner.phase == 2 and learner.restarts[-1].kind == "soft"


def test_every_phase_is_entered_by_one_rule():
    """alpha = min(2^(phase-1) / R-hat(D-hat), 1) and B(D-hat), exactly, at the
    first phase and after a hard and a soft restart."""
    def assert_entered(learner, estimate, phase):
        assert (learner.delay_estimate, learner.phase) == (estimate, phase)
        assert learner.alpha == min(2.0 ** (phase - 1) / learner.tf.rhat(estimate), 1.0)
        assert learner.threshold == learner.tf.restart_threshold(estimate)

    learner = make_learner()
    assert_entered(learner, 1, 1)
    assert learner.alpha < 0.25  # doubling alpha twice still leaves it below 1
    learner.stage_delay = 3
    learner.act(5)  # hard restart: D-hat 1 -> 4
    assert_entered(learner, 4, 1)
    hard = learner.restarts[-1]
    assert (hard.kind, hard.old_estimate, hard.new_alpha) == ("hard", 1, learner.alpha)
    learner.base.g.total[1] = -1.01 * learner.threshold / (1.0 - 0.1)  # gap > B(4)
    learner.receive([], 6)  # soft restart: phase 1 -> 2
    assert_entered(learner, 4, 2)
    soft = learner.restarts[-1]
    assert (soft.kind, soft.old_estimate, soft.new_alpha) == ("soft", 4, learner.alpha)


def test_no_soft_restart_at_full_aggression():
    learner = make_learner(scale=1e-9)  # tiny thresholds force alpha = 1
    assert learner.alpha == 1.0
    learner.base.g.total[1] = -1e9
    learner.receive([], 10)
    assert learner.phase == 1  # guard clause


# -- acting -----------------------------------------------------------------

def test_act_mixture_arithmetic():
    xhat = np.array([1.0, 0.0])
    xc = np.array([0.5, 0.5])
    np.testing.assert_allclose(0.5 * xhat + 0.5 * xc, [0.75, 0.25])
    learner = make_learner(arms=2, delta=0.25)
    learner.alpha = 0.5
    dist, _ = learner.act(1)  # prediction at round 1 is uniform
    np.testing.assert_allclose(dist, 0.5 * np.array([0.5, 0.5]) + 0.5 * learner.xc)


def test_act_plays_the_mixture_bit_for_bit_as_alpha_changes():
    """act's distribution is alpha * xhat + (1 - alpha) * x^c to the last bit
    after a direct set of alpha, on a hard-restart round and after a soft restart."""
    learner = make_learner()
    predictions = []

    def begin_round(t, begin_round=learner.base.begin_round):
        xhat = begin_round(t)
        predictions.append(xhat.copy())  # act mixes into xhat in place
        return xhat

    learner.base.begin_round = begin_round

    def assert_mixture(dist, xhat):
        want = learner.alpha * xhat + (1.0 - learner.alpha) * learner.xc
        assert dist.tobytes() == want.tobytes()

    assert_mixture(learner.act(1)[0], predictions[-1])
    learner.alpha = 0.5
    assert_mixture(learner.act(2)[0], predictions[-1])
    learner.stage_delay = 3
    dist, _ = learner.act(3)  # hard restart: plays the mixture at the base point
    assert learner.restarts[-1].kind == "hard" and len(predictions) == 2
    assert_mixture(dist, learner.reg.x0)
    assert_mixture(learner.act(4)[0], predictions[-1])
    learner.base.g.total[1] = -1.01 * learner.threshold / (1.0 - 0.1)
    alpha = learner.alpha
    learner.receive([], 4)  # soft restart: alpha doubles
    assert learner.alpha == 2.0 * alpha
    assert_mixture(learner.act(5)[0], predictions[-1])


def test_played_probabilities_floor_and_weight_cap(monkeypatch):
    weights = []
    real_ingest = BankerOMD.ingest

    def recording_ingest(self, event):
        w = real_ingest(self, event)
        if w is not None:
            weights.append(w)
        return w

    monkeypatch.setattr(BankerOMD, "ingest", recording_ingest)
    cfg = RunConfig(env=EnvironmentConfig(horizon=800, arms=5, blocks=8,
                                          delay_model="geometric", seed=2),
                    delta=0.05, seed=2)
    trace = run(cfg)
    assert np.all(trace_columns(trace)["alpha"] <= 0.5)
    # whenever alpha <= 1/2 every importance weight is at most 2/delta
    assert weights
    assert max(weights) <= 2.0 / 0.05 + 1e-9


# -- run-level invariants ---------------------------------------------------

def test_no_delay_run_single_stage():
    cfg = RunConfig(env=EnvironmentConfig(horizon=1000, arms=4, blocks=10,
                                          delay_model="none", seed=0),
                    delta=0.1, seed=0)
    trace = run(cfg)
    assert trace.summary["stages"] == 1
    assert np.all(trace_columns(trace)["stage"] == 1)
    assert not [r for r in trace.restarts if r.kind == "hard"]


def test_hard_restart_bounds_on_delayed_runs():
    for seed in range(3):
        cfg = RunConfig(env=EnvironmentConfig(horizon=2000, arms=4, blocks=10,
                                              delay_model="geometric", seed=seed),
                        delta=0.1, seed=seed)
        _, delays = build_environment(cfg.env)
        trace = run(cfg)
        hard = [r for r in trace.restarts if r.kind == "hard"]
        assert hard, "geometric delays should trigger hard restarts"
        for r in hard:
            assert r.new_estimate >= r.old_estimate
            assert r.new_estimate < 2 * r.trigger
        D = delays.total
        assert trace.summary["stages"] <= math.ceil(math.log2(D)) + 1


def test_missing_count_bound_during_run():
    # m missing rounds imply their realized delays sum to at least m(m+1)/2
    cfg = RunConfig(env=EnvironmentConfig(horizon=600, arms=4, blocks=6,
                                          delay_model="geometric", seed=1),
                    delta=0.1, seed=1)
    from prudentbanker.harness import make_learner as build
    table, delays = build_environment(cfg.env)
    istar = table.hindsight[0]
    learner = build(cfg, istar, 0.5, build_comparator(4, cfg.delta, istar))
    receive = learner.receive

    def checked_receive(events, t):
        receive(events, t)
        m = len(learner.base.missing)
        realized = sum(delays.delays[u - 1] for u in learner.base.missing)
        assert m * (m + 1) // 2 <= realized

    learner.receive = checked_receive
    play(learner, table, delays)


def test_gap_stays_below_threshold_inside_phases():
    cfg = RunConfig(env=EnvironmentConfig(horizon=1500, arms=4, blocks=10,
                                          delay_model="geometric", seed=4),
                    delta=0.1, threshold_scale=0.02, seed=4)
    from prudentbanker.harness import make_learner as build
    table, delays = build_environment(cfg.env)
    istar = table.hindsight[0]
    learner = build(cfg, istar, 0.5, build_comparator(4, cfg.delta, istar))
    receive = learner.receive

    def checked_receive(events, t):
        restarts_before = len(learner.restarts)
        receive(events, t)
        if len(learner.restarts) == restarts_before and learner.alpha < 1.0:
            gap = gap_statistic(learner.base.g.total, learner.xc)
            assert gap <= learner.tf.restart_threshold(learner.delay_estimate)

    learner.receive = checked_receive
    play(learner, table, delays)
