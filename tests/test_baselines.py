import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prudentbanker.baselines import (ConservativeUCB, SafeExp3IX, cucb_bounds,
                                     exp3ix_rate)
from prudentbanker.errors import ConfigError
from prudentbanker.protocol import FeedbackEvent
from prudentbanker.rng import RngSampler, stream

from reference import cucb_bounds_masked


def fresh_cucb(arms=4, r0=0.6, alpha_safe=0.1, horizon=1000):
    return ConservativeUCB(arms, default_arm=0, r0=r0, alpha_safe=alpha_safe,
                           horizon=horizon)


def kept_statistics(n_obs, sums, default_arm, r0):
    """The (n, mean) that ConservativeUCB keeps for the raw counts and sums."""
    n = np.maximum(n_obs, 1.0)
    mean = sums / n
    n[default_arm] = math.inf
    mean[default_arm] = r0
    return n, mean


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a.view(np.int64), b.view(np.int64))


# -- Conservative-UCB -------------------------------------------------------

def test_cucb_unobserved_and_default_bounds():
    c = fresh_cucb()
    lcb, ucb = cucb_bounds(c.n, c.mean, 0, c.arms, c.delta_ucb)
    np.testing.assert_allclose(lcb[1:], 0.0)
    np.testing.assert_allclose(ucb[1:], 1.0)
    assert lcb[0] == ucb[0] == 0.6  # default arm collapsed to r0


def test_cucb_bound_formula():
    arms, t0, delta_ucb = 100, 99, 2e-5
    n_obs = np.zeros(arms, dtype=np.int64)
    sums = np.zeros(arms)
    n_obs[5] = 8
    sums[5] = 4.0  # mean 0.5
    lcb, ucb = cucb_bounds(*kept_statistics(n_obs, sums, 0, 0.6), t0, arms, delta_ucb)
    c = math.sqrt(2.0 * math.log(max(3.0, 2 * arms * (t0 + 1) ** 2 / delta_ucb)) / 8)
    assert lcb[5] == max(0.0, 0.5 - c)
    assert ucb[5] == min(1.0, 0.5 + c)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cucb_bounds_match_masked_reference(data):
    arms = data.draw(st.integers(1, 12))
    # counts of every magnitude: only with large ones do the bounds leave the clamps
    counts = st.one_of(st.just(0), st.integers(0, 6).flatmap(lambda k: st.integers(1, 10**k)))
    # ConservativeUCB keeps its counts as float64
    n_obs = np.array(data.draw(st.lists(counts, min_size=arms, max_size=arms)),
                     dtype=data.draw(st.sampled_from([np.int64, np.float64])))
    sums = np.array([data.draw(st.floats(0.0, float(n))) for n in n_obs.tolist()])
    t0, delta_ucb = data.draw(st.integers(0, 10**6)), data.draw(st.floats(1e-9, 0.5))
    default_arm, r0 = data.draw(st.integers(0, arms - 1)), data.draw(st.floats(0.0, 1.0))
    kept = kept_statistics(n_obs, sums, default_arm, r0)
    # the same bits, not merely equal values
    for got, want in zip(cucb_bounds(*kept, t0, arms, delta_ucb),
                         cucb_bounds_masked(n_obs, sums, t0, arms, delta_ucb, default_arm, r0)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cucb_game_matches_masked_reference_every_round(data):
    arms = data.draw(st.integers(1, 12))
    default_arm = data.draw(st.integers(0, arms - 1))
    r0, alpha_safe = data.draw(st.floats(0.0, 1.0)), data.draw(st.floats(0.0, 1.0))
    T = data.draw(st.integers(1, 200))
    # short delays: some rounds deliver several events, often of one arm
    delays = data.draw(st.lists(st.integers(0, 6), min_size=T, max_size=T))
    losses = data.draw(st.lists(st.floats(0.0, 1.0), min_size=T, max_size=T))
    c = ConservativeUCB(arms, T, default_arm, r0, alpha_safe=alpha_safe)
    pending = {}
    for t in range(1, T + 1):
        lcb, ucb = cucb_bounds_masked(c.n_obs, c.sums, t - 1, arms, c.delta_ucb,
                                      default_arm, r0)
        want = int(ucb.argmax())
        if not float(c.n_play.dot(lcb)) + lcb.item(want) >= (1.0 - alpha_safe) * t * r0:
            want = default_arm
        _, arm = c.act(t)
        assert arm == want, t
        arrival = t + delays[t - 1]
        pending.setdefault(arrival, []).append(FeedbackEvent(t, arm, losses[t - 1], arrival))
        events = pending.pop(t, [])
        # origins arrive in any order within a round
        c.receive(data.draw(st.permutations(events)), t)
        n, mean = kept_statistics(c.n_obs, c.sums, default_arm, r0)
        assert same_bits(c.n, n) and same_bits(c.mean, mean), t


def test_cucb_first_round_plays_default():
    c = fresh_cucb(r0=0.6, alpha_safe=0.1)
    # candidate has UCB 1 but LCB 0; budget 0 < 0.9 * r0
    dist, arm = c.act(1)
    assert arm == 0 and dist[0] == 1.0


def test_cucb_alpha_one_always_optimistic():
    c = fresh_cucb(alpha_safe=1.0)
    for t in range(1, 20):
        _, arm = c.act(t)
        assert arm == 1  # first unobserved non-default arm (ties to lowest UCB index)
        # note: default arm 0 has UCB r0 < 1, so arm 1 wins the argmax


def test_cucb_budget_invariant_per_round():
    rng = np.random.default_rng(0)
    c = fresh_cucb(arms=3, r0=0.5, horizon=400)
    pending = []
    for t in range(1, 401):
        t0 = t - 1
        lcb, _ = cucb_bounds(c.n, c.mean, t0, c.arms, c.delta_ucb)
        _, arm = c.act(t)
        if arm != c.default_arm:
            # replaying the documented test: the play must have been certified
            budget = float(np.dot(c.n_play, lcb)) - lcb[arm] + lcb[arm]  # includes this play
            assert budget >= (1 - c.alpha_safe) * (t0 + 1) * c.r0 - 1e-9
        pending.append(FeedbackEvent(t, arm, float(rng.random()), t + int(rng.integers(0, 4))))
        arriving = [e for e in pending if e.arrival_round == t]
        pending = [e for e in pending if e.arrival_round > t]
        c.receive(arriving, t)


def test_cucb_ignores_arrival_order_within_round():
    events = [FeedbackEvent(1, 1, 0.2, 3), FeedbackEvent(2, 2, 0.7, 3)]
    a, b = fresh_cucb(), fresh_cucb()
    a.receive(events, 3)
    b.receive(events[::-1], 3)
    for t in range(1, 30):
        da, aa = a.act(t)
        db, ab = b.act(t)
        assert aa == ab
        np.testing.assert_array_equal(da, db)


# -- Safe-EXP3-IX -----------------------------------------------------------

def test_exp3ix_rate_formula():
    eta = exp3ix_rate(100, 50000)
    assert eta == pytest.approx(math.sqrt(math.log(100) / 5e6))
    assert eta == pytest.approx(9.6e-4, rel=0.01)
    assert exp3ix_rate(2, 1) == 0.5  # capped at 1/2


def make_safe(arms=3, r0=0.5, alpha_safe=0.1, seed=0, horizon=1000):
    return SafeExp3IX(arms, horizon, default_arm=0, r0=r0,
                      sampler=RngSampler(stream(seed, "a")), alpha_safe=alpha_safe)


def test_safe_exp3ix_first_round_default():
    s = make_safe()
    dist, arm = s.act(1)  # budget 0 < 0.9 * r0
    assert arm == 0 and dist[0] == 1.0
    assert s.budget == pytest.approx(0.5)  # default credited immediately


def test_safe_exp3ix_vacuous_gates():
    for s in (make_safe(alpha_safe=1.0), make_safe(r0=0.0)):
        dist, _ = s.act(1)
        np.testing.assert_allclose(dist, 1.0 / 3)  # base learner acted


@pytest.mark.parametrize("alpha_safe", [-0.1, 1.5, 5.0, float("nan")])
def test_safe_baselines_reject_alpha_safe_outside_unit_interval(alpha_safe):
    # above 1 the required budget (1 - alpha) r0 t is negative: the gate never fires
    for build in (make_safe, fresh_cucb):
        with pytest.raises(ConfigError, match="alpha_safe"):
            build(alpha_safe=alpha_safe)


@pytest.mark.parametrize("field, value", [
    ("arms", 0), ("arms", -1), ("arms", 3.0), ("horizon", 0), ("horizon", True),
    ("default_arm", -1), ("default_arm", 3), ("default_arm", 5), ("default_arm", 1.0),
    ("r0", float("nan")), ("r0", 2.0), ("r0", -0.1)])
def test_safe_baselines_reject_bad_settings(field, value):
    settings = {"arms": 3, "horizon": 100, "default_arm": 0, "r0": 0.5, field: value}
    args = settings.values()  # both classes take (arms, horizon, default_arm, r0, ...)
    with pytest.raises(ConfigError, match=field):
        ConservativeUCB(*args)
    with pytest.raises(ConfigError, match=field):
        SafeExp3IX(*args, RngSampler(stream(0, "a")))
    if field in ("arms", "horizon"):
        with pytest.raises(ConfigError, match=field):
            exp3ix_rate(settings["arms"], settings["horizon"])


@pytest.mark.parametrize("build", [fresh_cucb, make_safe])
def test_safe_baselines_fall_back_to_a_read_only_row_of_their_point_masses(build):
    learner = build(arms=4, r0=0.6)
    for t in (1, 2):  # budgets 0 and r0 fall short of 0.9 r0 and 1.8 r0
        dist, arm = learner.act(t)
        assert arm == learner.default_arm
        assert dist.base is learner.point_masses
        assert dist.tobytes() == np.eye(4)[learner.default_arm].tobytes()
        with pytest.raises(ValueError, match="read-only"):
            dist[arm] = 0.5


def test_exp3ix_update_rules():
    s = make_safe(alpha_safe=1.0)
    q, arm = s.act(1)
    before = s.log_w.copy()
    s.receive([FeedbackEvent(1, arm, 0.0, 1)], 1)
    np.testing.assert_array_equal(s.log_w, before)  # zero loss: no change

    q, arm = s.act(2)
    s.receive([FeedbackEvent(2, arm, 1.0, 2)], 2)
    expected = before.copy()
    expected[arm] -= s.eta * 1.0 / (q[arm] + s.gamma)
    np.testing.assert_allclose(s.log_w, expected)


def test_exp3ix_estimator_value():
    gamma = exp3ix_rate(4, 100) / 2
    assert 1.0 / (0.5 + gamma) == pytest.approx(1.0 / (0.5 + gamma))
    s = SafeExp3IX(4, 100, 0, 0.0, RngSampler(stream(0, "a")))
    s._q_played[1] = 0.5
    s.receive([FeedbackEvent(1, 2, 1.0, 1)], 1)
    assert s.log_w[2] == pytest.approx(-s.eta / (0.5 + s.gamma))


def test_safe_exp3ix_default_round_feedback_not_replayed():
    s = make_safe()
    _, arm = s.act(1)  # default round, credited r0
    budget_after_act = s.budget
    s.receive([FeedbackEvent(1, arm, 0.3, 1)], 1)
    assert s.budget == budget_after_act  # no double credit
    np.testing.assert_array_equal(s.log_w, np.zeros(3))  # no weight update


def test_safe_exp3ix_arrival_order_invariance():
    def drive(order):
        s = SafeExp3IX(3, 50, 0, 0.4, RngSampler(stream(9, "tape")))
        actions = []
        pending = {}
        for t in range(1, 51):
            _, arm = s.act(t)
            actions.append(arm)
            pending.setdefault(t + (t % 3), []).append(
                FeedbackEvent(t, arm, (t % 7) / 7.0, t + (t % 3)))
            events = pending.pop(t, [])
            s.receive(events if order else events[::-1], t)
        return actions
    assert drive(True) == drive(False)
