import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prudentbanker.banker import BankerOMD, Kahan, RoundRecord, step_size
from prudentbanker.baselines import BankerOMDLearner
from prudentbanker.errors import ConfigError, DomainError, ProtocolError
from prudentbanker.harness import RunConfig, build_environment, make_learner, play
from prudentbanker.mirror import (GRAD_FLOOR, NEG_ENTROPY, TSALLIS_HALF, Regularizer,
                                  grad_psi, grad_psi_star_with_dual)
from prudentbanker.protocol import (DelaySequence, EnvironmentConfig,
                                    FeedbackEvent, LossTable,
                                    generate_block_losses, sample_delays)
from prudentbanker.prudent import PrudentBanker, ThresholdFunctions, build_comparator
from prudentbanker.rng import RngSampler, stream

from reference import credit_schedule, expected_mirror_step_divergence

ENT = Regularizer(NEG_ENTROPY, 4, 0.1)


def plant_arrived(bomd, u, credit, z=None):
    """Insert an already-arrived donor record with the given remaining credit."""
    z = bomd.reg.x0 if z is None else np.asarray(z, float)
    rec = RoundRecord(sigma=credit, v=credit, x=z.copy(), arm=0,
                      dual_z=grad_psi(bomd.reg, z))
    bomd.records[u] = rec
    heapq.heappush(bomd._credit_heap, u)
    return rec


# -- step size --------------------------------------------------------------

def test_step_size_no_delay():
    c1, c2 = ENT.constants
    root = math.sqrt(c2 / c1)
    assert step_size(ENT, 1, 1, 0, 0) == pytest.approx(root)
    for t in (2, 5, 17):
        assert step_size(ENT, t, 1, 0, 0) == pytest.approx(root * math.sqrt(t))
    # phase-relative indexing
    assert step_size(ENT, 12, 10, 0, 0) == pytest.approx(root * math.sqrt(3))


def test_step_size_with_outstanding_feedback():
    c1, c2 = ENT.constants
    expected = math.sqrt(c2 / c1) / (0.5 + 2.0 * math.sqrt(math.log(4.0) / 3.0))
    assert step_size(ENT, 4, 1, 2, 3) == pytest.approx(expected)


def test_step_size_requires_phase_membership():
    with pytest.raises(ProtocolError):
        step_size(ENT, 1, 2, 0, 0)


@pytest.mark.parametrize("kind", [NEG_ENTROPY, TSALLIS_HALF])
def test_one_arm_is_rejected_at_construction(kind):
    # on one arm C1 = 0, and the step size divides by it
    reg = Regularizer(kind, 1, 1.0)
    sampler = RngSampler(stream(0, "act"))
    with pytest.raises(ConfigError, match="at least 2 arms"):
        BankerOMDLearner(reg, sampler)
    with pytest.raises(ConfigError, match="at least 2 arms"):
        PrudentBanker(ThresholdFunctions(reg, 10), [1.0], sampler)


# -- credit allocation ------------------------------------------------------

def test_allocate_no_history_borrows_everything():
    b = BankerOMD(ENT)
    allocation, borrow = b._allocate(1, 3.0)
    assert allocation == [] and borrow == 3.0


def test_allocate_partial_drain():
    b = BankerOMD(ENT)
    rec = plant_arrived(b, 1, credit=5.0)
    allocation, borrow = b._allocate(2, 3.0)
    assert allocation == [(1, 3.0)] and borrow == 0.0
    assert rec.v == 2.0


def test_allocate_greedy_order_then_borrow():
    b = BankerOMD(ENT)
    plant_arrived(b, 1, credit=1.0)
    plant_arrived(b, 2, credit=1.0)
    allocation, borrow = b._allocate(3, 3.0)
    assert allocation == [(1, 1.0), (2, 1.0)] and borrow == 1.0


# -- prediction -------------------------------------------------------------

def test_predict_without_feedback_is_uniform():
    b = BankerOMD(ENT)
    np.testing.assert_allclose(b.begin_round(1), ENT.x0, atol=1e-12)


def test_predict_single_full_donor_returns_its_point():
    b = BankerOMD(ENT)
    z = np.array([0.7, 0.1, 0.1, 0.1])
    sigma2 = step_size(ENT, 2, 1, 0, 0)
    plant_arrived(b, 1, credit=sigma2 + 5.0, z=z)
    np.testing.assert_allclose(b.begin_round(2), z, atol=1e-10)


def test_predict_two_equal_donors_geometric_mean():
    reg = Regularizer(NEG_ENTROPY, 2, 0.25)
    b = BankerOMD(reg)
    z1 = np.array([0.9, 0.1])
    z2 = np.array([0.3, 0.7])
    sigma3 = step_size(reg, 3, 1, 0, 0)
    plant_arrived(b, 1, credit=sigma3 / 2.0, z=z1)
    plant_arrived(b, 2, credit=sigma3 / 2.0, z=z2)
    gm = np.sqrt(z1 * z2)
    np.testing.assert_allclose(b.begin_round(3), gm / gm.sum(), atol=1e-10)


# -- feedback ingestion -----------------------------------------------------

def run_rounds(b, plays, events_by_round):
    """Drive begin/commit/ingest for a scripted sequence; returns what ingest returned."""
    weights = []
    for t, (x, arm) in enumerate(plays, start=1):
        b.begin_round(t)
        b.commit(t, np.asarray(x, float), arm)
        for ev in events_by_round.get(t, []):
            weights.append(b.ingest(ev))
    return weights


def test_ingest_zero_loss_keeps_point():
    b = BankerOMD(ENT)
    x = np.array([0.4, 0.3, 0.2, 0.1])
    assert run_rounds(b, [(x, 2)], {1: [FeedbackEvent(1, 2, 0.0, 1)]}) == [0.0]
    z, _ = grad_psi_star_with_dual(ENT, b.records[1].dual_z)
    np.testing.assert_allclose(z, x, atol=1e-10)


def test_ingest_importance_weight():
    b = BankerOMD(ENT)
    x = np.array([0.25, 0.25, 0.25, 0.25])
    weights = run_rounds(b, [(x, 1)], {1: [FeedbackEvent(1, 1, 0.5, 1)]})
    assert weights == [pytest.approx(2.0)]


def test_ingest_drops_pre_phase_feedback():
    b = BankerOMD(ENT)
    run_rounds(b, [(ENT.x0, 0)], {})
    b.reset(5)
    assert b.ingest(FeedbackEvent(1, 0, 0.5, 4)) is None


def test_ingest_duplicate_raises():
    b = BankerOMD(ENT)
    run_rounds(b, [(ENT.x0, 0)], {1: [FeedbackEvent(1, 0, 0.5, 1)]})
    with pytest.raises(ProtocolError):
        b.ingest(FeedbackEvent(1, 0, 0.5, 1))


def test_ingest_of_uncommitted_round_raises():
    b = BankerOMD(ENT)
    run_rounds(b, [(ENT.x0, 0)], {})
    with pytest.raises(ProtocolError):
        b.ingest(FeedbackEvent(2, 0, 0.5, 3))


@pytest.mark.parametrize("misuse, message", [
    (lambda b: b.commit(1, ENT.x0, 0), "commit without a matching begin_round"),
    (lambda b: run_rounds(b, [(ENT.x0, 0)], {1: [FeedbackEvent(1, 1, 0.5, 1)]}),
     "feedback arm mismatch at round 1"),
    (lambda b: run_rounds(b, [([0.5, 0.5, 0.0, 0.0], 2)], {1: [FeedbackEvent(1, 2, 0.5, 1)]}),
     "played probability 0 at round 1, arm 2")],
    ids=["commit-without-begin", "arm-mismatch", "played-probability-0"])
def test_ledger_misuse_is_a_protocol_error(misuse, message):
    with pytest.raises(ProtocolError, match=message):
        misuse(BankerOMD(ENT))


@pytest.mark.parametrize("kind", [NEG_ENTROPY, TSALLIS_HALF])
def test_ingest_floors_an_exact_zero_coordinate_as_np_maximum_does(kind):
    reg = Regularizer(kind, 4, 0.1)
    x = np.array([0.5, 0.0, 0.3, 0.2])
    b = BankerOMD(reg)
    run_rounds(b, [(x, 2)], {1: [FeedbackEvent(1, 2, 0.7, 1)]})
    theta = grad_psi(reg, np.maximum(x, GRAD_FLOOR))
    theta[2] -= (0.7 / 0.3) / b.records[1].sigma
    assert b.records[1].dual_z.tobytes() == grad_psi_star_with_dual(reg, theta)[1].tobytes()


@pytest.mark.parametrize("kind", [NEG_ENTROPY, TSALLIS_HALF])
def test_ingest_of_a_point_with_a_nan_coordinate_is_a_domain_error(kind):
    reg = Regularizer(kind, 4, 0.1)
    b = BankerOMD(reg)
    with pytest.raises(DomainError):
        run_rounds(b, [([0.5, np.nan, 0.3, 0.2], 2)], {1: [FeedbackEvent(1, 2, 0.7, 1)]})


def kahan_add_on_numpy_scalars(kahan, x, at):
    """Kahan.add as it reads with numpy scalars, the form it must match bit for bit."""
    y = x - kahan._c[at]
    t = kahan.total[at] + y
    kahan._c[at] = (t - kahan.total[at]) - y
    kahan.total[at] = t


KAHAN_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                  1e300, -1e300, 1.0, 1e-16]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.sampled_from(KAHAN_SPECIALS),
                                    st.floats(-1e300, 1e300)),
                          st.integers(0, 2)), max_size=30))
def test_kahan_add_matches_the_numpy_scalar_form(adds):
    got, want = Kahan(3), Kahan(3)
    for x, at in adds:
        got.add(x, at)
        kahan_add_on_numpy_scalars(want, x, at)
        assert got.total.tobytes() == want.total.tobytes()
        assert got._c.tobytes() == want._c.tobytes()


def test_estimator_unbiased_small():
    rng = np.random.default_rng(0)
    x = np.array([0.5, 0.2, 0.2, 0.1])
    loss = np.array([0.3, 0.9, 0.1, 0.6])
    est = np.zeros(4)
    n = 20000
    for _ in range(n):
        a = rng.choice(4, p=x)
        est[a] += loss[a] / x[a]
    est /= n
    se = np.sqrt(loss ** 2 / x * (1 - x)) / np.sqrt(n)  # per-coordinate std errors
    assert np.all(np.abs(est - loss) <= 4 * se + 1e-9)


# -- ledger invariants on a full run ---------------------------------------

def delayed_run(seed=0, T=1500, arms=4, kind=NEG_ENTROPY):
    reg = Regularizer(kind, arms, 1.0 / (2 * arms))
    learner = BankerOMDLearner(reg, RngSampler(stream(seed, "act")))
    env = EnvironmentConfig(horizon=T, arms=arms, blocks=10,
                            delay_model="geometric", seed=seed)
    table = generate_block_losses(env, stream(seed, "losses"))
    delays = sample_delays(env, stream(seed, "delays"))
    play(learner, table, delays)
    return learner.base, table, delays


@st.composite
def delayed_games(draw):
    kind = draw(st.sampled_from([NEG_ENTROPY, TSALLIS_HALF]))
    arms = draw(st.integers(2, 6))
    T = draw(st.integers(2, 80))
    delays = draw(st.lists(st.integers(0, 12), min_size=T, max_size=T))
    return kind, arms, delays, draw(st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("kind", [NEG_ENTROPY, TSALLIS_HALF])
def test_gradient_at_the_uniform_point_has_one_value_in_every_coordinate(kind):
    # begin_round adds the borrow term grad Psi(x0) to theta as one scalar
    for arms in range(2, 101):
        reg = Regularizer(kind, arms, 1.0 / arms)
        dual_x0 = grad_psi(reg, reg.x0)
        assert np.all(dual_x0 == dual_x0[0]), arms


def watch_predictions(base):
    """Check each x-hat of `base` against an out-of-place reference sum.

    The reference always adds the borrow term, zero or not, then each donor's
    term, into a new array. Returns the borrows b_t seen so far.
    """
    allocate, begin, borrows, seen = base._allocate, base.begin_round, [], []

    def spy_allocate(t, sigma):
        allocation, b = allocate(t, sigma)
        seen.append((sigma, b, [(a, base.records[u].dual_z.copy()) for u, a in allocation]))
        return allocation, b

    def checked_begin_round(t):
        xhat = begin(t)
        sigma, b, donors = seen.pop()
        theta = (b / sigma) * base._dual_x0
        for amount, dual_z in donors:
            theta = theta + (amount / sigma) * dual_z
        expected, _ = grad_psi_star_with_dual(base.reg, theta)
        assert np.array_equal(xhat, expected), t
        borrows.append(b)
        return xhat

    base._allocate, base.begin_round = spy_allocate, checked_begin_round
    return borrows


def play_watched(kind, arms, delays, seed):
    """Play a Banker-OMD learner with every x-hat checked; returns its borrows."""
    learner = BankerOMDLearner(Regularizer(kind, arms, 1.0 / (2 * arms)),
                               RngSampler(stream(seed, "act")))
    borrows = watch_predictions(learner.base)
    table = LossTable(np.random.default_rng(seed).random((len(delays), arms)))
    play(learner, table, DelaySequence(delays=np.array(delays, dtype=np.int64)))
    assert len(borrows) == len(delays)
    return borrows


@settings(max_examples=150, deadline=None)
@given(delayed_games())
def test_prediction_matches_out_of_place_reference(case):
    play_watched(*case)


@pytest.mark.parametrize("kind", [NEG_ENTROPY, TSALLIS_HALF])
def test_prediction_reference_covers_both_borrow_cases(kind):
    delays = np.random.default_rng(5).geometric(0.2, size=300) - 1
    borrows = play_watched(kind, 4, delays.tolist(), 5)
    assert 0 < sum(b == 0.0 for b in borrows) < len(borrows)


def test_conservation_and_single_spend():
    base, _, _ = delayed_run()
    assert base.max_conservation_residual <= 1e-9
    assert base.min_credit_seen >= -1e-12


def test_borrow_characterization(monkeypatch):
    # at every borrowing round t, the borrows B_t so far equal sigma_t plus the
    # credits sigma_u of the rounds u still missing: all arrived credit is spent
    allocate, borrows, residuals = BankerOMD._allocate, [], []

    def checked_allocate(self, t, sigma):
        allocation, b = allocate(self, t, sigma)
        assert b >= 0.0  # no clamp: the drain never takes more than b
        if b > 0.0:
            borrows.append(b)
            missing_sigma = math.fsum(self.records[u].sigma for u in self.missing)
            residuals.append(abs(math.fsum(borrows) - sigma - missing_sigma))
        return allocation, b

    monkeypatch.setattr(BankerOMD, "_allocate", checked_allocate)
    for kind in (NEG_ENTROPY, TSALLIS_HALF):
        for seed in (0, 3):
            borrows.clear()
            delayed_run(seed=seed, kind=kind)
    assert residuals and max(residuals) <= 1e-9


def test_stability_expectation_bound():
    rng = np.random.default_rng(7)
    for kind in (NEG_ENTROPY, TSALLIS_HALF):
        reg = Regularizer(kind, 5, 0.05)
        _, c2 = reg.constants
        for _ in range(25):
            # played points keep every coordinate >= delta/2 (safe mixture regime)
            raw = rng.dirichlet(np.ones(5))
            x = 0.5 * raw + 0.5 * np.full(5, 0.2)
            sigma = float(rng.uniform(0.5, 50.0))
            val = expected_mirror_step_divergence(reg, x, sigma)
            assert val <= c2 / sigma + 1e-6


def test_stationary_two_arm_regret_sanity():
    # constant losses (0.3, 0.5): pseudo-regret against arm 1 stays below
    # the coarse (C1 + 2 C2) sqrt(T) budget
    T = 10000
    reg = Regularizer(NEG_ENTROPY, 2, 0.25)
    learner = BankerOMDLearner(reg, RngSampler(stream(0, "act")))
    losses = np.tile(np.array([0.3, 0.5]), (T, 1))
    table = LossTable(losses)
    no_delay = DelaySequence(delays=np.zeros(T, dtype=np.int64))
    regret = float(np.sum(play(learner, table, no_delay).loss)) - 0.3 * T
    c1, c2 = reg.constants
    assert regret <= (c1 + 2 * c2) * math.sqrt(T)
    assert regret >= 0.0


def test_ledger_holds_the_phase_loss_sums():
    # a delayed run with soft and hard restarts: at each phase end the ledger's
    # per-arm sums match the exact sums of the weights ingest applied in it,
    # dropped feedback leaves them alone, and reset zeroes them
    arms, T = 4, 3000
    reg = Regularizer(NEG_ENTROPY, arms, 1.0 / (2 * arms))
    learner = PrudentBanker(ThresholdFunctions(reg, T, 0.02),
                            build_comparator(arms, reg.delta, 0), RngSampler(stream(2, "act")))
    base = learner.base
    applied = [[] for _ in range(arms)]
    seen = {"resets": 0, "dropped": 0}

    def check_sums():
        for total, weights in zip(base.g.total, applied):
            assert math.isclose(total, math.fsum(weights), rel_tol=1e-12)

    def ingest(ev, ingest=base.ingest):
        before = base.g.total.copy()
        w = ingest(ev)
        if w is None:
            seen["dropped"] += 1
            np.testing.assert_array_equal(base.g.total, before)
        else:
            applied[ev.arm].append(w)
        return w

    def reset(phase_start, reset=base.reset):
        check_sums()
        reset(phase_start)
        seen["resets"] += 1
        assert np.all(base.g.total == 0.0)
        for sums in applied:
            sums.clear()

    base.ingest, base.reset = ingest, reset
    env = EnvironmentConfig(horizon=T, arms=arms, blocks=10,
                            delay_model="geometric", seed=2)
    play(learner, generate_block_losses(env, stream(2, "losses")),
         sample_delays(env, stream(2, "delays")))
    check_sums()
    assert seen["resets"] >= 2 and seen["dropped"] >= 1
    assert np.any(base.g.total != 0.0)


# -- the credit schedule depends on the delays alone -------------------------

def recorded_credit_schedule(learner, table, delays):
    """Play `learner` and record (t, sigma_t, allocation, b_t) at each of its drains."""
    base, schedule = learner.base, []
    allocate = base._allocate

    def recording_allocate(t, sigma):
        allocation, b = allocate(t, sigma)
        schedule.append((t, sigma, allocation, b))
        return allocation, b

    base._allocate = recording_allocate
    play(learner, table, delays)
    return schedule


@pytest.mark.parametrize("learner", ["banker-omd", "prudent-banker"])
@settings(max_examples=100, deadline=None)
@given(delayed_games())
def test_credit_schedule_depends_on_the_delays_alone(learner, case):
    # sigma_t reads t, the phase start and the outstanding counts, and the drain
    # reads sigma_t and the credits; no loss or played point enters either.
    # Prudent-Banker at the analysis threshold scale makes no soft restart on
    # these short games, so its phases start at its hard restarts, which the
    # delays alone decide
    kind, arms, delays, seed = case
    delays = DelaySequence(delays=np.array(delays, dtype=np.int64))
    reg = Regularizer(kind, arms, 1.0 / (2 * arms))
    schedules, learners = [], []
    for losses_seed in ([seed, 0], [seed, 1]):  # two independent loss tables
        if learner == "banker-omd":
            played = BankerOMDLearner(reg, RngSampler(stream(seed, "act")))
        else:
            played = PrudentBanker(ThresholdFunctions(reg, len(delays), 1.0),
                                   build_comparator(arms, reg.delta, 0),
                                   RngSampler(stream(seed, "act")))
        table = LossTable(np.random.default_rng(losses_seed).random((len(delays), arms)))
        schedules.append(recorded_credit_schedule(played, table, delays))
        learners.append(played)
    assert schedules[0] == schedules[1]
    if learner == "prudent-banker":
        assert not any(r.kind == "soft" for played in learners for r in played.restarts)


def assert_matches_credit_schedule(recorded, reg, delays, restarts):
    """The recorded drains against reference.credit_schedule on the same phases.

    A phase starts the round after each restart. A hard restart at round r is
    made in act(r), before round r drains, so the oracle's drain at r is left
    out; the ledger's own sums are sequential, so floats agree within 1e-9.
    """
    c1, c2 = reg.constants
    unit = math.sqrt(c2 / c1)  # the oracle's sigma is in units of sqrt(C2/C1)
    hard = {r.round for r in restarts if r.kind == "hard"}
    oracle = [drain for drain in credit_schedule(delays, [1, *(r.round + 1 for r in restarts)])
              if drain[0] not in hard]
    assert [t for t, *_ in recorded] == [t for t, *_ in oracle]
    for (t, sigma, allocation, b), (_, want_sigma, want_allocation, want_b) in zip(recorded,
                                                                                   oracle):
        assert [u for u, _ in allocation] == [u for u, _ in want_allocation], t
        pairs = [(sigma, want_sigma), (b, want_b),
                 *((a, want) for (_, a), (_, want) in zip(allocation, want_allocation))]
        for got, want in pairs:
            assert math.isclose(got / unit, want, rel_tol=1e-9, abs_tol=1e-12), (t, got, want)


@pytest.mark.parametrize("learner", ["banker-omd", "prudent-banker"])
@settings(max_examples=100, deadline=None)
@given(delayed_games())
def test_credit_schedule_matches_the_reference(learner, case):
    # Prudent-Banker at threshold scale 0.001 makes soft restarts in some of
    # these games, and hard ones in most
    kind, arms, delays, seed = case
    delays = DelaySequence(delays=np.array(delays, dtype=np.int64))
    reg = Regularizer(kind, arms, 1.0 / (2 * arms))
    if learner == "banker-omd":
        played = BankerOMDLearner(reg, RngSampler(stream(seed, "act")))
    else:
        played = PrudentBanker(ThresholdFunctions(reg, len(delays), 0.001),
                               build_comparator(arms, reg.delta, 0),
                               RngSampler(stream(seed, "act")))
    table = LossTable(np.random.default_rng(seed).random((len(delays), arms)))
    recorded = recorded_credit_schedule(played, table, delays)
    assert_matches_credit_schedule(recorded, reg, delays, played.restarts)


@pytest.mark.parametrize("delay_model, kinds", [("none", {"soft"}), ("geometric", {"hard"})])
def test_desk_credit_schedule_matches_the_reference(delay_model, kinds):
    # two of the golden runs: soft restarts without delay, hard ones under delay
    config = RunConfig(env=EnvironmentConfig(horizon=500, blocks=5, delay_model=delay_model),
                       threshold_scale=0.02)
    table, delays = build_environment(config.env)
    istar = table.hindsight[0]
    learner = make_learner(config, istar, 0.5,
                           build_comparator(config.env.arms, config.delta, istar))
    recorded = recorded_credit_schedule(learner, table, delays)
    assert {r.kind for r in learner.restarts} == kinds
    assert_matches_credit_schedule(recorded, config.reg, delays, learner.restarts)
