import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prudentbanker import lowerbound as lb
from prudentbanker.errors import ConfigError, PreconditionError, ProtocolError
from prudentbanker.protocol import DelaySequence
from prudentbanker.rng import stream

from reference import block_losses_by_block, bucket_inequalities_by_definition, native_play


def random_admissible(rng, T):
    """Positive, non-increasing delays with d_t <= T + 1 - t."""
    d = np.sort(rng.integers(1, T + 1, size=T))[::-1]
    caps = T + 1 - np.arange(1, T + 1)
    return DelaySequence(delays=np.minimum(d, caps).astype(np.int64))


# -- greedy buckets ---------------------------------------------------------

def test_buckets_unit_delays():
    decomp = lb.greedy_buckets(DelaySequence(delays=np.ones(3, dtype=np.int64)))
    assert decomp.boundaries == (1, 2, 3, 4)
    assert decomp.lengths == (1, 1, 1)


def test_buckets_structured_q2():
    decomp = lb.greedy_buckets(lb.corollary_delays(2, 2))
    assert decomp.boundaries == (1, 3, 5, 7)


def test_bucket_preconditions():
    with pytest.raises(PreconditionError):
        lb.greedy_buckets(DelaySequence(delays=np.array([1, 2, 1])))  # increasing
    with pytest.raises(PreconditionError):
        lb.greedy_buckets(DelaySequence(delays=np.array([1, 1, 0])))  # zero delay
    with pytest.raises(PreconditionError):
        lb.greedy_buckets(DelaySequence(delays=np.array([5, 2, 1])))  # d_1 > T


def test_bucket_inequalities_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        T = int(rng.integers(1, 60))
        delays = random_admissible(rng, T)
        assert lb.bucket_inequalities(lb.greedy_buckets(delays), delays) == (True, True, True)


@pytest.mark.parametrize("boundaries, d, expected", [
    ((1, 2, 4), [0, 0, 0], (False, True, True)),  # lengths (1, 2) increase
    ((1, 3, 4), [0, 0, 5], (True, False, True)),  # L_1^2 = 4 < 5, V_1 = 5 holds
    ((1, 2, 3), [0, 9], (True, False, False)),    # V_1 = 2 < 9 (dom implies suffix)
], ids=["mono", "dom", "suffix"])
def test_bucket_inequalities_catch_a_broken_partition(boundaries, d, expected):
    decomp = lb.BucketDecomposition(boundaries=boundaries)
    assert lb.bucket_inequalities(decomp, DelaySequence(delays=np.array(d))) == expected


@pytest.mark.parametrize("boundaries", [(1, 2, 5), (1, 2), (2, 3, 4), (1, 3, 2, 4), (1, 1, 4)],
                         ids=["past-T", "short", "late-start", "falling", "empty-bucket"])
def test_bucket_inequalities_reject_a_decomposition_that_does_not_tile(boundaries):
    decomp = lb.BucketDecomposition(boundaries=boundaries)
    with pytest.raises(PreconditionError, match="do not tile rounds 1..3"):
        lb.bucket_inequalities(decomp, DelaySequence(delays=np.ones(3, dtype=np.int64)))


@st.composite
def tilings(draw):
    """A random tiling of T <= 80 rounds and delays in [0, 3T].

    The delays range wide enough that each of the three facts both holds and fails.
    """
    T = draw(st.integers(1, 80))
    cuts = draw(st.sets(st.integers(2, T), max_size=T - 1)) if T > 1 else set()
    d = draw(st.lists(st.integers(0, 3 * T), min_size=T, max_size=T))
    return (lb.BucketDecomposition(boundaries=(1, *sorted(cuts), T + 1)),
            DelaySequence(delays=np.array(d, dtype=np.int64)))


@settings(max_examples=500, deadline=None)
@given(case=tilings())
def test_bucket_inequalities_match_the_definition(case):
    decomp, delays = case
    expected = bucket_inequalities_by_definition(decomp, delays)
    assert lb.bucket_inequalities(decomp, delays) == expected


# -- structured delays ------------------------------------------------------

def test_corollary_delays_closed_form():
    d = lb.corollary_delays(1, 3)
    assert list(d.delays) == [1, 1, 1, 1]
    assert d.total == 4
    d = lb.corollary_delays(2, 2)
    assert d.total == 2 * 4 + 3 == 11
    for q in (1, 2, 5):
        for N in (1, 2, 4):
            d = lb.corollary_delays(q, N)
            assert d.total == N * q * q + q * (q + 1) // 2
            assert lb.greedy_buckets(d).lengths == tuple([q] * (N + 1))


# -- hard instances ---------------------------------------------------------

def test_hard_instance_arithmetic():
    inst = lb.HardInstancePair((2, 2, 2), 0.25, arms=2)
    assert inst.V == 12
    assert inst.gamma == pytest.approx(1.0 / (32.0 * math.sqrt(0.5)))
    assert inst.gamma == pytest.approx(0.04419, abs=1e-5)
    for e in inst.eps:
        assert e == pytest.approx(0.02552, abs=1e-5)
        assert e <= 0.25


def test_hard_instance_preconditions():
    # boundary delta = L1/(64 V) accepted
    lb.HardInstancePair((2, 2, 2), 2.0 / (64.0 * 12.0), arms=2)
    with pytest.raises(PreconditionError):
        lb.HardInstancePair((2, 2, 2), 1.0 / (64.0 * 12.0), arms=2)
    with pytest.raises(PreconditionError):
        lb.HardInstancePair((2, 2, 2), 0.6, arms=2)  # delta > 1/A
    with pytest.raises(PreconditionError, match="need at least one block length"):
        lb.HardInstancePair((), 0.25)


@st.composite
def instance_args(draw):
    """1-6 block lengths in 1..20, 2-4 arms, and two deltas drawn from NaN, 0,
    [0, 1], and L_1/(64 V) and 1/arms with a neighbouring float on each side."""
    lengths = tuple(draw(st.lists(st.integers(1, 20), min_size=1, max_size=6)))
    arms = draw(st.integers(2, 4))
    edges = (lengths[0] / (64.0 * sum(L * L for L in lengths)), 1.0 / arms)
    near = [math.nextafter(e, side) for e in edges for side in (0.0, 1.0)]
    delta = st.one_of(st.sampled_from([math.nan, 0.0, *edges, *near]), st.floats(0.0, 1.0))
    return lengths, arms, draw(delta), draw(delta)


def outcome(f, *args, **kwargs):
    """f's result, or the type and message of the ConfigError it raised."""
    try:
        return f(*args, **kwargs)
    except ConfigError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(instance_args())
def test_hard_instance_checks_and_derives_when_built(args):
    lengths, arms, delta, other = args
    L1, V = lengths[0], sum(L * L for L in lengths)
    inst = outcome(lb.HardInstancePair, lengths, delta, arms)
    if not L1 / (64.0 * V) <= delta <= 1.0 / arms:  # NaN fails too
        assert inst[0] is PreconditionError
        return
    gamma = 1.0 / (32.0 * math.sqrt(L1 * delta))
    assert (inst.lengths, inst.delta, inst.arms) == (lengths, delta, arms)
    assert (inst.gamma, inst.V) == (gamma, V)
    assert inst.eps == tuple(gamma * L / math.sqrt(V) for L in lengths)
    # a copy with another delta is checked and derived anew
    expected = outcome(lb.HardInstancePair, lengths, other, arms)
    assert outcome(dataclasses.replace, inst, delta=other) == expected


def test_a_replaced_copy_has_no_stale_gamma():
    inst = dataclasses.replace(lb.HardInstancePair((2, 2, 2), 0.25), delta=0.1)
    assert inst.gamma == pytest.approx(1.0 / (32.0 * math.sqrt(0.2)))  # 0.0699, not 0.0442
    with pytest.raises(PreconditionError, match="delta <= 1/arms"):
        dataclasses.replace(inst, delta=0.9)


@pytest.mark.parametrize("lengths, arms, name", [
    ((2.5, 1.9), 2, "block length"), ((2, 2.0), 2, "block length"), ((2, 2), 2.0, "arms")],
    ids=["fractional-lengths", "float-length", "float-arms"])
def test_hard_instance_needs_integer_lengths_and_arms(lengths, arms, name):
    # (2.5, 1.9) would otherwise play blocks (2, 1), and arms=2.0 fail in block_losses
    with pytest.raises(ConfigError, match=f"{name} must be an integer"):
        lb.HardInstancePair(lengths, 0.25, arms)


def test_hard_instance_accepts_numpy_integers():
    inst = lb.HardInstancePair(np.array([3, 2]), 0.2, np.int64(3))
    assert inst == lb.HardInstancePair((3, 2), 0.2, 3)
    assert all(type(L) is int for L in inst.lengths)


def test_derived_fields_are_not_arguments():
    with pytest.raises(TypeError, match="gamma"):
        lb.HardInstancePair((2, 2), 0.25, gamma=0.1)
    with pytest.raises(ValueError, match="gamma"):
        dataclasses.replace(lb.HardInstancePair((2, 2), 0.25), gamma=0.1)


def test_sign_flip_changes_only_biased_arm():
    inst = lb.HardInstancePair((3, 2), 0.2, arms=3)
    plus = inst.block_losses(+1, stream(0, "bl"))
    minus = inst.block_losses(-1, stream(0, "bl"))
    assert plus.shape == minus.shape == (5, 3)
    np.testing.assert_array_equal(plus[:, [0, 2]], 0.5)
    np.testing.assert_array_equal(plus[:, [0, 2]], minus[:, [0, 2]])
    # coupled draws: the two environments' biased-arm means differ by 2 eps
    assert np.all(plus[:, lb.SPECIAL_ARM] >= minus[:, lb.SPECIAL_ARM])


@pytest.mark.parametrize("lengths, arms", [((5, 3, 1), 2), ((1, 4), 3), ((2, 7, 2, 1), 4)])
@pytest.mark.parametrize("sign", [+1, -1])
def test_block_losses_match_the_per_block_draw(lengths, arms, sign):
    inst = lb.HardInstancePair(lengths, 0.2, arms=arms)
    rng, ref_rng = stream(3, "bl"), stream(3, "bl")
    table = inst.block_losses(sign, rng)
    expected = np.vstack(block_losses_by_block(inst, sign, ref_rng))
    assert (table.shape, table.dtype) == (expected.shape, expected.dtype)
    assert table.tobytes() == expected.tobytes()
    assert rng.random() == ref_rng.random()  # the same draws, no more


def test_hard_instance_comparator_anchors_arm_1():
    inst = lb.HardInstancePair((3, 2), 0.2, arms=3)
    np.testing.assert_array_equal(inst.comparator, [1 - 2 * 0.2, 0.2, 0.2])


def test_hard_instance_mean_bias():
    inst = lb.HardInstancePair((4,), 0.25, arms=2)
    rng = stream(1, "bl")
    draws = np.array([inst.block_losses(+1, rng)[:, 1] for _ in range(20000)])
    assert draws.mean() == pytest.approx(0.5 + inst.eps[0], abs=0.005)


# -- delayed-to-batched simulation -----------------------------------------

def assert_identity(inst, delays, seed, j=1):
    """The batched play equals the native one: arms, pseudo-losses and regret."""
    cols, regret = lb.batched_simulate(inst, delays, seed, j=j)
    native, native_regret = native_play(inst, delays, seed, j=j)
    np.testing.assert_array_equal(cols.arm, native.arm)
    # on two arms <p_t, l_t> pins p_t wherever the arms' losses differ
    np.testing.assert_array_equal(cols.loss, native.loss)
    assert regret == native_regret


def simulate_once(seed, j=1):
    delays = lb.corollary_delays(2, 2)
    inst = lb.HardInstancePair(lb.greedy_buckets(delays).lengths[j - 1:], 0.25, arms=2)
    assert_identity(inst, delays, seed, j=j)


@pytest.fixture
def no_learner(monkeypatch):
    """Fail the test if batched_simulate builds a learner."""
    def build(*args):
        raise AssertionError("a learner was built")
    monkeypatch.setattr(lb, "PrudentBanker", build)


def test_pathwise_identity_small():
    for seed in range(20):
        simulate_once(seed)


def test_wrapper_plays_the_native_distributions(monkeypatch):
    # the arms alone can agree even when feedback comes a round late
    delays = lb.corollary_delays(3, 4)
    inst = lb.HardInstancePair(lb.greedy_buckets(delays).lengths, 0.25, arms=2)
    played, act = {}, lb.PrudentBanker.act

    def recording_act(self, t):  # keyed by learner, which the dict keeps alive
        dist, arm = act(self, t)
        played.setdefault(self, []).append(dist.copy())
        return dist, arm

    monkeypatch.setattr(lb.PrudentBanker, "act", recording_act)
    lb.batched_simulate(inst, delays, 0)
    native_play(inst, delays, 0)
    wrapped, native = played.values()
    np.testing.assert_array_equal(wrapped, native)


@pytest.mark.parametrize("rows", [1, 3])
def test_mis_sized_block_is_rejected(no_learner, rows):
    delays = lb.corollary_delays(2, 2)  # three buckets of two rounds
    inst = lb.HardInstancePair((2, rows, 2), 0.25, arms=2)
    with pytest.raises(PreconditionError, match="lengths \\(2, 2, 2\\) of buckets 1..3"):
        lb.batched_simulate(inst, delays, 0)


def test_batched_simulate_needs_an_integer_seed(no_learner):
    # a float seed would otherwise be truncated, so 1.5 would play seed 1
    delays = lb.corollary_delays(2, 2)
    inst = lb.HardInstancePair(lb.greedy_buckets(delays).lengths, 0.25, arms=2)
    with pytest.raises(ConfigError, match="seed must be an integer"):
        lb.batched_simulate(inst, delays, 1.5)


def test_instance_for_another_suffix_is_rejected(no_learner):
    delays = lb.corollary_delays(2, 2)
    inst = lb.HardInstancePair(lb.greedy_buckets(delays).lengths, 0.25, arms=2)
    with pytest.raises(PreconditionError, match="buckets 2..3"):
        lb.batched_simulate(inst, delays, 0, j=2)


def test_wrapper_rejects_feedback_due_inside_its_bucket(monkeypatch):
    delays = lb.corollary_delays(2, 2)  # round 1's feedback is due at round 3
    monkeypatch.setattr(lb, "greedy_buckets",
                        lambda d: lb.BucketDecomposition(boundaries=(1, len(d) + 1)))
    inst = lb.HardInstancePair((len(delays),), 0.25, arms=2)
    with pytest.raises(ProtocolError, match="round 1 "):
        lb.batched_simulate(inst, delays, 0)


@st.composite
def admissible_delays(draw):
    """T <= 80 rounds of non-increasing delays >= 1, clipped to d_t <= T + 1 - t."""
    T = draw(st.integers(1, 80))
    d = sorted(draw(st.lists(st.integers(1, T), min_size=T, max_size=T)), reverse=True)
    return DelaySequence(delays=np.minimum(d, T + 1 - np.arange(1, T + 1)).astype(np.int64))


@settings(max_examples=300, deadline=None)
@given(delays=admissible_delays(), seed=st.integers(0, 2**16))
def test_identity_on_uneven_buckets(delays, seed):
    # unlike corollary_delays, these buckets may differ in length
    inst = lb.HardInstancePair(lb.greedy_buckets(delays).lengths, 0.25, arms=2)
    assert_identity(inst, delays, seed)


def test_prefix_rounds_are_free():
    # with a zero prefix (j=2), prefix rounds contribute no regret
    simulate_once(0, j=2)


# -- safety-gap identity ----------------------------------------------------

POLICIES = ("arm1", "arm2", "comparator")


def test_probe_three_policies():
    inst = lb.HardInstancePair((2, 2, 2), 0.25, arms=2)
    scale = inst.gamma * math.sqrt(inst.V)
    r1, r2, rc = (lb.safety_gap_identity(inst, policy) for policy in POLICIES)
    assert [r.mean_W for r in (r1, r2, rc)] == pytest.approx([0.0, 1.0, 0.25], abs=1e-15)
    assert r1.predicted_regret == pytest.approx(-scale * 0.25, rel=1e-15)
    assert r2.predicted_regret == pytest.approx(scale * 0.75, rel=1e-15)
    assert rc.predicted_regret == pytest.approx(0.0, abs=1e-15 * scale)
    assert rc.mean_regret == 0.0  # x^c against itself
    assert r1.ok and r2.ok and rc.ok


@pytest.mark.parametrize("q, n, delta", [(1, 3000, 0.25), (50, 60, 0.25), (10, 30, 0.1),
                                         (2, 3, 0.5)])
def test_identity_holds_on_the_structured_instances(q, n, delta):
    inst = lb.HardInstancePair(lb.greedy_buckets(lb.corollary_delays(q, n)).lengths, delta)
    assert all(lb.safety_gap_identity(inst, policy).ok for policy in POLICIES)


@settings(max_examples=200, deadline=None)
@given(instance_args())
def test_identity_holds_on_every_valid_instance(args):
    lengths, arms, delta, _ = args
    inst = outcome(lb.HardInstancePair, lengths, delta, arms)
    if isinstance(inst, lb.HardInstancePair):
        assert all(lb.safety_gap_identity(inst, policy).ok for policy in POLICIES)


@pytest.mark.parametrize("name, tampered", [
    ("V", lambda inst: sum(inst.lengths)),  # sum of L_m, not of L_m^2
    ("eps", lambda inst: tuple(inst.gamma * L for L in inst.lengths))],  # no 1/sqrt(V)
    ids=["V-without-squares", "eps-without-sqrt-V"])
def test_an_inconsistent_instance_fails_the_identity(name, tampered):
    inst = lb.HardInstancePair((2, 2, 2), 0.25)
    object.__setattr__(inst, name, tampered(inst))  # past the frozen __setattr__
    assert not lb.safety_gap_identity(inst, "arm1").ok
    assert not lb.safety_gap_identity(inst, "arm2").ok


def test_probe_result_ok_allows_rounding_alone():
    close = lb.ProbeResult(1.0, 0.5, predicted_regret=1.0 + 1e-13, scale=1.0)
    assert close.ok
    assert not dataclasses.replace(close, predicted_regret=1.0 + 1e-11).ok
    assert not dataclasses.replace(close, mean_regret=math.nan).ok


def test_probe_rejects_bad_input():
    inst = lb.HardInstancePair((2,), 0.25, arms=2)
    with pytest.raises(PreconditionError, match="unknown policy 'nope'"):
        lb.safety_gap_identity(inst, "nope")


@pytest.mark.parametrize("q, n", [(1, 300), (10, 30)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_learner_meets_the_identity_pathwise(q, n, seed):
    # with b_s = 1 where the biased arm is played, the regret against x^c on E+ is
    # sum_s (b_s - delta)(z_s - 1/2), and gamma sqrt(V) (W - delta) is its mean
    # given the arms, sum_s eps_s (b_s - delta)
    delays = lb.corollary_delays(q, n)
    inst = lb.HardInstancePair(lb.greedy_buckets(delays).lengths, 0.25, arms=2)
    cols, regret = lb.batched_simulate(inst, delays, seed)
    z = inst.block_losses(+1, stream(seed, "lowerbound-losses"))[:, lb.SPECIAL_ARM]
    biased = cols.arm == lb.SPECIAL_ARM
    delta = inst.delta
    assert regret == pytest.approx(math.fsum((biased - delta) * (z - 0.5)), abs=1e-12)
    W = math.fsum(biased * np.repeat(inst.lengths, inst.lengths) / inst.V)
    eps = np.repeat(inst.eps, inst.lengths)
    assert inst.gamma * math.sqrt(inst.V) * (W - delta) == pytest.approx(
        math.fsum(eps * (biased - delta)), abs=1e-12)


@pytest.mark.parametrize("call, message", [
    (lambda: lb.greedy_buckets(DelaySequence(delays=np.array([], dtype=np.int64))),
     "empty delay sequence"),
    (lambda: lb.HardInstancePair((2,), 0.25).block_losses(0, stream(0, "bl")),
     "sign must be \\+1 or -1"),
    (lambda: lb.batched_simulate(lb.HardInstancePair((2, 2, 2), 0.25),
                                 lb.corollary_delays(2, 2), 0, j=0),
     "suffix start bucket out of range"),
    (lambda: lb.batched_simulate(lb.HardInstancePair((2,), 0.25),
                                 lb.corollary_delays(2, 2), 0, j=4),
     "suffix start bucket out of range")],
    ids=["empty-delays", "sign-zero", "j-zero", "j-past-the-last-bucket"])
def test_lowerbound_rejects_bad_input(no_learner, call, message):
    with pytest.raises(PreconditionError, match=message):
        call()
