import tracemalloc
from itertools import cycle, islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prudentbanker import lowerbound as lb
from prudentbanker import protocol
from prudentbanker.errors import ConfigError, PreconditionError, ProtocolError
from prudentbanker.mirror import NEG_ENTROPY, Regularizer
from prudentbanker.protocol import (DelaySequence, EnvironmentConfig,
                                    FeedbackEvent, FeedbackQueue, LossTable,
                                    generate_block_losses, sample_delays)
from prudentbanker.prudent import ThresholdFunctions, build_comparator, next_delay_estimate
from prudentbanker.rng import DRAW_BLOCK, DRAW_CHUNK, RngSampler, sample_arm, stream

from reference import block_index, outstanding_counters, sample_arm_stored_guard


def test_block_assignment_small():
    # T=6, B=2: per-block width floor(6/2)+1 = 4, capped at block 2
    assert [block_index(t, 6, 2) for t in range(1, 7)] == [1, 1, 1, 1, 2, 2]


def test_block_losses_deterministic():
    cfg = EnvironmentConfig(horizon=200, arms=3, blocks=5, seed=7)
    a = generate_block_losses(cfg, stream(7, "losses"))
    b = generate_block_losses(cfg, stream(7, "losses"))
    np.testing.assert_array_equal(a.losses, b.losses)


def test_block_losses_range_and_segments():
    cfg = EnvironmentConfig(horizon=5000, arms=10, blocks=50, seed=3)
    table = generate_block_losses(cfg, stream(3, "losses"))
    assert table.losses.min() >= 0.0 and table.losses.max() <= 1.0
    blocks = [block_index(t, cfg.horizon, cfg.blocks) for t in range(1, cfg.horizon + 1)]
    width = cfg.horizon // cfg.blocks + 1
    expected_distinct = min(cfg.blocks, -(-cfg.horizon // width))
    assert len(set(blocks)) == expected_distinct
    # segments are contiguous and nondecreasing
    assert blocks == sorted(blocks)


def reference_block_losses(T, A, B, rng):
    """Per-round (T, A) mean and sd arrays, then one draw of the whole table."""
    means = rng.uniform(0.0, 1.0, size=(A, B))
    sds = rng.uniform(0.1, 0.2, size=(A, B))
    blocks0 = np.array([block_index(t, T, B) - 1 for t in range(1, T + 1)])
    M = means[:, blocks0].T
    S = sds[:, blocks0].T
    samples = rng.normal(M, S)
    bad = (samples < 0.0) | (samples > 1.0)
    for _ in range(100):
        if not bad.any():
            break
        redraw = rng.normal(M[bad], S[bad])
        samples[bad] = redraw
        bad[bad] = (redraw < 0.0) | (redraw > 1.0)
    if bad.any():
        samples = np.clip(samples, 0.0, 1.0)
    return samples


# (T, A, B): single round, B = T, and 20000/500 with 12 empty trailing blocks
SHAPES = [(1, 1, 1), (1, 4, 1), (2, 3, 2), (6, 2, 2), (10, 3, 10), (97, 5, 13),
          (200, 3, 5), (1000, 10, 1000), (20000, 10, 500)]
# the one shape that paper-scale runs build: 2 M entries, about 350 k redrawn
PAPER_SHAPE = (20000, 100, 500)


@pytest.mark.parametrize("T,A,B,seed", [(*shape, seed) for shape in SHAPES for seed in (0, 1, 7)]
                         + [(*PAPER_SHAPE, 0)])
def test_block_losses_match_reference(T, A, B, seed):
    ref_rng, rng = stream(seed, "losses"), stream(seed, "losses")
    expected = reference_block_losses(T, A, B, ref_rng)
    cfg = EnvironmentConfig(horizon=T, arms=A, blocks=B, seed=seed)
    table = generate_block_losses(cfg, rng)
    assert table.losses.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# at 7 and 64 entries, chunks split rows and blocks and every redraw pass
# spans several of them; at 256, one scan chunk holds survivors from several
# rows, and later passes walk the survivor array in batches of 64
@pytest.mark.parametrize("chunk", [7, 64, 256])
@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("T,A,B", SHAPES)
def test_block_losses_match_reference_across_chunks(T, A, B, seed, chunk, monkeypatch):
    monkeypatch.setattr(protocol, "REDRAW_CHUNK", chunk)
    test_block_losses_match_reference(T, A, B, seed)


class WideNormal:
    """A generator whose normal draws are 500 times wider, so that some
    entries are still out of range after the 100th attempt."""

    def __init__(self, rng):
        self.rng = rng

    def uniform(self, low, high, size=None):
        return self.rng.uniform(low, high, size)

    def standard_normal(self, size=None, out=None):
        z = self.rng.standard_normal(size, out=out)
        z *= 500.0
        return z

    def normal(self, loc, scale, size=None):
        shape = np.broadcast(loc, scale).shape if size is None else size
        return loc + scale * self.standard_normal(shape)


# at 256, every attempt after the first compacts the survivor
# array over several batches of 64
@pytest.mark.parametrize("chunk", [7, 256, protocol.REDRAW_CHUNK])
@pytest.mark.parametrize("T,A,B", [(97, 5, 13), (200, 3, 5)])
def test_block_losses_clamp_matches_reference(T, A, B, chunk, monkeypatch):
    monkeypatch.setattr(protocol, "REDRAW_CHUNK", chunk)
    ref_rng, rng = WideNormal(stream(0, "losses")), WideNormal(stream(0, "losses"))
    expected = reference_block_losses(T, A, B, ref_rng)
    table = generate_block_losses(EnvironmentConfig(horizon=T, arms=A, blocks=B), rng)
    assert table.losses.tobytes() == expected.tobytes()
    assert rng.rng.bit_generator.state == ref_rng.rng.bit_generator.state
    assert np.isin(table.losses, [0.0, 1.0]).any()


@st.composite
def table_shapes(draw):
    """(T, A, B) with 1 <= B <= T.

    Half the draws take T = k w and B blocks of width w = floor(T/B) + 1, so
    the k complete blocks fill the table and the partial block k is empty;
    the other half draw B = 1 (every row in the partial block), B = T,
    B > T/2 (width 2, so up to T/2 empty trailing blocks) as often as any B.
    """
    A = draw(st.integers(1, 5))
    if draw(st.booleans()):
        w = draw(st.integers(2, 12))
        k = draw(st.integers(w - 1, 40))
        # floor(k w / B) = w - 1 for k < B <= k w / (w - 1)
        return k * w, A, draw(st.integers(k + 1, k * w // (w - 1)))
    T = draw(st.integers(1, 300))
    return T, A, draw(st.sampled_from([1, T]) | st.integers(T // 2 + 1, T) | st.integers(1, T))


@pytest.mark.parametrize("chunk", [7, protocol.REDRAW_CHUNK])
@example(shape=(1, 1, 1), seed=0)
@example(shape=(12, 2, 5), seed=0)  # width 3, four complete blocks, one empty
@example(shape=(300, 3, 300), seed=0)
@settings(max_examples=150, deadline=None)
@given(shape=table_shapes(), seed=st.integers(0, 2**32 - 1))
def test_block_losses_match_reference_at_random_shapes(chunk, shape, seed):
    T, A, B = shape
    assert 1 <= B <= T
    ref_rng, rng = stream(seed, "losses"), stream(seed, "losses")
    expected = reference_block_losses(T, A, B, ref_rng)
    with mock.patch.object(protocol, "REDRAW_CHUNK", chunk):
        table = generate_block_losses(EnvironmentConfig(horizon=T, arms=A, blocks=B), rng)
    assert table.losses.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class CountedFills:
    """A generator that counts its standard-normal calls: those that fill an
    out= array and those that draw a new one of a given size."""

    def __init__(self, rng):
        self.rng, self.fills, self.draws = rng, 0, 0

    def uniform(self, low, high, size=None):
        return self.rng.uniform(low, high, size)

    def standard_normal(self, size=None, out=None):
        self.fills += out is not None
        self.draws += out is None
        return self.rng.standard_normal(size, out=out)


@pytest.mark.parametrize("T,A,B", [(2000, 10, 100), (1000, 10, 1000), PAPER_SHAPE])
def test_block_losses_draw_the_table_in_one_call(T, A, B):
    rng = CountedFills(stream(0, "losses"))
    generate_block_losses(EnvironmentConfig(horizon=T, arms=A, blocks=B), rng)
    assert rng.fills == 1


def test_block_losses_redraw_in_few_calls():
    # 123 scan chunks of attempt 1, then the survivors REDRAW_CHUNK // 4 at
    # a time: about 160 calls, not one per survivor or per scan chunk
    rng = CountedFills(stream(0, "losses"))
    generate_block_losses(EnvironmentConfig(*PAPER_SHAPE), rng)
    assert rng.draws <= 200


def test_block_losses_build_no_table_sized_temporary():
    # beyond the table, means and sds, the chunked scan and the batched
    # redraws of one small-integer survivor array take about 3.6% of the table;
    # a table-sized mask plus an np.nonzero index pair take about 65% of it
    cfg = EnvironmentConfig(horizon=20000, arms=100, blocks=500)
    rng = stream(0, "losses")
    tracemalloc.start()
    try:
        table = generate_block_losses(cfg, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    means_and_sds = 2 * cfg.arms * cfg.blocks * 8
    assert peak - table.losses.nbytes - means_and_sds <= 0.05 * table.losses.nbytes


def test_environment_config_needs_blocks_from_one_to_horizon():
    with pytest.raises(ConfigError, match="blocks"):
        EnvironmentConfig(horizon=5, blocks=6)
    with pytest.raises(ConfigError, match="blocks"):
        EnvironmentConfig(horizon=5, blocks=0)


@pytest.mark.parametrize("field", ["horizon", "arms", "blocks", "seed"])
def test_environment_config_needs_integer_sizes_and_seed(field):
    # a float seed would otherwise be truncated by rng.stream, and a float
    # size would fail only inside generate_block_losses
    for value in (1.5, 2.0):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            EnvironmentConfig(**{"horizon": 100, "blocks": 5, field: value})


def stepped_queue():
    q = FeedbackQueue(horizon=5)
    q.step(1)
    return q


@pytest.mark.parametrize("call, error, message", [
    (lambda: EnvironmentConfig(horizon=0), ConfigError, "horizon must be at least 1, got 0"),
    (lambda: EnvironmentConfig(arms=0), ConfigError, "arms must be at least 1, got 0"),
    (lambda: stepped_queue().enqueue(FeedbackEvent(1, 0, 0.5, 1)), ProtocolError,
     "event for round 1 enqueued in round 2")],
    ids=["horizon-zero", "arms-zero", "enqueue-for-a-stepped-round"])
def test_protocol_rejects_bad_input(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_environment_config_accepts_numpy_integers():
    cfg = EnvironmentConfig(horizon=np.int64(100), arms=np.int32(3), blocks=np.uint8(5),
                            seed=np.int64(2))
    assert cfg == EnvironmentConfig(horizon=100, arms=3, blocks=5, seed=2)


def test_loss_table_invariants():
    with pytest.raises(ConfigError):
        LossTable(np.array([[0.1, 1.2], [0.0, 0.5]]))
    with pytest.raises(ConfigError):
        LossTable(np.array([[0.1, np.nan], [0.0, 0.5]]))
    with pytest.raises(ConfigError):
        LossTable(np.zeros(2))
    assert LossTable(np.zeros((3, 2))).horizon == 3


def test_delay_sequence_invariants():
    # a 2-D array would be read flattened by play, and a 0-d one has no len();
    # no signed type holds a uint64 delay of 2^63 or more
    for bad, error in ((np.array([[0, 5], [0, 0], [0, 0]]), "1-D"), (np.array(3), "1-D"),
                       (np.array([0, -1]), "nonnegative"), (np.array([0.0, 1.5]), "integers"),
                       (np.array([0, 2**63], np.uint64), "below 2\\^63, got 9223372036854775808"),
                       (np.array([2**64 - 1, 0], np.uint64), "below 2\\^63")):
        with pytest.raises(ConfigError, match=error):
            DelaySequence(delays=bad)
    assert len(DelaySequence(delays=np.array([0, 5, 0]))) == 3
    empty = DelaySequence(delays=np.zeros(0, np.int64)).total
    assert empty == 0 and type(empty) is int


@pytest.mark.parametrize("given", [np.array([0, 5, 0]), np.array([0, 5, 0], np.int32)],
                         ids=["int64", "int32"])
def test_delay_sequence_keeps_a_read_only_copy(given):
    # arrived caches what it reads there, so its delays must not change after
    delays = DelaySequence(delays=given).delays
    assert delays.dtype == np.int8 and not np.shares_memory(delays, given)
    with pytest.raises(ValueError, match="read-only"):
        delays[0] = 1
    given[0] = 7
    assert given.flags.writeable and delays.tolist() == [0, 5, 0]


#: each signed type's largest value and the integer above it; int64's and the one below
BOUNDARY_DELAYS = (127, 128, 2**15 - 1, 2**15, 2**31 - 1, 2**31, 2**63 - 2, 2**63 - 1)


def int64_delays(values: list[int]) -> DelaySequence:
    """A sequence that holds `values` as int64, whatever their range, bypassing the narrow copy."""
    ref = object.__new__(DelaySequence)
    object.__setattr__(ref, "delays", np.array(values, dtype=np.int64))
    return ref


def buckets_or_error(delays: DelaySequence):
    try:
        decomp = lb.greedy_buckets(delays)
    except PreconditionError as exc:
        return str(exc)
    return decomp, lb.bucket_inequalities(decomp, delays)


@settings(max_examples=100, deadline=None)
@given(values=st.integers(1, 200).flatmap(lambda T: st.lists(
           st.integers(0, T) | st.sampled_from(BOUNDARY_DELAYS), min_size=T, max_size=T)),
       given_type=st.sampled_from(["int64", "uint64", "narrowest unsigned"]))
@example(values=[127] + [1] * 126, given_type="int64")
@example(values=[128] + [1] * 127, given_type="narrowest unsigned")  # uint8 in, int16 kept
@example(values=[2**63 - 1, 0, 2**31], given_type="uint64")
def test_narrow_delays_read_as_their_int64_values(values, given_type):
    top = max(values)
    dtype = np.min_scalar_type(top) if given_type == "narrowest unsigned" else given_type
    seq, ref = DelaySequence(np.array(values, dtype=dtype)), int64_delays(values)
    narrowest = next(t for t in (np.int8, np.int16, np.int32, np.int64) if top <= np.iinfo(t).max)
    assert seq.delays.dtype == narrowest
    assert seq.delays.tolist() == values
    assert seq.total == ref.total == sum(values)
    assert seq.arrived.dtype == ref.arrived.dtype
    np.testing.assert_array_equal(seq.arrived, ref.arrived)
    # the buckets on non-increasing delays: as drawn (a delay of 0 or one past
    # the horizon breaks a precondition), then clipped to 1..T + 1 - t
    ordered = sorted(values, reverse=True)
    clipped = [max(1, min(d, len(values) + 1 - t)) for t, d in enumerate(ordered, 1)]
    for delays in (ordered, clipped):
        got = buckets_or_error(DelaySequence(np.array(delays, dtype=dtype)))
        assert got == buckets_or_error(int64_delays(delays))
    assert not isinstance(got, str)  # the clipped sequence meets every precondition


@st.composite
def arrival_delays(draw):
    """T <= 200 rounds of delays 0, 1..T (some arrive, some do not) and T..2^63 - 1."""
    T = draw(st.integers(1, 200))
    delay = st.just(0) | st.integers(1, T) | st.integers(T, 2**63 - 1)
    return np.array(draw(st.lists(delay, min_size=T, max_size=T)), dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(d=arrival_delays(), chunk=st.integers(1, 7))
@example(d=np.array([0, 2**63 - 1, 1, 0, 2**63 - 2, 3, 2, 2**63 - 8]), chunk=3)
@example(d=np.arange(299, -1, -1), chunk=7)  # all 300 arrive in round 300: uint16
def test_arrived_counts_what_the_queue_delivers(d, chunk):
    # chunks of 1-7 rounds split the horizon, so a count can come from an earlier chunk
    with mock.patch.object(protocol, "DRAW_CHUNK", chunk):
        arrived = DelaySequence(d).arrived
    T = len(d)
    queue = FeedbackQueue(T)
    delivered = []
    for t in range(1, T + 1):
        queue.enqueue(FeedbackEvent(t, 0, 0.0, t + int(d[t - 1])))
        delivered.append(len(queue.step(t)))
        assert arrived[t - 1] == delivered[-1], t
    # the smallest unsigned type that holds the largest count, not one that holds T
    assert arrived.dtype == np.min_scalar_type(max(delivered)) and not arrived.flags.writeable


def test_delays_none_and_degenerate(monkeypatch):
    cfg = EnvironmentConfig(horizon=100, delay_model="none")
    assert sample_delays(cfg, stream(0, "delays")).total == 0
    monkeypatch.setattr(protocol, "P_ACTIVE", 1.0)
    cfg = EnvironmentConfig(horizon=100, delay_model="fixed-one-step")
    d = sample_delays(cfg, stream(0, "delays"))
    assert np.all(d.delays == 1) and d.total == 100


def test_delays_fixed_one_step_concentration():
    cfg = EnvironmentConfig(horizon=50000, delay_model="fixed-one-step")
    d = sample_delays(cfg, stream(11, "delays"))
    # binomial mean 1500, sd ~38; 10 sd band
    assert 1120 <= d.total <= 1880
    assert set(np.unique(d.delays)) <= {0, 1}


def test_delays_geometric_and_lomax_support():
    for model in ("geometric", "lomax"):
        cfg = EnvironmentConfig(horizon=20000, delay_model=model)
        d = sample_delays(cfg, stream(5, "delays"))
        active = d.delays > 0
        assert d.delays.min() >= 0
        # activation probability 0.03: expect ~600 active rounds
        assert 350 <= int(active.sum()) <= 900
        assert d.delays[active].min() >= 1


def test_delayed_models_share_one_activation_draw():
    # the same seed activates the same rounds; only the delay drawn for them differs
    active = {}
    for model in ("fixed-one-step", "geometric", "lomax"):
        cfg = EnvironmentConfig(horizon=5000, delay_model=model)
        active[model] = np.flatnonzero(sample_delays(cfg, stream(2, "delays")).delays > 0)
    assert len(active["fixed-one-step"]) > 0
    np.testing.assert_array_equal(active["geometric"], active["fixed-one-step"])
    np.testing.assert_array_equal(active["lomax"], active["fixed-one-step"])


def test_feedback_event_is_an_immutable_value():
    ev = FeedbackEvent(3, 1, 0.25, 5)
    assert ev == FeedbackEvent(origin_round=3, arm=1, loss_value=0.25, arrival_round=5)
    assert ev == FeedbackEvent(3, 1, loss_value=0.25, arrival_round=5)
    assert ev != FeedbackEvent(3, 1, 0.25, 6)
    assert hash(ev) == hash(FeedbackEvent(3, 1, 0.25, 5))
    assert len({ev, FeedbackEvent(3, 1, 0.25, 5)}) == 1
    assert (ev.origin_round, ev.arm, ev.loss_value, ev.arrival_round) == (3, 1, 0.25, 5)
    assert ev.delay == 2 and FeedbackEvent(4, 0, 0.0, 4).delay == 0
    for name in ("origin_round", "arm", "loss_value", "arrival_round", "delay", "extra"):
        with pytest.raises(AttributeError):
            setattr(ev, name, 0)


def test_feedback_event_rejects_arrival_before_origin():
    with pytest.raises(ProtocolError):
        FeedbackEvent(3, 1, 0.25, 2)
    with pytest.raises(ProtocolError):
        FeedbackEvent(origin_round=3, arm=1, loss_value=0.25, arrival_round=2)
    with pytest.raises(ProtocolError):
        FeedbackEvent(3, 1, 0.25, 5)._replace(arrival_round=2)


def test_queue_immediate_delivery():
    q = FeedbackQueue(horizon=3)
    for t in range(1, 4):
        q.enqueue(FeedbackEvent(t, 0, 0.0, t))
        got = q.step(t)
        assert [e.origin_round for e in got] == [t]


def test_queue_delayed_delivery():
    q = FeedbackQueue(horizon=3)
    q.enqueue(FeedbackEvent(1, 0, 0.0, 3))  # d_1 = 2
    assert q.step(1) == []
    assert q.step(2) == []
    assert [e.origin_round for e in q.step(3)] == [1]


def test_queue_batched_arrivals_in_origin_order():
    # d = (1, 1, 0): round 1 arrives at 2; rounds 2 and 3 both at 3
    q = FeedbackQueue(horizon=3)
    q.enqueue(FeedbackEvent(1, 0, 0.0, 2))
    assert q.step(1) == []
    q.enqueue(FeedbackEvent(2, 0, 0.0, 3))
    assert [e.origin_round for e in q.step(2)] == [1]
    q.enqueue(FeedbackEvent(3, 0, 0.0, 3))
    assert [e.origin_round for e in q.step(3)] == [2, 3]


@pytest.mark.parametrize("origin, stepped", [(2, 0), (3, 1), (1, 1)],
                         ids=["ahead", "two-ahead", "behind"])
def test_queue_takes_an_event_only_in_its_own_round(origin, stepped):
    # enqueued in its own round, each arrival round's list fills in origin order
    q = FeedbackQueue(horizon=4)
    for t in range(1, stepped + 1):
        q.step(t)
    with pytest.raises(ProtocolError, match=f"^event for round {origin} enqueued in "
                                            f"round {stepped + 1}$"):
        q.enqueue(FeedbackEvent(origin, 0, 0.0, 4))
    assert [q.step(t) for t in range(stepped + 1, 5)] == [[]] * (4 - stepped)


def test_queue_out_of_order_and_single_delivery():
    q = FeedbackQueue(horizon=5)
    q.step(1)
    with pytest.raises(ProtocolError):
        q.step(3)
    q2 = FeedbackQueue(horizon=5)
    q2.enqueue(FeedbackEvent(1, 0, 0.5, 2))
    q2.step(1)
    assert len(q2.step(2)) == 1
    assert q2.step(3) == []  # not delivered twice


def test_queue_discards_post_horizon_feedback():
    q = FeedbackQueue(horizon=2)
    assert q.step(1) == []
    q.enqueue(FeedbackEvent(2, 0, 0.5, 5))
    assert q.step(2) == []


@pytest.mark.parametrize("dist", [[np.nan, np.nan], [0.2, 0.2], [-0.2, 0.6, 0.6]],
                         ids=["nan", "unnormalised", "negative"])
def test_sample_arm_rejects_non_distributions(dist):
    with pytest.raises(ProtocolError):
        sample_arm(np.array(dist), 0.9)
    # the bulk draw runs the same check
    with pytest.raises(ProtocolError):
        RngSampler(stream(0, "act")).draw_fixed(np.array(dist), np.zeros(5, np.uint8))


@pytest.mark.parametrize("arms", [10, 100])
@pytest.mark.parametrize("bad", [-0.25, np.nan])
@pytest.mark.parametrize("at", ["first", "middle", "last"])
def test_sample_arm_rejects_a_negative_or_nan_entry(arms, bad, at):
    dist = np.full(arms, 1.0 / arms)
    i = {"first": 0, "middle": arms // 2, "last": arms - 1}[at]
    dist[i] = bad
    if bad < 0.0:  # moved to the next arm, so the total alone is still 1
        dist[(i + 1) % arms] += 1.0 / arms - bad
        assert abs(dist.sum() - 1.0) <= 1e-9
    with pytest.raises(ProtocolError):
        sample_arm(dist, 0.9)
    with pytest.raises(ProtocolError):
        RngSampler(stream(0, "act")).draw_fixed(dist, np.zeros(5, np.uint8))


@st.composite
def short_distributions(draw):
    """A distribution of 2-100 arms, maybe with zero arms last, whose cumulative
    total is 1, up to 8 ulps below 1, or one ulp above it."""
    A = draw(st.integers(2, 100))
    dist = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).dirichlet(np.ones(A))
    dist[A - draw(st.integers(0, A - 1)):] = 0.0
    dist /= dist.sum()
    # move the total to the target by its largest arm, which stays positive
    target = 1.0 - draw(st.integers(-2, 8)) * 2.0 ** -53
    big = int(dist.argmax())
    for _ in range(20):
        total = float(np.cumsum(dist)[-1])
        if total == target:
            break
        dist[big] += target - total
    return dist


@settings(max_examples=300, deadline=None)
@given(short_distributions(), st.data())
def test_sample_arm_matches_the_stored_guard_form(dist, data):
    cdf = np.cumsum(dist)
    u = data.draw(st.one_of(
        st.floats(0.0, 1.0 - 2.0 ** -53),
        st.integers(1, 16).map(lambda k: 1.0 - k * 2.0 ** -53),  # up to the largest u
        st.sampled_from(cdf[cdf < 1.0].tolist() or [0.0])))  # u on a cumulative boundary
    assert sample_arm(dist, u) == sample_arm_stored_guard(dist, u)


def test_sampler_draws_equal_one_uniform_per_call():
    # more than two refills of the sampler's block of uniforms
    n = 3 * DRAW_BLOCK + 17
    dists = np.random.default_rng(3).dirichlet(np.ones(5), size=n)
    sampler, g = RngSampler(stream(4, "act")), stream(4, "act")
    drawn = [sampler.draw(dist) for dist in dists]
    assert drawn == [sample_arm(dist, g.random()) for dist in dists]
    assert len(set(drawn)) == 5


class ListedUniforms:
    """A generator whose uniforms are the given values, in turn and over again."""

    def __init__(self, values):
        self.values = cycle(values)

    def random(self, n):
        return np.fromiter(islice(self.values, n), float, count=n)


@pytest.mark.parametrize("dist", [[0.25, 0.25, 0.5], [0.5, 0.5 - 1e-10]],
                         ids=["exact-cdf", "total-below-1"])
def test_a_bulk_draw_maps_boundary_uniforms_as_sample_arm_does(dist):
    # uniforms on the cumulative sums, and past a total below 1
    dist, uniforms = np.array(dist), [0.0, 0.25, 0.5, 0.5 - 1e-10, 1.0 - 2.0 ** -53, 0.3]
    sampler = RngSampler(ListedUniforms(uniforms))
    first = sampler.draw(dist)  # leaves the bulk draw all but one uniform of the block
    out = np.zeros(DRAW_CHUNK + 3, dtype=np.uint8)
    sampler.draw_fixed(dist, out)
    want = [sample_arm(dist, u) for u in islice(cycle(uniforms), 1 + len(out))]
    assert [first, *out.tolist()] == want


@pytest.mark.parametrize("n", [0, 1, DRAW_BLOCK - 1, 8 * DRAW_CHUNK + 1])
@pytest.mark.parametrize("before", [0, 1, DRAW_BLOCK - 1, DRAW_BLOCK, DRAW_BLOCK + 1])
def test_draws_around_a_bulk_draw_take_the_kth_uniform(before, n):
    gen = np.random.default_rng(3)
    fixed, other = gen.dirichlet(np.ones(7)), gen.dirichlet(np.ones(7), size=before + 70)
    sampler, g = RngSampler(stream(4, "act")), stream(4, "act")
    drawn = [sampler.draw(dist) for dist in other[:before]]
    out = np.full(n, 99, dtype=np.uint8)
    sampler.draw_fixed(fixed, out)
    drawn += [*out.tolist(), *(sampler.draw(dist) for dist in other[before:])]
    want = [sample_arm(dist, g.random()) for dist in other[:before]]
    want += [sample_arm(fixed, g.random()) for _ in range(n)]
    want += [sample_arm(dist, g.random()) for dist in other[before:]]
    assert drawn == want


def test_stream_rejects_a_negative_seed():
    with pytest.raises(ConfigError, match="seed must be at least 0, got -1"):
        stream(-1, "delays")


@pytest.mark.parametrize("seed", [1.5, 2.0, "3"])
def test_stream_needs_an_integer_seed(seed):
    # a float seed would otherwise be truncated, so 1.5 would play seed 1
    with pytest.raises(ConfigError, match="seed must be an integer"):
        stream(seed, "delays")
    assert stream(np.int64(2), "delays").random() == stream(2, "delays").random()


@pytest.mark.parametrize("name, call, least", [
    ("horizon", lambda n: EnvironmentConfig(horizon=n, blocks=1), 1),
    ("arms", lambda n: EnvironmentConfig(arms=n), 1),
    ("blocks", lambda n: EnvironmentConfig(blocks=n), 1),
    ("arms", lambda n: Regularizer(NEG_ENTROPY, n, 0.1), 1),
    ("horizon", lambda n: ThresholdFunctions(Regularizer(NEG_ENTROPY, 3, 0.1), n), 1),
    ("arms", lambda n: build_comparator(n, 0.1, 0), 1),
    ("seed", lambda n: stream(n, "delays"), 0),
    ("block length", lambda n: lb.HardInstancePair((n, 2), 0.25), 1),
    ("arms", lambda n: lb.HardInstancePair((2, 2), 0.25, n), 2),
    ("q", lambda n: lb.corollary_delays(n, 2), 1),
    ("N", lambda n: lb.corollary_delays(2, n), 1),
    ("j", lambda n: lb.batched_simulate(lb.HardInstancePair((2,), 0.25),
                                        lb.corollary_delays(2, 2), 0, j=n), None),
    ("trigger", next_delay_estimate, 1)],
    ids=["env-horizon", "env-arms", "env-blocks", "regularizer-arms", "thresholds-horizon",
         "comparator-arms", "seed", "hard-block-length", "hard-arms", "corollary-q",
         "corollary-N", "batched-j", "trigger"])
def test_every_count_is_an_integer_of_at_least_its_bound(name, call, least):
    # 2.5 would otherwise be truncated or build another construction, "3"
    # fail with a bare TypeError, and True pass as 1; a count with a lower
    # bound names it and the value
    for bad in (2.5, "3", True):
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            call(bad)
    call(np.int64(3))
    if least is not None:
        with pytest.raises(ConfigError, match=f"{name} must be at least {least}, got {least - 1}$"):
            call(least - 1)


def test_outstanding_counters_examples():
    zeros = DelaySequence(delays=np.zeros(6, dtype=np.int64))
    for t in range(1, 7):
        assert outstanding_counters(zeros, 1, t) == (0, 0)
    d = DelaySequence(delays=np.array([3, 0, 0, 0]))
    assert outstanding_counters(d, 1, 2)[0] == 1
    assert outstanding_counters(d, 1, 3)[0] == 1
    assert outstanding_counters(d, 1, 4) == (1, 3)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=50),
       st.data())
def test_delay_mass_bounded_by_window_delay(delays, data):
    # running outstanding mass never exceeds the window's total delay,
    # and equals sum min{d_r, end - r} (double-counting identity)
    seq = DelaySequence(delays=np.array(delays, dtype=np.int64))
    T = len(delays)
    start = data.draw(st.integers(min_value=1, max_value=T))
    end = data.draw(st.integers(min_value=start, max_value=T))
    _, mass = outstanding_counters(seq, start, end)
    window_delay = sum(delays[r - 1] for r in range(start, end + 1))
    identity = sum(min(delays[r - 1], end - r) for r in range(start, end + 1))
    assert mass <= window_delay
    assert mass == identity
