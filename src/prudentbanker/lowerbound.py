"""Lower-bound machinery: greedy buckets, hard instances, delayed-to-batched simulation.

A delay sequence (positive, non-increasing, admissible) partitions the horizon
into greedy buckets such that no feedback generated inside a bucket arrives
before the bucket ends; a delayed game on such a sequence can therefore be
simulated exactly inside a batched game. The batched hard instances make one
designated arm Bernoulli with a per-block bias while all other arms are
deterministic 1/2.
`bucket_inequalities` is the one check of the bucket facts: the `lowerbound`
report and the tests share it.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError, ProtocolError
from .harness import PlayColumns, play
from .mirror import NEG_ENTROPY, Regularizer
from .protocol import DelaySequence, LossTable
from .prudent import PrudentBanker, ThresholdFunctions, build_comparator
from .rng import RngSampler, check_count, check_integer, stream

#: index of the biased ("special") arm in hard instances
SPECIAL_ARM = 1


@dataclass(frozen=True)
class BucketDecomposition:
    """Greedy bucket boundaries b_1 < ... < b_{M+1}; bucket m is [b_m, b_{m+1})."""

    boundaries: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.boundaries) - 1

    @property
    def lengths(self) -> tuple[int, ...]:
        b = self.boundaries
        return tuple(b[m + 1] - b[m] for m in range(self.count))


def greedy_buckets(delays: DelaySequence) -> BucketDecomposition:
    """Greedy bucket decomposition: b_1 = 1, b_{m+1} = min_{t >= b_m} (t + d_t).

    Requires d_t >= 1, non-increasing delays, and d_t <= T + 1 - t (every
    feedback arrives within the horizon plus one).
    """
    d = delays.delays
    T = len(d)
    if T == 0:
        raise PreconditionError("empty delay sequence")
    if d.min() < 1:
        raise PreconditionError("greedy buckets require d_t >= 1")
    if np.any(np.diff(d) > 0):
        raise PreconditionError("greedy buckets require non-increasing delays")
    caps = T + 1 - np.arange(1, T + 1)
    if np.any(d > caps):
        raise PreconditionError("greedy buckets require d_t <= T + 1 - t")

    arrivals = np.arange(1, T + 1) + d  # t + d_t
    # suffix minima: min_{t >= s} (t + d_t)
    suffix_min = np.minimum.accumulate(arrivals[::-1])[::-1]
    boundaries = [1]
    while boundaries[-1] <= T:
        boundaries.append(int(suffix_min[boundaries[-1] - 1]))
    return BucketDecomposition(boundaries=tuple(boundaries))


def bucket_inequalities(decomp: BucketDecomposition,
                        delays: DelaySequence) -> tuple[bool, bool, bool]:
    """The lower bound's bucket facts, (mono, dom, suffix), in exact integers:
    L_m >= L_{m+1}; L_m^2 >= the delay of bucket m + 1; V_j >= the delay after bucket j.

    The buckets must tile rounds 1..T: boundaries from 1, strictly rising, to T + 1.
    """
    b = np.asarray(decomp.boundaries, dtype=np.int64)
    T = len(delays)
    if b.size == 0 or b[0] != 1 or b[-1] != T + 1 or np.any(np.diff(b) <= 0):
        raise PreconditionError(f"boundaries {decomp.boundaries} do not tile rounds 1..{T}")
    # prefix[s] = d_1 + ... + d_s; object integers cannot overflow
    prefix = np.concatenate(([0], np.cumsum(delays.delays, dtype=object)))
    L = np.diff(b).astype(object)
    bucket_delay = np.diff(prefix[b - 1])
    V = np.cumsum((L * L)[::-1])[::-1]  # V_j = sum of L_m^2 over m >= j
    after = prefix[T] - prefix[b[1:] - 1]  # delay of the rounds after bucket j
    mono = np.all(L[:-1] >= L[1:])
    dom = np.all(L[:-1] ** 2 >= bucket_delay[1:])
    suffix = np.all(V >= after)
    return bool(mono), bool(dom), bool(suffix)


def corollary_delays(q: int, N: int) -> DelaySequence:
    """The structured sequence d_t = min{q, T + 1 - t} with T = (N + 1) q.

    Its total delay is N q^2 + q (q + 1) / 2 and all greedy buckets have
    length q.
    """
    check_count("q", q, 1)
    check_count("N", N, 1)
    T = (N + 1) * q
    t = np.arange(1, T + 1)
    return DelaySequence(delays=np.minimum(q, T + 1 - t).astype(np.int64))


@dataclass(frozen=True)
class HardInstancePair:
    """The pair of batched environments E+ / E- differing only in arm 2's mean.

    In block m the special arm's loss is Bernoulli(1/2 + sign * eps_m); all
    other arms lose a deterministic 1/2. The comparator is anchored on arm 1.
    From integer block lengths L_1..L_n it derives gamma = 1/(32 sqrt(L_1 delta)),
    V = sum L_m^2 and eps_m = gamma L_m / sqrt(V); it requires L_1/(64 V) <= delta
    <= 1/arms, whose lower end caps eps_m at 1/4. A `replace` copy is built alike.
    """

    lengths: tuple[int, ...]
    delta: float
    arms: int = 2
    gamma: float = field(init=False)
    V: int = field(init=False)
    eps: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        for L in self.lengths:
            check_count("block length", L, 1)
        lengths = tuple(int(L) for L in self.lengths)
        if not lengths:
            raise PreconditionError("need at least one block length")
        delta, arms, L1 = self.delta, self.arms, lengths[0]
        check_count("arms", arms, 2)
        V = sum(L * L for L in lengths)
        if not delta >= L1 / (64.0 * V):  # NaN fails too
            raise PreconditionError(
                f"precondition delta >= L1/(64 V) fails: {delta} < {L1 / (64.0 * V)}")
        if delta > 1.0 / arms:
            raise PreconditionError(f"precondition delta <= 1/arms fails: {delta} > {1.0 / arms}")
        gamma = 1.0 / (32.0 * math.sqrt(L1 * delta))
        eps = tuple(gamma * L / math.sqrt(V) for L in lengths)
        for name, value in (("lengths", lengths), ("gamma", gamma), ("V", V), ("eps", eps)):
            object.__setattr__(self, name, value)  # past the frozen __setattr__

    @property
    def comparator(self) -> np.ndarray:
        """x^c: 1 - (A - 1) delta on arm 1 (index 0), delta elsewhere."""
        return build_comparator(self.arms, self.delta, 0)

    def block_losses(self, sign: int, rng: np.random.Generator) -> np.ndarray:
        """Draw one realization of the (slot, arm) loss table, blocks stacked in order.

        The Bernoulli draws for E+ and E- are coupled through a shared uniform
        tape, one uniform per slot: call with the same generator state and the
        two environments differ only where the uniform falls between the two means.
        """
        if sign not in (+1, -1):
            raise PreconditionError("sign must be +1 or -1")
        u = rng.random(sum(self.lengths))
        table = np.full((len(u), self.arms), 0.5)
        table[:, SPECIAL_ARM] = u < 0.5 + sign * np.repeat(self.eps, self.lengths)
        return table


# ---------------------------------------------------------------------------
# delayed -> batched simulation
# ---------------------------------------------------------------------------

@dataclass
class SimulationResult:
    native: PlayColumns
    batched: PlayColumns
    regret_native: float
    regret_batched: float

    @property
    def identical(self) -> bool:
        """The pathwise identity: same arms, regrets and per-round pseudo-losses."""
        return (np.array_equal(self.native.arm, self.batched.arm)
                and self.regret_native == self.regret_batched
                and np.array_equal(self.native.loss, self.batched.loss))


class BatchedView:
    """A learner that sees round u's feedback only once u's bucket has ended.

    `act` and `receive` forward unchanged; `receive(events, t)` raises
    `ProtocolError` for an event from a bucket still open at round t.
    """

    def __init__(self, learner, decomp: BucketDecomposition):
        self.learner = learner
        self._ends = [b - 1 for b in decomp.boundaries]  # bucket ends, after a leading 0

    def act(self, t: int):
        return self.learner.act(t)

    def receive(self, events, t: int) -> None:
        ended = self._ends[bisect.bisect_right(self._ends, t) - 1]
        for e in events:
            if e.origin_round > ended:
                raise ProtocolError(
                    f"round {e.origin_round} feedback due at {t} before its bucket ended")
        self.learner.receive(events, t)


def batched_simulate(instance: HardInstancePair, delays: DelaySequence, seed: int,
                     j: int = 1) -> SimulationResult:
    """Play Prudent-Banker on E+ natively and as a `BatchedView`, both through `play`.

    The instance's blocks are buckets j, j + 1, ... of `delays`; the rounds
    before bucket j lose 0 on every arm. E+ is drawn from the seed's
    "lowerbound-losses" stream, and each run's learner gets a fresh sampler on
    its "lowerbound-tape" stream, so both draw the same uniforms. The batched
    run learns a bucket's losses only when the bucket ends (the zero prefix
    counts as buckets too); as the buckets tile the horizon, its revealed
    losses sum, in bucket order, left to right over all rounds.
    """
    check_integer("j", j)
    decomp = greedy_buckets(delays)
    if not (1 <= j <= decomp.count):
        raise PreconditionError("suffix start bucket out of range")
    if instance.lengths != decomp.lengths[j - 1:]:
        raise PreconditionError(f"instance blocks {instance.lengths} are not the lengths "
                                f"{decomp.lengths[j - 1:]} of buckets {j}..{decomp.count}")
    blocks = instance.block_losses(+1, stream(seed, "lowerbound-losses"))
    prefix = np.zeros((decomp.boundaries[j - 1] - 1, instance.arms))
    table = LossTable(np.vstack([prefix, blocks]))
    T = table.horizon
    tf = ThresholdFunctions(Regularizer(NEG_ENTROPY, instance.arms, instance.delta), T)
    xc = instance.comparator

    def learner():
        return PrudentBanker(tf, xc, RngSampler(stream(seed, "lowerbound-tape")))

    native = play(learner(), table, delays)
    batched = play(BatchedView(learner(), decomp), table, delays)
    loss_comp = float(np.sum(table.losses @ xc))

    def regret(arms):  # the played arms' losses summed left to right, not by np.sum
        return float(np.add.accumulate(table.losses[np.arange(T), arms])[-1]) - loss_comp

    return SimulationResult(native, batched, regret(native.arm), regret(batched.arm))


# ---------------------------------------------------------------------------
# safety-gap identity probe
# ---------------------------------------------------------------------------

#: table entries per chunk of rows in the safety-gap probe: its trials x slots
#: tables are drawn and reduced a chunk of rows at a time, and none is kept whole
PROBE_CHUNK = 1 << 18


@dataclass(frozen=True)
class ProbeResult:
    mean_regret: float
    mean_W: float
    predicted_regret: float  # gamma sqrt(V) (mean_W - delta)
    residual_mean: float     # per-trial mean of R - gamma sqrt(V) (W - delta)
    residual_se: float

    @property
    def ok(self) -> bool:
        if self.residual_se == 0.0:
            return abs(self.residual_mean) <= 1e-9
        return abs(self.residual_mean) <= 3.0 * self.residual_se


def safety_gap_probe(instance: HardInstancePair, policy: str, trials: int,
                     rng: np.random.Generator) -> ProbeResult:
    """Monte-Carlo check of the identity R+(x^c) = gamma sqrt(V) (E[W] - delta).

    Policies: "arm1" (always the anchor arm), "arm2" (always the biased arm),
    "comparator" (sample from x^c each slot). W is the length-weighted play
    fraction of the biased arm, sum_m L_m N_m / V. The biased arm's losses come
    from `rng`, which moves past exactly trials x slots uniforms; the
    comparator's uniforms come from a stream spawned from it, `rng.spawn(1)[0]`,
    under every policy, so each leaves `rng` alike; a generator that cannot
    spawn raises PreconditionError.
    """
    check_integer("trials", trials)
    if trials < 2:
        raise PreconditionError("trials must be at least 2 (one has no standard error)")
    if policy not in ("arm1", "arm2", "comparator"):
        raise PreconditionError(f"unknown policy {policy!r}")
    eps = np.repeat(instance.eps, instance.lengths)
    weights = np.repeat([L / instance.V for L in instance.lengths], instance.lengths)
    delta = instance.delta
    n_slots = len(eps)
    rows = max(1, PROBE_CHUNK // n_slots)

    try:
        u_rng = rng.spawn(1)[0]
    except TypeError:  # numpy's message names the SeedSequence, not the probe's need
        raise PreconditionError("the safety-gap probe needs a generator that can spawn, "
                                "such as np.random.default_rng(seed)") from None
    regret, W = np.empty(trials), np.empty(trials)
    for lo in range(0, trials, rows):
        c = slice(lo, min(lo + rows, trials))
        z = rng.random((c.stop - lo, n_slots)) < 0.5 + eps  # arm-2 losses under E+
        comp_loss = np.sum(0.5 * (1.0 - delta) + delta * z, axis=1)
        if policy == "comparator":
            # with probability delta the comparator puts us on the biased arm
            play2 = u_rng.random(z.shape) < delta
        else:
            play2 = np.full(z.shape, policy == "arm2")
        regret[c] = np.sum(np.where(play2, z, 0.5), axis=1) - comp_loss
        W[c] = play2 @ weights
    scale = instance.gamma * math.sqrt(instance.V)
    residual = regret - scale * (W - delta)
    se = float(residual.std(ddof=1) / math.sqrt(trials))
    return ProbeResult(
        mean_regret=float(regret.mean()), mean_W=float(W.mean()),
        predicted_regret=scale * (float(W.mean()) - delta),
        residual_mean=float(residual.mean()), residual_se=se,
    )
