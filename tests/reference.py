"""Slow reference helpers that only the tests use.

The simulator in ``src/`` does not need any of these; the tests check it
against them.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from prudentbanker import lowerbound
from prudentbanker.errors import ConfigError, DomainError, NumericalError
from prudentbanker.harness import CSV_HEADER, PlayColumns, play
from prudentbanker.lowerbound import SPECIAL_ARM, BucketDecomposition, HardInstancePair
from prudentbanker.mirror import (GRAD_FLOOR, NEG_ENTROPY, Regularizer, _two_pole_root,
                                  grad_psi, grad_psi_star_with_dual)
from prudentbanker.protocol import DelaySequence, LossTable
from prudentbanker.prudent import PrudentBanker, ThresholdFunctions
from prudentbanker.rng import RngSampler, stream


def block_index(t: int, horizon: int, blocks: int) -> int:
    """1-indexed block id of round t: 1 + min{floor((t-1)/(floor(T/B)+1)), B-1}."""
    width = horizon // blocks + 1
    return 1 + min((t - 1) // width, blocks - 1)


def outstanding_counters(delays: DelaySequence, phase_start: int, t: int) -> tuple[int, int]:
    """Outstanding-feedback count and its running sum over a phase window.

    The first component counts rounds tau in [phase_start, t-1] whose feedback
    is still missing at the start of round t (tau + d_tau >= t). The second is
    the running sum of those counts for r = phase_start..t.
    """
    if phase_start > t:
        raise ConfigError("phase_start must be <= t")
    d = delays.delays
    running = 0
    latest = 0
    for r in range(phase_start, t + 1):
        taus = np.arange(phase_start, r)
        latest = int(np.sum(taus + d[taus - 1] >= r)) if len(taus) else 0
        running += latest
    return latest, running


def psi_value(reg: Regularizer, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    if reg.kind == NEG_ENTROPY:
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(x > 0.0, x * np.log(np.maximum(x, 1e-300)), 0.0)
        return float(np.sum(terms))
    return float(-2.0 * np.sum(np.sqrt(x)))


def bregman(reg: Regularizer, x: np.ndarray, y: np.ndarray) -> float:
    """D_Psi(x, y) = Psi(x) - Psi(y) - <grad Psi(y), x - y>; y must be interior."""
    x = np.asarray(x, dtype=float)
    gy = grad_psi(reg, y)  # raises DomainError on boundary y
    val = psi_value(reg, x) - psi_value(reg, y) - float(np.dot(gy, x - np.asarray(y, dtype=float)))
    return max(val, 0.0)


def expected_mirror_step_divergence(reg: Regularizer, x: np.ndarray, sigma: float,
                                    loss: float = 1.0) -> float:
    """E_a~x [ sigma * D_Psi(x, z(a)) ] for a unit-scale importance-weighted step.

    z(a) is the constrained mirror step from x with estimator (loss/x_a) e_a and
    step size 1/sigma. The expectation is computed exactly over the finite arm set.
    """
    x = np.asarray(x, dtype=float)
    base = grad_psi(reg, x)
    total = 0.0
    for a in range(reg.arms):
        if x[a] <= 0.0:
            continue
        theta = base.copy()
        theta[a] -= (loss / x[a]) / sigma
        z, _ = grad_psi_star_with_dual(reg, theta)
        total += x[a] * sigma * bregman(reg, x, np.maximum(z, 1e-300))
    return total


def parse_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Re-read an emitted CSV into column arrays (exact round trip)."""
    lines = Path(path).read_text().strip().split("\n")
    if lines[0] != CSV_HEADER:
        raise ConfigError(f"unexpected CSV header {lines[0]!r}")
    cols = {name: [] for name in CSV_HEADER.split(",")}
    for line in lines[1:]:
        for name, val in zip(cols, line.split(",")):
            cols[name].append(val)
    out = {}
    for name, vals in cols.items():
        if name in ("t", "stage", "phase", "arrived"):
            out[name] = np.array([int(v) for v in vals], dtype=np.int64)
        else:
            out[name] = np.array([float(v) for v in vals])
    return out


def cucb_bounds_masked(n_obs: np.ndarray, sums: np.ndarray, t0: int, arms: int,
                       delta_ucb: float, default_arm: int,
                       r0: float) -> tuple[np.ndarray, np.ndarray]:
    """Conservative-UCB's (LCB, UCB) computed on the observed arms only."""
    lcb = np.zeros(arms)
    ucb = np.ones(arms)
    log_arg = max(3.0, 2.0 * arms * (t0 + 1) ** 2 / delta_ucb)
    observed = n_obs > 0
    if observed.any():
        mean = np.zeros(arms)
        mean[observed] = sums[observed] / n_obs[observed]
        c = np.sqrt(2.0 * math.log(log_arg) / np.maximum(n_obs, 1))
        lcb[observed] = np.maximum(0.0, mean[observed] - c[observed])
        ucb[observed] = np.minimum(1.0, mean[observed] + c[observed])
    lcb[default_arm] = r0
    ucb[default_arm] = r0
    return lcb, ucb


def trace_columns(trace) -> dict[str, np.ndarray]:
    """A trace's eight CSV columns in full: t is 1..T, stage, phase and
    alpha are read off the restart log round by round by ``restart_state``,
    and loss_star is one ``np.cumsum`` over the best arm's losses."""
    T = len(trace.arrived)
    states = [restart_state(trace.restarts, trace.alpha0, t) for t in range(1, T + 1)]
    stage, phase, alpha = zip(*states) if states else ((),) * 3
    return {"t": np.arange(1, T + 1, dtype=np.int64), "stage": np.array(stage, dtype=np.int64),
            "phase": np.array(phase, dtype=np.int64), "alpha": np.array(alpha, dtype=float),
            "loss_B": trace.loss_B, "loss_star": np.cumsum(trace.best_arm_losses),
            "loss_c": trace.loss_c, "arrived": trace.arrived}


def csv_string_each_entry(trace) -> str:
    """A trace's CSV, formatting every entry of every column with repr."""
    cols = trace_columns(trace)
    columns = (map(repr, cols[name].tolist()) for name in CSV_HEADER.split(","))
    return "\n".join([CSV_HEADER, *map(",".join, zip(*columns))]) + "\n"


def credit_schedule(delays: DelaySequence,
                    phase_starts: list[int]) -> list[tuple[int, float, list, float]]:
    """Banker-OMD's credit ledger, drain by drain, from the delays and phase starts alone.

    Written from the `banker` docstring. A phase runs from its start to the
    round before the next start, or to T. Every round t of a phase starting
    at s is granted a credit sigma_t, which it can donate to later rounds of
    the phase once its feedback has arrived, at the end of round t + d_t.
    Round t drains the arrived credits in increasing round order until they
    cover sigma_t, a donor's credit being spent once drained whole, and
    borrows the rest, b_t. sigma_t is `step_size`'s in units of sqrt(C2/C1):
    1 / (1/sqrt(t - s + 1) + d_t sqrt(ln(DD_t + 1) / DD_t)), where d_t counts
    the rounds of the phase whose feedback is missing at the start of round t
    and DD_t is the sum of d_s..d_t; the second term is 0 when d_t is.

    Returns (t, sigma_t, allocation, b_t) for every round of every phase, with
    allocation the (donor round, amount) pairs in drain order. Every sum of
    credits is a math.fsum of the amounts taken so far.
    """
    d = [int(x) for x in delays.delays]
    T = len(d)
    schedule = []
    for s, end in zip(phase_starts, [*phase_starts[1:], T + 1]):
        sigma, taken, spent = {}, {}, set()  # credits, amounts given, rounds drained whole
        DD = 0
        for t in range(s, min(end, T + 1)):
            d_t = sum(u + d[u - 1] >= t for u in range(s, t))
            DD += d_t
            denom = 1.0 / math.sqrt(t - s + 1)
            if d_t > 0:
                denom += d_t * math.sqrt(math.log(DD + 1.0) / DD)
            sigma[t], taken[t] = 1.0 / denom, []
            allocation, b = [], sigma[t]
            for u in range(s, t):
                if b <= 0.0:
                    break
                if u + d[u - 1] >= t or u in spent:  # feedback missing, or credit spent
                    continue
                left = math.fsum([sigma[u], *(-a for a in taken[u])])
                amount = min(left, b)
                taken[u].append(amount)
                allocation.append((u, amount))
                if amount < left:
                    b = 0.0
                else:
                    spent.add(u)
                    b = math.fsum([sigma[t], *(-a for _, a in allocation)])
            schedule.append((t, sigma[t], allocation, b))
    return schedule


def restart_state(restarts, alpha0: float, t: int) -> tuple[int, int, float]:
    """The (stage, phase, alpha) that round t plays under, read off a restart log.

    The log is in the order the restarts were made. A hard restart logged at
    round r is made in act(r), so round r plays under it; a soft restart is
    made in receive(r), so round r + 1 does. Before any restart a game plays
    stage 1, phase 1 and alpha0.
    """
    stage, phase, alpha = 1, 1, alpha0
    for r in restarts:
        if r.round + (r.kind == "soft") <= t:
            stage += r.kind == "hard"
            phase, alpha = r.new_phase, r.new_alpha
    return stage, phase, alpha


def bucket_inequalities_by_definition(decomp: BucketDecomposition,
                                      delays: DelaySequence) -> tuple[bool, bool, bool]:
    """The three bucket facts, each delay sum taken round by round over its buckets."""
    lengths, d = decomp.lengths, delays.delays.tolist()  # Python ints: a sum cannot wrap

    def bucket(m):  # rounds of 1-indexed bucket m
        return range(decomp.boundaries[m - 1], decomp.boundaries[m])

    def suffix_mass(j):  # V_j
        return sum(L * L for L in lengths[j - 1:])

    mono = all(lengths[i] >= lengths[i + 1] for i in range(len(lengths) - 1))
    dom = all(
        lengths[m] ** 2 >= sum(d[t - 1] for t in bucket(m + 2))
        for m in range(decomp.count - 1))
    suffix = all(
        suffix_mass(j) >= sum(d[t - 1] for mm in range(j + 1, decomp.count + 1)
                              for t in bucket(mm))
        for j in range(1, decomp.count + 1))
    return mono, dom, suffix


def block_losses_by_block(instance: HardInstancePair, sign: int,
                          rng: np.random.Generator) -> list[np.ndarray]:
    """The hard instance's loss blocks, each drawn with its own call to the generator."""
    out = []
    for L, e in zip(instance.lengths, instance.eps):
        u = rng.random(L)
        block = np.full((L, instance.arms), 0.5)
        block[:, SPECIAL_ARM] = (u < 0.5 + sign * e).astype(float)
        out.append(block)
    return out


def native_play(instance: HardInstancePair, delays: DelaySequence, seed: int,
                j: int = 1) -> tuple[PlayColumns, float]:
    """`lowerbound.batched_simulate`'s game played natively, without its `BatchedView`.

    The same E+ table with its zero prefix, and the same Prudent-Banker on the
    same "lowerbound-tape" stream; the regret adds the played arms' losses one
    round at a time. The delayed-to-batched identity says both plays agree
    exactly: arms, per-round pseudo-losses and regret.
    """
    blocks = instance.block_losses(+1, stream(seed, "lowerbound-losses"))
    start = lowerbound.greedy_buckets(delays).boundaries[j - 1]
    table = LossTable(np.vstack([np.zeros((start - 1, instance.arms)), blocks]))
    reg = Regularizer(NEG_ENTROPY, instance.arms, instance.delta)
    learner = PrudentBanker(ThresholdFunctions(reg, table.horizon), instance.comparator,
                            RngSampler(stream(seed, "lowerbound-tape")))
    cols = play(learner, table, delays)
    played = 0.0
    for row, arm in zip(table.losses, cols.arm.tolist()):
        played += float(row[arm])
    return cols, played - float(np.sum(table.losses @ instance.comparator))


def stage_schedule(delays: DelaySequence) -> list[tuple[int, int, int]]:
    """Prudent-Banker's hard restarts as (round, trigger, new estimate), from the delays alone.

    D-hat starts at 1. Round t restarts when the delays of the stage's rounds
    whose feedback arrived by the end of round t - 1 sum to more than D-hat;
    the sum is the trigger, and D-hat becomes the least power of two at or
    above it. The next stage starts at round t + 1; feedback that arrives
    after round T is never seen.
    """
    d = [int(x) for x in delays.delays]
    T = len(d)
    arriving = {}  # round -> origin rounds whose feedback arrives at its end
    for u in range(1, T + 1):
        arriving.setdefault(u + d[u - 1], []).append(u)
    estimate, stage_start, stage_delay, restarts = 1, 1, 0, []
    for t in range(1, T + 1):
        if stage_delay > estimate:
            estimate = 1
            while estimate < stage_delay:
                estimate *= 2
            restarts.append((t, stage_delay, estimate))
            stage_start, stage_delay = t + 1, 0
        stage_delay += sum(d[u - 1] for u in arriving.get(t, ()) if u >= stage_start)
    return restarts


def sample_arm_stored_guard(dist: np.ndarray, u: float) -> int:
    """rng.sample_arm for a valid distribution, with the cumulative total stored
    as at least 1 before the search, in place of clamping the index."""
    cdf = np.cumsum(dist)
    cdf[-1] = max(cdf[-1], 1.0)
    return int(np.searchsorted(cdf, u, side="right"))


# -- the round path's extrema taken by ufunc reductions ----------------------
# The simulator reads minima and maxima as v.item(v.argmin()) / argmax; these
# are the same functions with np.minimum.reduce / np.maximum.reduce, .min(),
# .sum() and np.dot, for byte-for-byte comparison.

def grad_psi_by_reduction(reg: Regularizer, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not x.min() >= GRAD_FLOOR:  # NaN fails too
        raise DomainError("point has a (numerically) zero coordinate")
    if reg.kind == NEG_ENTROPY:
        return 1.0 + np.log(x)
    return -1.0 / np.sqrt(x)


def grad_psi_star_with_dual_by_reduction(reg: Regularizer,
                                         theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    theta = np.asarray(theta, dtype=float)
    top = np.maximum.reduce(theta)
    if not (math.isfinite(top) and math.isfinite(np.minimum.reduce(theta))):
        raise DomainError("dual vector must be finite")
    shifted = theta - top
    if reg.kind == NEG_ENTROPY:
        w = np.exp(shifted)
        z = w.sum()
        return w / z, shifted
    lo, hi = 1.0, math.sqrt(shifted.size)
    lam = min(max(-float(top), lo), hi)
    for _ in range(50):
        r = 1.0 / (lam - shifted)
        f = float(np.dot(r, r))
        if abs(f - 1.0) <= 1e-13:
            break
        if f > 1.0:
            lo = lam
        else:
            hi = lam
        s3 = float(np.dot(r * r, r))
        step = min(max(lam + f * (f ** 0.5 - 1.0) / s3, lo), hi)
        guess = _two_pole_root(lam, f, s3, step)
        if not lo < guess < hi:  # NaN fails too
            guess = step
        lam = guess
    if abs(f - 1.0) > 1e-12:
        raise NumericalError("tsallis conjugate Newton solve did not converge")
    return (r * r) / f, shifted - lam


def gap_statistic_by_reduction(g: np.ndarray, xc: np.ndarray) -> float:
    g = np.asarray(g, dtype=float)
    return float(np.dot(g, xc) - g.min())


def exp3ix_distribution_by_reduction(log_w: np.ndarray) -> np.ndarray:
    """The EXP3-IX distribution that SafeExp3IX.act plays for the weights log_w."""
    w = np.exp(log_w - np.maximum.reduce(log_w))
    return w / np.add.reduce(w)
