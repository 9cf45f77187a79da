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
from prudentbanker.harness import CSV_HEADER
from prudentbanker.lowerbound import (SPECIAL_ARM, BucketDecomposition, HardInstancePair,
                                      ProbeResult)
from prudentbanker.mirror import (GRAD_FLOOR, NEG_ENTROPY, Regularizer, _two_pole_root,
                                  grad_psi, grad_psi_star_with_dual)
from prudentbanker.protocol import DelaySequence


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


def csv_string_each_entry(trace) -> str:
    """A trace's CSV, formatting every entry of every column with repr."""
    columns = (map(repr, getattr(trace, name).tolist()) for name in CSV_HEADER.split(","))
    return "\n".join([CSV_HEADER, *map(",".join, zip(*columns))]) + "\n"


def bucket_inequalities_by_definition(decomp: BucketDecomposition,
                                      delays: DelaySequence) -> tuple[bool, bool, bool]:
    """The three bucket facts, each delay sum taken round by round over its buckets."""
    lengths = decomp.lengths

    def bucket(m):  # rounds of 1-indexed bucket m
        return range(decomp.boundaries[m - 1], decomp.boundaries[m])

    def suffix_mass(j):  # V_j
        return sum(L * L for L in lengths[j - 1:])

    mono = all(lengths[i] >= lengths[i + 1] for i in range(len(lengths) - 1))
    dom = all(
        lengths[m] ** 2 >= sum(delays.delays[t - 1] for t in bucket(m + 2))
        for m in range(decomp.count - 1))
    suffix = all(
        suffix_mass(j) >= sum(int(delays.delays[t - 1])
                              for mm in range(j + 1, decomp.count + 1)
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


def safety_gap_probe_two_pass(instance: HardInstancePair, policy: str, trials: int,
                              rng: np.random.Generator) -> ProbeResult:
    """The safety-gap probe in two passes over the trials, with all of Z kept whole.

    The first pass draws every Z (the arm-2 losses under E+), the second the
    comparator's U, so the generator yields its uniforms in the same order as
    in ``lowerbound.safety_gap_probe``, which draws both in one pass. Both
    take their chunk of rows from ``lowerbound.PROBE_CHUNK``.
    """
    eps = np.repeat(instance.eps, instance.lengths)
    weights = np.repeat([L / instance.V for L in instance.lengths], instance.lengths)
    delta = instance.delta
    n_slots = len(eps)
    rows = max(1, lowerbound.PROBE_CHUNK // n_slots)
    chunks = [slice(lo, lo + rows) for lo in range(0, trials, rows)]

    Z = np.empty((trials, n_slots), dtype=bool)
    comp_loss = np.empty(trials)
    for c in chunks:
        z = Z[c]
        np.less(rng.random(z.shape), 0.5 + eps, out=z)
        comp_loss[c] = np.sum(0.5 * (1.0 - delta) + delta * z, axis=1)

    learner_loss, W = np.empty(trials), np.empty(trials)
    for c in chunks:
        z = Z[c]
        if policy == "comparator":
            play2 = rng.random(z.shape) < delta
        else:
            play2 = np.full(z.shape, policy == "arm2")
        learner_loss[c] = np.sum(np.where(play2, z, 0.5), axis=1)
        W[c] = play2 @ weights
    regret = learner_loss - comp_loss
    scale = instance.gamma * math.sqrt(instance.V)
    residual = regret - scale * (W - delta)
    se = float(residual.std(ddof=1) / math.sqrt(trials))
    return ProbeResult(
        mean_regret=float(regret.mean()), mean_W=float(W.mean()),
        predicted_regret=scale * (float(W.mean()) - delta),
        residual_mean=float(residual.mean()), residual_se=se,
    )


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
    """SafeExp3IX.distribution for the weights log_w."""
    w = np.exp(log_w - np.maximum.reduce(log_w))
    return w / np.add.reduce(w)
