"""End-to-end acceptance suite.

Each test checks one advertised guarantee of the package and prints a single
pass/fail line. The desk-scale profile (T=20000, A=10, 100 blocks) keeps the
whole suite within a minutes-scale budget.
"""
import math
import time

import numpy as np
import pytest

from prudentbanker.harness import (RunConfig, build_environment, emit, make_learner,
                                   play, run)
from prudentbanker.lowerbound import (HardInstancePair, bucket_inequalities,
                                      corollary_delays, greedy_buckets,
                                      batched_simulate, safety_gap_identity)
from prudentbanker.mirror import (NEG_ENTROPY, TSALLIS_HALF, Regularizer,
                                  grad_psi, grad_psi_star_with_dual)
from prudentbanker.protocol import DelaySequence, EnvironmentConfig
from prudentbanker.prudent import ThresholdFunctions, build_comparator, gap_statistic

from reference import bregman, native_play, outstanding_counters, trace_columns

SEEDS = (0, 1, 2, 3, 4)
DESK_T, DESK_A, DESK_B = 20000, 10, 100
DESK_DELTA = 0.01
# threshold calibration that makes full aggression reachable at desk scale
DESK_SCALE = 0.02


def report(num, label, ok):
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok


def desk_config(delay_model, seed, learner="prudent-banker", scale=DESK_SCALE):
    env = EnvironmentConfig(horizon=DESK_T, arms=DESK_A, blocks=DESK_B,
                            delay_model=delay_model, seed=seed)
    return RunConfig(env=env, learner=learner, delta=DESK_DELTA,
                     threshold_scale=scale, seed=seed)


@pytest.fixture(scope="module")
def desk_runs():
    """Shared desk-scale runs: per seed, a no-delay and a geometric-delay
    Prudent-Banker run plus a Safe-EXP3-IX run on the same geometric
    environment."""
    start = time.perf_counter()
    out = {}
    for seed in SEEDS:
        cfg_g = desk_config("geometric", seed)
        table, delays = build_environment(cfg_g.env)
        out[seed] = {
            "nodelay": run(desk_config("none", seed)),
            "geometric": run(cfg_g, table, delays),
            "exp3ix": run(desk_config("geometric", seed, learner="safe-exp3ix"),
                          table, delays),
            "delays": delays,
        }
    out["elapsed"] = time.perf_counter() - start
    return out


def test_criterion_1_credit_conservation():
    start = time.perf_counter()
    trace = run(desk_config("geometric", 0), keep_learner=True)
    elapsed = time.perf_counter() - start
    base = trace.learner.base
    ok = (base.max_conservation_residual <= 1e-9
          and base.min_credit_seen >= -1e-12
          and elapsed < 10.0)
    report(1, "credit conservation over 20000 delayed rounds", ok)


def test_criterion_2_outstanding_feedback_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(1000):
        T = int(rng.integers(1, 201))
        d = rng.integers(0, 2 * T, size=T).astype(np.int64)
        delays = DelaySequence(delays=d)
        end = int(rng.integers(1, T + 1))
        _, mass = outstanding_counters(delays, 1, end)
        total = int(d[:end].sum())
        identity = sum(min(int(d[r - 1]), end - r) for r in range(1, end + 1))
        ok = ok and (mass <= total) and (mass == identity)
    elapsed = time.perf_counter() - start
    report(2, "outstanding-mass bound and double-counting identity", ok and elapsed < 5.0)


def test_criterion_3_delay_estimate_doubling(desk_runs):
    ok = True
    for seed in SEEDS:
        trace = desk_runs[seed]["geometric"]
        hard = [r for r in trace.restarts if r.kind == "hard"]
        ok = ok and bool(hard)
        for r in hard:
            ok = ok and r.new_estimate < 2 * r.trigger
            ok = ok and r.new_estimate >= r.old_estimate
        D = desk_runs[seed]["delays"].total
        ok = ok and trace.summary["stages"] <= math.ceil(math.log2(D)) + 1
    report(3, "hard-restart doubling and stage-count bound", ok)


def test_criterion_4_missing_count_bound():
    ok = True
    for seed in range(3):
        env = EnvironmentConfig(horizon=2000, arms=4, blocks=10,
                                delay_model="geometric", seed=seed)
        cfg = RunConfig(env=env, delta=0.1, threshold_scale=DESK_SCALE, seed=seed)
        table, delays = build_environment(env)
        istar = table.hindsight[0]
        learner = make_learner(cfg, istar, 0.5, build_comparator(4, cfg.delta, istar))
        receive, held = learner.receive, []

        def checked_receive(events, t):
            receive(events, t)
            m = len(learner.base.missing)
            realized = sum(delays.delays[u - 1] for u in learner.base.missing)
            held.append(m * (m + 1) // 2 <= realized)

        learner.receive = checked_receive
        play(learner, table, delays)
        ok = ok and len(held) == env.horizon and all(held)
    report(4, "missing-count versus realized-delay bound", ok)


def test_criterion_5_estimator_unbiased():
    rng = np.random.default_rng(5)
    delta = 0.05
    x = rng.dirichlet(np.ones(6))
    x = 0.5 * x + 0.5 * np.full(6, 1.0 / 6)  # min coordinate >= delta/2
    assert x.min() >= delta / 2
    loss = rng.random(6)
    n = 100000
    arms = rng.choice(6, size=n, p=x)
    est = np.zeros(6)
    np.add.at(est, arms, loss[arms] / x[arms])
    est /= n
    se = np.sqrt(loss ** 2 * (1 - x) / x / n)
    ok = bool(np.all(np.abs(est - loss) <= 3 * se + 1e-12))
    report(5, "importance-weighted estimator unbiasedness", ok)


def test_criterion_6_mirror_round_trip_and_diameter():
    rng = np.random.default_rng(6)
    ok = True
    for kind, c1_of in ((NEG_ENTROPY, lambda A: math.log(A)),
                        (TSALLIS_HALF, lambda A: 2.0 * (math.sqrt(A) - 1.0))):
        for _ in range(1000):
            A = int(rng.integers(2, 11))
            reg = Regularizer(kind, A, 1.0 / (2 * A))
            x = rng.dirichlet(np.ones(A))
            x = (1 - A * 1e-6) * x + 1e-6
            x = x / x.sum()
            back = grad_psi_star_with_dual(reg, grad_psi(reg, x))[0]
            ok = ok and np.max(np.abs(back - x)) <= 1e-8
            y = rng.dirichlet(np.ones(A))
            ok = ok and bregman(reg, y, reg.x0) <= c1_of(A) + 1e-9
    report(6, "mirror-map round trip and Bregman diameter", ok)


def test_criterion_7_gap_statistic_oracle():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(10000):
        A = int(rng.integers(2, 7))
        g = rng.normal(scale=10.0, size=A)
        xc = rng.dirichlet(np.ones(A))
        brute = max(float(np.dot(g, xc) - g[a]) for a in range(A))
        ok = ok and gap_statistic(g, xc) == brute
    report(7, "gap-statistic vertex oracle", ok)


def test_criterion_8_greedy_bucket_inequalities():
    rng = np.random.default_rng(8)
    ok = True
    for _ in range(500):
        T = int(rng.integers(1, 80))
        d = np.sort(rng.integers(1, T + 1, size=T))[::-1]
        caps = T + 1 - np.arange(1, T + 1)
        seq = DelaySequence(delays=np.minimum(d, caps).astype(np.int64))
        ok = ok and all(bucket_inequalities(greedy_buckets(seq), seq))
    for q in (1, 2, 5):
        for N in (1, 3):
            seq = corollary_delays(q, N)
            ok = ok and all(bucket_inequalities(greedy_buckets(seq), seq))
    report(8, "greedy-bucket decomposition inequalities", ok)


def test_criterion_9_batched_reduction_identity():
    delays = corollary_delays(2, 2)
    decomp = greedy_buckets(delays)
    inst = HardInstancePair(decomp.lengths, 0.25, arms=2)
    ok = True
    for seed in range(100):
        cols, regret = batched_simulate(inst, delays, seed)
        native, native_regret = native_play(inst, delays, seed)
        ok = ok and (np.array_equal(cols.arm, native.arm) and regret == native_regret
                     and np.array_equal(cols.loss, native.loss))
    report(9, "delayed-to-batched pathwise identity on 100 coupled seeds", ok)


def test_criterion_10_hard_instance_probe():
    inst = HardInstancePair((2, 2, 2), 0.25, arms=2)
    ok = all(safety_gap_identity(inst, policy).ok for policy in ("arm1", "arm2", "comparator"))
    report(10, "hard-instance safety-gap identity, exact", ok)


def test_criterion_11_desk_scale_structure(desk_runs):
    ok = True
    pb_wins = 0
    for seed in SEEDS:
        nd = desk_runs[seed]["nodelay"]
        ok = ok and nd.summary["stages"] == 1
        alpha = trace_columns(nd)["alpha"]
        ok = ok and bool(np.all(np.diff(alpha) >= 0))
        first_one = int(np.argmax(alpha == 1.0))
        ok = ok and alpha[first_one] == 1.0
        ok = ok and bool(np.all(alpha[first_one:] == 1.0))

        geo = desk_runs[seed]["geometric"]
        hard = [r for r in geo.restarts if r.kind == "hard"]
        ok = ok and bool(hard)
        cols = trace_columns(geo)
        stage, alpha = cols["stage"], cols["alpha"]
        boundaries = np.flatnonzero(np.diff(stage)) + 1
        ok = ok and len(boundaries) == len(hard)
        for i in boundaries:
            # aggression resets when a new stage begins
            ok = ok and alpha[i] <= alpha[i - 1]
            ok = ok and alpha[i] < 1.0

        # comparator pseudo-regret against the uncalibrated restart threshold
        reg = Regularizer(NEG_ENTROPY, DESK_A, DESK_DELTA)
        tf = ThresholdFunctions(reg, DESK_T)
        bound = geo.summary["stages"] * (
            tf.restart_threshold(geo.summary["final_delay_estimate"]) + 2.0)
        ok = ok and geo.summary["comparator_gap"] <= bound

        if (desk_runs[seed]["exp3ix"].summary["regret_vs_best_fixed_arm"]
                > geo.summary["regret_vs_best_fixed_arm"]):
            pb_wins += 1
    ok = ok and pb_wins >= 3
    ok = ok and desk_runs["elapsed"] < 120.0
    report(11, "desk-scale structural reproduction over 5 seeds", ok)


def test_criterion_12_byte_determinism(tmp_path):
    blobs = []
    for rep in range(2):
        trace = run(desk_config("geometric", 0, scale=1.0))
        path, _ = emit(trace, tmp_path / f"rep{rep}")
        blobs.append(path.read_bytes())
    report(12, "byte-identical CSV across repeated runs", blobs[0] == blobs[1])
