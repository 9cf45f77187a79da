import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prudentbanker import banker, mirror
from prudentbanker.errors import ConfigError, DomainError
from prudentbanker.harness import RunConfig, build_environment, run
from prudentbanker.mirror import (NEG_ENTROPY, REGULARIZERS, TSALLIS_HALF, Regularizer,
                                  grad_psi, grad_psi_star_with_dual)
from prudentbanker.protocol import EnvironmentConfig

from reference import bregman


def regs(arms=4, delta=None):
    delta = delta if delta is not None else 1.0 / arms
    return (Regularizer(NEG_ENTROPY, arms, delta),
            Regularizer(TSALLIS_HALF, arms, delta))


def random_interior(rng, arms, floor=1e-6):
    x = rng.dirichlet(np.ones(arms))
    x = (1 - arms * floor) * x + floor
    return x / x.sum()


def test_constants():
    ent, tsa = regs(arms=4, delta=0.1)
    assert ent.constants == pytest.approx((np.log(4), 10.0))
    assert tsa.constants == pytest.approx((2.0 * (2.0 - 1.0), 20.0))


def test_constants_are_python_floats_computed_once():
    for reg in regs(arms=4, delta=0.1):
        c = reg.constants
        assert all(type(v) is float for v in c)
        assert reg.constants is c


def test_invalid_regularizer_config():
    for kind, arms, delta, message in [("unknown", 4, 0.1, "unknown regularizer kind 'unknown'"),
                                       (NEG_ENTROPY, 0, 0.1, "arms must be at least 1, got 0"),
                                       (NEG_ENTROPY, 2.5, 0.1, "arms must be an integer"),
                                       (NEG_ENTROPY, 4, 0.3, "delta must lie in"),  # delta > 1/A
                                       # C2 = 1/delta or 2/delta overflows to inf
                                       (NEG_ENTROPY, 4, 1e-320, "C2 overflows"),
                                       (NEG_ENTROPY, 4, 5e-309, "C2 overflows"),
                                       (TSALLIS_HALF, 4, 1e-320, "C2 overflows"),
                                       (TSALLIS_HALF, 4, 1e-308, "C2 overflows")]:
        with pytest.raises(ConfigError, match=message):
            Regularizer(kind, arms, delta)


def test_a_tiny_delta_whose_c2_is_finite_is_accepted():
    assert Regularizer(NEG_ENTROPY, 4, 6e-309).constants[1] == 1.0 / 6e-309
    assert Regularizer(TSALLIS_HALF, 4, 1.2e-308).constants[1] == 2.0 / 1.2e-308


def test_gradients_at_uniform():
    ent, tsa = regs(arms=4)
    u = np.full(4, 0.25)
    np.testing.assert_allclose(grad_psi(ent, u), 1.0 + np.log(0.25))
    np.testing.assert_allclose(grad_psi(tsa, u), -2.0)
    # uniform over A arms gives the constant -sqrt(A) for the Tsallis map
    for A in (2, 9, 16):
        tsa_a = Regularizer(TSALLIS_HALF, A, 1.0 / A)
        np.testing.assert_allclose(grad_psi(tsa_a, tsa_a.x0), -np.sqrt(A))


def test_gradient_domain_error():
    ent, tsa = regs(arms=3)
    for bad in ([0.5, 0.5, 0.0], [np.nan, 0.5, 0.5], [0.5, np.inf, 0.5], [-np.inf, 0.5, 0.5]):
        for reg in (ent, tsa):
            with pytest.raises(DomainError):
                grad_psi(reg, np.array(bad))


def conjugate_error(reg, theta, primal):
    """The arguments of the DomainError the conjugate raises on theta."""
    with pytest.raises(DomainError) as exc:
        grad_psi_star_with_dual(reg, theta, primal=primal)
    return exc.value.args


@pytest.mark.parametrize("v", [np.full(2, 0.5), np.array([]), np.full((1, 4), 0.25)],
                         ids=["2-vector", "empty", "1x4"])
def test_a_vector_of_the_wrong_shape_is_a_domain_error(v):
    for reg in regs(arms=4):
        with pytest.raises(DomainError):
            grad_psi(reg, v)
        assert conjugate_error(reg, v, primal=True) == conjugate_error(reg, v, primal=False)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [0, 2, 3])
def test_conjugate_rejects_a_non_finite_entry(bad, at):
    for reg in regs(arms=4):
        theta = np.array([0.5, -1.0, 2.0, 0.0])
        theta[at] = bad
        assert conjugate_error(reg, theta, primal=True) == conjugate_error(reg, theta, primal=False)


def test_conjugate_constant_dual_is_uniform():
    for reg in regs(arms=5):
        x = grad_psi_star_with_dual(reg, np.full(5, -3.7))[0]
        np.testing.assert_allclose(x, 0.2, atol=1e-10)


def test_tsallis_conjugate_inverts_uniform_gradient():
    A = 9
    reg = Regularizer(TSALLIS_HALF, A, 1.0 / A)
    x = grad_psi_star_with_dual(reg, np.full(A, -np.sqrt(A)))[0]
    np.testing.assert_allclose(x, 1.0 / A, atol=1e-10)


def test_round_trip_both_kinds():
    rng = np.random.default_rng(0)
    for reg in regs(arms=6):
        for _ in range(200):
            x = random_interior(rng, 6)
            back = grad_psi_star_with_dual(reg, grad_psi(reg, x))[0]
            np.testing.assert_allclose(back, x, atol=1e-8)


def test_translation_invariance():
    rng = np.random.default_rng(1)
    for reg in regs(arms=5):
        theta = rng.normal(size=5) * 10
        a = grad_psi_star_with_dual(reg, theta)[0]
        b = grad_psi_star_with_dual(reg, theta + 123.456)[0]
        np.testing.assert_allclose(a, b, atol=1e-10)


def test_tsallis_normalization_and_positivity():
    rng = np.random.default_rng(2)
    reg = Regularizer(TSALLIS_HALF, 7, 1.0 / 7)
    for _ in range(100):
        theta = rng.normal(scale=50.0, size=7)
        x = grad_psi_star_with_dual(reg, theta)[0]
        assert abs(x.sum() - 1.0) <= 1e-10
        assert x.min() > 0.0


def test_tsallis_conjugate_large_max_coordinate():
    # well posed, but without the max shift the ulp of lam ~ 1e5 alone
    # moves f by more than the convergence tolerance
    for A in (2, 10, 100):
        reg = Regularizer(TSALLIS_HALF, A, 1.0 / A)
        theta = np.zeros(A)
        theta[0] = 1e5
        x = grad_psi_star_with_dual(reg, theta)[0]
        assert abs(x.sum() - 1.0) <= 1e-12 and x.min() > 0.0
        # lam = 1 + O(1e-10), so the other arms each get 1/(1e5 + 1)^2
        assert x[0] == pytest.approx(1.0 - (A - 1) / (1e5 + 1.0) ** 2, abs=1e-15)


def test_tsallis_conjugate_large_offset():
    rng = np.random.default_rng(6)
    for A in (2, 10, 1000):
        reg = Regularizer(TSALLIS_HALF, A, 1.0 / A)
        for _ in range(20):
            theta = rng.normal(scale=rng.choice([0.1, 10.0, 1e3]), size=A)
            theta = np.round(theta * 2.0**30) / 2.0**30  # so theta + 1e6 is exact
            a = grad_psi_star_with_dual(reg, theta)[0]
            b = grad_psi_star_with_dual(reg, theta + 1e6)[0]
            np.testing.assert_allclose(b, a, rtol=0, atol=1e-12)


def test_dual_output_matches_gradient():
    rng = np.random.default_rng(3)
    for reg in regs(arms=4):
        theta = rng.normal(size=4)
        x, dual = grad_psi_star_with_dual(reg, theta)
        # dual equals grad_psi(x) up to an additive constant
        diff = dual - grad_psi(reg, x)
        np.testing.assert_allclose(diff, diff[0], atol=1e-8)


def test_negative_entropy_dual_is_theta_minus_its_max():
    reg = Regularizer(NEG_ENTROPY, 4, 0.25)
    theta = np.array([0.5, -2.0, 3.25, 1.0])
    assert grad_psi_star_with_dual(reg, theta)[1].tobytes() == (theta - 3.25).tobytes()


@pytest.mark.parametrize("arms", [10, 100])
def test_tsallis_conjugate_of_its_own_dual_solves_at_the_first_evaluation(arms, monkeypatch):
    """The warm start -max theta is the root at a dual with constant 0, so no
    step is taken there; a dual shifted to max 0 would need the model."""
    calls = []
    real_root = mirror._two_pole_root
    monkeypatch.setattr(mirror, "_two_pole_root",
                        lambda *args: calls.append(args) or real_root(*args))
    reg = Regularizer(TSALLIS_HALF, arms, 1.0 / arms)
    rng = np.random.default_rng(arms)
    duals = [grad_psi_star_with_dual(reg, rng.normal(scale=scale, size=arms))[1]
             for scale in (0.01, 1.0, 100.0, 1e4) for _ in range(10)]
    calls.clear()
    for dual in duals:
        grad_psi_star_with_dual(reg, dual)
    assert calls == []
    for dual in duals:
        grad_psi_star_with_dual(reg, dual - dual.max())
    assert len(calls) >= len(duals)


def test_bregman_basics():
    ent, tsa = regs(arms=3)
    u = np.full(3, 1.0 / 3)
    for reg in (ent, tsa):
        assert bregman(reg, u, u) == pytest.approx(0.0, abs=1e-12)
    e1 = np.array([1.0, 0.0, 0.0])
    assert bregman(ent, e1, u) == pytest.approx(np.log(3))
    with pytest.raises(DomainError):
        bregman(ent, u, e1)  # boundary second argument


def test_bregman_matches_kl_for_entropy():
    rng = np.random.default_rng(4)
    ent = Regularizer(NEG_ENTROPY, 5, 0.2)
    for _ in range(50):
        x = random_interior(rng, 5)
        y = random_interior(rng, 5)
        kl = float(np.sum(x * np.log(x / y)))
        assert bregman(ent, x, y) == pytest.approx(kl, abs=1e-10)


def test_diameter_bound():
    rng = np.random.default_rng(5)
    for arms in (2, 4, 10):
        ent = Regularizer(NEG_ENTROPY, arms, 1.0 / arms)
        tsa = Regularizer(TSALLIS_HALF, arms, 1.0 / arms)
        for _ in range(1000):
            y = rng.dirichlet(np.ones(arms))
            assert bregman(ent, y, ent.x0) <= np.log(arms) + 1e-9
            assert bregman(tsa, y, tsa.x0) <= 2.0 * (np.sqrt(arms) - 1.0) + 1e-9


# -- differential check of the Tsallis conjugate against bisection ----------

def tsallis_conjugate_by_bisection(theta):
    """Slow reference: bisect f(lam) = sum (lam - theta_i)^-2 = 1 to the last ulp.

    Works after the max shift, where the root lies in [1, sqrt(A)] and the
    bisection can resolve it; returns (x, dual) like grad_psi_star_with_dual.
    """
    shifted = theta - theta.max()
    lo, hi = 1.0, max(1.0, np.sqrt(theta.size))
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if np.sum((mid - shifted) ** -2.0) > 1.0:
            lo = mid
        else:
            hi = mid
    f_lo, f_hi = (np.sum((lam - shifted) ** -2.0) for lam in (lo, hi))
    lam = lo if abs(f_lo - 1.0) <= abs(f_hi - 1.0) else hi
    x = (lam - shifted) ** -2.0
    return x / x.sum(), shifted - lam


def two_pole_model_root_by_bisection(lam, f, s3):
    """Root of the two-pole model of f fitted at lam, bisected to the last ulp.

    The model is 1/mu^2 + K/(mu - p)^2 as in mirror._two_pole_root; it falls
    from +inf at mu = 0 to 0, so the root is unique. None where there is no
    model.
    """
    a = 1.0 / lam
    f_rest, s3_rest = f - a * a, s3 - a * a * a
    if not (f_rest > 0.0 and s3_rest > 0.0):
        return None
    span = f_rest / s3_rest  # lam - p
    gain = f_rest * span * span  # K

    def model(mu):
        return 1.0 / mu ** 2 + gain / (mu - lam + span) ** 2

    lo, hi = 0.0, 2.0 * math.sqrt(1.0 + gain)  # p <= 0, so model(hi) <= 1/4
    assert model(hi) < 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi
        if model(mid) > 1.0:
            lo = mid
        else:
            hi = mid


def lowered_gradient(draw, reg, rng):
    """theta = grad_psi(x) - c e_a for a random distribution x, as BankerOMD.ingest builds it."""
    concentration = 10.0 ** draw(st.floats(-2, 2))
    x = rng.dirichlet(np.full(reg.arms, concentration))
    x = np.maximum(x, 1e-300)
    theta = grad_psi(reg, x)
    theta[draw(st.integers(0, reg.arms - 1))] -= 10.0 ** draw(st.floats(-3, 6))
    return theta


def draw_regularizer(draw, kind):
    A = draw(st.integers(1, 1000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return Regularizer(kind, A, 1.0 / A), rng


def draw_offset(draw):
    return draw(st.sampled_from([0.0, 1.0, -1.0])) * 10.0 ** draw(st.floats(-3, 6))


@st.composite
def ingest_duals(draw, offset=True, kind=TSALLIS_HALF):
    """theta = grad_psi(x) - c e_a, built as BankerOMD.ingest builds it, plus an offset."""
    reg, rng = draw_regularizer(draw, kind)
    theta = lowered_gradient(draw, reg, rng)
    return reg, theta + draw_offset(draw) if offset else theta


@st.composite
def begin_round_duals(draw, offset=True, kind=TSALLIS_HALF):
    """theta as BankerOMD.begin_round builds it, plus an offset: a convex mixture
    of the conjugate duals of 1-3 ingest-style theta and of the borrow term
    grad_psi(x0)."""
    reg, rng = draw_regularizer(draw, kind)
    terms = [grad_psi_star_with_dual(reg, lowered_gradient(draw, reg, rng))[1]
             for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        terms.append(grad_psi(reg, reg.x0))
    weights = rng.dirichlet(np.ones(len(terms)))
    theta = sum(w * term for w, term in zip(weights, terms))
    return reg, theta + draw_offset(draw) if offset else theta


@settings(max_examples=300, deadline=None)
@given(st.one_of(*(duals(kind=kind) for duals in (ingest_duals, begin_round_duals)
                   for kind in REGULARIZERS)))
def test_the_dual_alone_has_the_bytes_of_the_pair_calls_dual(case):
    reg, theta = case
    _, dual = grad_psi_star_with_dual(reg, theta)
    x, dual_alone = grad_psi_star_with_dual(reg, theta, primal=False)
    assert x is None and dual_alone.tobytes() == dual.tobytes()


@pytest.mark.parametrize("regularizer", REGULARIZERS)
def test_every_dual_the_ledger_stores_is_the_pair_calls_dual(regularizer, monkeypatch):
    """On a 1,000-round seed-0 desk geometric Banker-OMD game, each applied
    feedback stores the dual that the (x, dual) call gives on the same theta."""
    thetas, real_conjugate = [], banker.grad_psi_star_with_dual
    checked, real_ingest = [], banker.BankerOMD.ingest

    def recording_conjugate(reg, theta, **kwargs):
        thetas.append(theta.copy())
        return real_conjugate(reg, theta, **kwargs)

    def checking_ingest(self, event):
        w = real_ingest(self, event)
        if w is not None:
            want = real_conjugate(self.reg, thetas[-1])[1]
            assert self.records[event.origin_round].dual_z.tobytes() == want.tobytes()
            checked.append(event.origin_round)
        return w

    monkeypatch.setattr(banker, "grad_psi_star_with_dual", recording_conjugate)
    monkeypatch.setattr(banker.BankerOMD, "ingest", checking_ingest)
    config = RunConfig(env=EnvironmentConfig(horizon=1000, delay_model="geometric"),
                       learner="banker-omd", regularizer=regularizer)
    run(config, *build_environment(config.env))
    assert len(checked) > 900  # every round but those whose feedback is still due


@settings(max_examples=300, deadline=None)
@given(st.one_of(ingest_duals(), begin_round_duals()))
def test_tsallis_conjugate_matches_bisection(case):
    reg, theta = case
    x, dual = grad_psi_star_with_dual(reg, theta)
    x_ref, dual_ref = tsallis_conjugate_by_bisection(theta)
    assert np.max(np.abs(x - x_ref)) <= 1e-12
    shift = dual - dual_ref
    assert np.ptp(shift) <= 1e-10 * max(1.0, np.max(np.abs(dual_ref)))
    assert abs(x.sum() - 1.0) <= 1e-12
    assert x.min() > 0.0


@settings(max_examples=300, deadline=None)
@given(st.one_of(ingest_duals(), begin_round_duals()))
def test_tsallis_model_starts_at_the_clamped_newton_step_left_of_its_root(case):
    """Each model solve starts at the Newton step on h = f^(-1/2), clamped into
    the bracket: at lo, or at most the model's root (a Newton step on a concave
    h with the model's value and slope); at lo where the root is left of lo."""
    reg, theta = case
    calls, real_root = [], mirror._two_pole_root
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mirror, "_two_pole_root",
                   lambda *args: calls.append(args) or real_root(*args))
        grad_psi_star_with_dual(reg, theta)
    lo, hi = 1.0, math.sqrt(reg.arms)
    for lam, f, s3, start in calls:  # the bracket as the solve narrows it
        if f > 1.0:
            lo = lam
        else:
            hi = lam
        assert start == min(max(lam + f * (f ** 0.5 - 1.0) / s3, lo), hi)
        root = two_pole_model_root_by_bisection(lam, f, s3)
        if root is not None:
            assert lo <= start <= max(lo, root * (1.0 + 1e-14))


def test_two_pole_root_is_nan_where_the_model_is_below_one_at_the_start():
    # both rests are positive, so there is a model, but it reads 0.9 at the
    # start, which lies right of its root: the caller takes the clamped step
    assert math.isnan(mirror._two_pole_root(2.0, 0.9, 0.5, 2.0))


def test_tsallis_solves_of_a_short_desk_game_take_about_two_evaluations(monkeypatch):
    """Replay the conjugate inputs of a 1,000-round seed-0 desk geometric
    1/2-Tsallis Prudent-Banker game: each solve evaluates f 1-3 times, 2.04
    times on average. An evaluation that does not end the solve fits the model
    once, so a solve's evaluations are its model calls plus one."""
    inputs, real_conjugate = [], banker.grad_psi_star_with_dual
    monkeypatch.setattr(banker, "grad_psi_star_with_dual",
                        lambda reg, theta, **kwargs: inputs.append((reg, theta.copy()))
                        or real_conjugate(reg, theta, **kwargs))
    config = RunConfig(env=EnvironmentConfig(horizon=1000, delay_model="geometric"),
                       regularizer=TSALLIS_HALF)
    run(config, *build_environment(config.env))
    monkeypatch.undo()
    calls, real_root = [], mirror._two_pole_root
    monkeypatch.setattr(mirror, "_two_pole_root",
                        lambda *args: calls.append(args) or real_root(*args))
    evaluations = []
    for reg, theta in inputs:
        before = len(calls)
        grad_psi_star_with_dual(reg, theta)
        evaluations.append(len(calls) - before + 1)
    assert len(evaluations) > 1000  # every prediction and every applied feedback
    assert 1 <= min(evaluations) and max(evaluations) <= 3
    assert sum(evaluations) / len(evaluations) <= 2.05


@settings(max_examples=200, deadline=None)
@given(st.one_of(ingest_duals(offset=False), begin_round_duals(offset=False)))
def test_tsallis_root_is_at_most_minus_the_max_dual(case):
    # the solve starts at -max theta: the normalizer is 0 at a conjugate's dual
    # and at grad_psi of a distribution, and convex and nondecreasing in theta
    reg, theta = case
    _, dual_ref = tsallis_conjugate_by_bisection(theta)
    root = -dual_ref.max()  # the max coordinate's shifted entry is 0
    assert root <= -theta.max() + 1e-12 * max(1.0, abs(theta.max()))


@pytest.mark.parametrize("theta", [
    # from lam = 2, a Newton step on h would land at 0.999994, left of the bracket
    (-2.0, -1000.0, -1000.0, -1000.0),
    # the other terms' slope rounds away, so there is no model; the Newton step
    # on h from lam = 2 lands at 1 - 7e-16 and is clamped at 1
    (-2.0, -1e8, -1e8, -1e8),
])
def test_tsallis_conjugate_where_a_newton_step_leaves_the_bracket(theta):
    theta = np.array(theta)
    reg = Regularizer(TSALLIS_HALF, theta.size, 1.0 / theta.size)
    x, dual = grad_psi_star_with_dual(reg, theta)
    x_ref, dual_ref = tsallis_conjugate_by_bisection(theta)
    assert np.max(np.abs(x - x_ref)) <= 1e-12
    assert np.max(np.abs(dual - dual_ref)) <= 1e-12 * np.max(np.abs(dual_ref))
