"""The round path reads minima and maxima by index; check it against the reductions.

Each function is compared byte for byte with its form in ``reference`` that
takes extrema with ``np.minimum.reduce`` / ``np.maximum.reduce`` (the
conjugate's dual by value, see its test). The inputs include ties of +0.0
and -0.0 at the max and at the min, where ``argmax`` and ``argmin`` may pick
the other zero than the reduction does.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from prudentbanker.baselines import SafeExp3IX
from prudentbanker.errors import DomainError, NumericalError
from prudentbanker.mirror import REGULARIZERS, Regularizer, grad_psi, grad_psi_star_with_dual
from prudentbanker.prudent import build_comparator, gap_statistic
from prudentbanker.rng import RngSampler, stream

from reference import (exp3ix_distribution_by_reduction, gap_statistic_by_reduction,
                       grad_psi_by_reduction, grad_psi_star_with_dual_by_reduction)


@st.composite
def vectors(draw):
    """A float vector of 1-100 entries whose max, min or both may be a +-0 tie."""
    A = draw(st.integers(1, 100))
    v = draw(arrays(np.float64, A, elements=st.floats(-1e3, 1e3)))
    tie = draw(st.sampled_from(["max", "min", "both", "none"]))
    if tie == "max":
        v = -np.abs(v)
    elif tie == "min":
        v = np.abs(v)
    if tie != "none":
        k = A if tie == "both" else draw(st.integers(1, A))
        at = np.array(draw(st.permutations(range(A))))[:k]
        v[at] = np.where(np.arange(k) % 2, -0.0, 0.0)  # both zeros once k >= 2
    return v


def outcome(f, *args):
    """The bytes of f's result (each array of a tuple), or the error type it raised."""
    try:
        out = f(*args)
    except (DomainError, NumericalError) as exc:
        return type(exc)
    return tuple(np.asarray(o).tobytes() for o in (out if isinstance(out, tuple) else (out,)))


def dual_alone(reg, theta):
    return grad_psi_star_with_dual(reg, theta, primal=False)[1]


def regularizers(arms):
    return [Regularizer(kind, arms, 1.0 / arms) for kind in REGULARIZERS]


@settings(max_examples=300, deadline=None)
@given(vectors())
def test_conjugate_matches_reduction_form(theta):
    """x byte for byte; the dual by value, as theta - max theta keeps the sign
    of a zero where +0.0 and -0.0 tie at the max, and only exp reads it."""
    for reg in regularizers(theta.size):
        x, dual = grad_psi_star_with_dual(reg, theta)  # finite input always solves
        want_x, want_dual = grad_psi_star_with_dual_by_reduction(reg, theta)
        assert x.tobytes() == want_x.tobytes()
        assert np.array_equal(dual, want_dual)
        assert dual_alone(reg, theta).tobytes() == dual.tobytes()


@settings(max_examples=200, deadline=None)
@given(vectors())
def test_grad_psi_matches_reduction_form(v):
    for reg in regularizers(v.size):
        for x in (v, np.abs(v), np.abs(v) + 1e-300):
            assert outcome(grad_psi, reg, x) == outcome(grad_psi_by_reduction, reg, x)


@settings(max_examples=200, deadline=None)
@given(vectors(), st.floats(0.01, 1.0), st.data())
def test_gap_statistic_matches_reduction_form(g, delta_share, data):
    A = g.size
    xc = build_comparator(A, delta_share / A, data.draw(st.integers(0, A - 1)))
    assert outcome(gap_statistic, g, xc) == outcome(gap_statistic_by_reduction, g, xc)


@settings(max_examples=200, deadline=None)
@given(vectors())
def test_exp3ix_distribution_matches_reduction_form(log_w):
    # r0 = 0 opens the budget gate, so act plays the EXP3-IX distribution
    learner = SafeExp3IX(log_w.size, 100, default_arm=0, r0=0.0,
                         sampler=RngSampler(stream(0, "a")))
    learner.log_w = log_w
    q, _ = learner.act(1)
    assert q.tobytes() == exp3ix_distribution_by_reduction(log_w).tobytes()


@settings(max_examples=200, deadline=None)
@given(vectors(), st.sampled_from([np.nan, np.inf, -np.inf]), st.data())
def test_a_non_finite_entry_anywhere_is_a_domain_error(v, bad, data):
    at = data.draw(st.integers(0, v.size - 1))
    v[at] = bad
    x = np.abs(v) + 0.5  # interior but for the bad entry, so only it can fail the check
    x[at] = bad
    for reg in regularizers(v.size):
        assert outcome(grad_psi_star_with_dual, reg, v) is DomainError
        assert outcome(dual_alone, reg, v) is DomainError
        assert outcome(grad_psi_star_with_dual_by_reduction, reg, v) is DomainError
        assert outcome(grad_psi, reg, v) is DomainError
        assert outcome(grad_psi, reg, x) is DomainError

