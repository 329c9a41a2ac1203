"""Property tests on the single per-lambda evaluation behind EM and on the EM loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umaxent import (
    Distribution,
    ElementSpace,
    EmConfig,
    EmpiricalObservations,
    FeatureTable,
    ObservationChannel,
    UMaxEntProblem,
    Weights,
    em_solve,
    log_linear_distribution,
)
from umaxent.em import evaluate


def build(values, channel, tilde):
    feat = FeatureTable(values)
    return UMaxEntProblem(ElementSpace(range(feat.n_elements)), feat,
                          ObservationChannel(channel), EmpiricalObservations(Distribution(tilde)))


@st.composite
def problems(draw):
    """(values, channel, tilde, lam) with zero channel entries and zero-mass observations."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 7))
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(-3, 3, size=(k, n))
    channel = rng.dirichlet(np.ones(m), size=n).T
    channel[rng.random(channel.shape) < draw(st.sampled_from([0.0, 0.3, 0.6]))] = 0.0
    channel[rng.integers(m, size=n), np.arange(n)] += 0.1
    channel /= channel.sum(axis=0)
    tilde = rng.dirichlet(np.ones(m)) * (channel.sum(axis=1) > 0)
    if draw(st.booleans()):
        tilde[rng.random(m) < 0.3] = 0.0
    tilde[np.argmax(channel.sum(axis=1))] += 0.1
    lam = rng.uniform(-3, 3, size=k)
    return values, channel, tilde / tilde.sum(), lam, rng


def evaluated(values, channel, tilde, lam):
    problem = build(values, channel, tilde)
    return evaluate(problem, Weights(lam))


@settings(max_examples=150, deadline=None)
@given(problems())
def test_phi_hat_stays_inside_feature_range(case):
    values, channel, tilde, lam, _ = case
    ev = evaluated(values, channel, tilde, lam)
    slack = 1e-12 * (1 + np.abs(values).max())
    assert np.all(ev.phi_hat >= values.min(axis=1) - slack)
    assert np.all(ev.phi_hat <= values.max(axis=1) + slack)


@settings(max_examples=150, deadline=None)
@given(problems())
def test_evaluation_invariant_under_relabelling(case):
    values, channel, tilde, lam, rng = case
    ev = evaluated(values, channel, tilde, lam)
    px = rng.permutation(values.shape[1])
    pw = rng.permutation(channel.shape[0])
    ev_perm = evaluated(values[:, px], channel[pw][:, px], tilde[pw], lam)
    assert ev_perm.phi_hat == pytest.approx(ev.phi_hat, abs=1e-12)
    for name in ("loglik", "u_star", "h", "residual"):
        assert getattr(ev_perm, name) == pytest.approx(getattr(ev, name), abs=1e-12), name


@settings(max_examples=60, deadline=None)
@given(problems())
def test_em_monotone_and_bounding_with_zero_entries_and_zero_mass(case):
    values, channel, tilde, _, _ = case
    _, trace = em_solve(build(values, channel, tilde), EmConfig(max_em_iter=8))
    assert np.all(np.diff(trace.logliks()) >= -1e-12)
    for row in trace.rows:
        assert row.u_star + row.q + row.h <= row.loglik + 1e-12, row.iteration


@st.composite
def deterministic_problems(draw):
    """(values, channel, tilde): each observation names one element, each element
    has at least one observation, and every observation has positive mass, so
    the induced empirical distribution over elements is interior."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(n, 9))
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    owner = np.concatenate([rng.permutation(n), rng.integers(n, size=m - n)])
    channel = np.zeros((m, n))
    channel[np.arange(m), owner] = rng.uniform(0.1, 1.0, size=m)
    channel /= channel.sum(axis=0)
    return rng.uniform(-3, 3, size=(k, n)), channel, rng.dirichlet(np.ones(m))


@settings(max_examples=60, deadline=None)
@given(deterministic_problems())
def test_deterministic_channel_finishes_in_one_m_step(case):
    values, channel, tilde = case
    _, trace = em_solve(build(values, channel, tilde))
    assert trace.converged and trace.termination == "residual"
    assert len(trace) == 2


def fitted(values, channel, tilde, config):
    lam, _ = em_solve(build(values, channel, tilde), config)
    return log_linear_distribution(lam, FeatureTable(values)).probs


@settings(max_examples=40, deadline=None)
@given(problems())
def test_em_solve_invariant_under_relabelling(case):
    # the same fit, element for element: compare distributions, since weights
    # along flat directions of the likelihood need not agree
    values, channel, tilde, _, rng = case
    config = EmConfig(max_em_iter=20)
    px = rng.permutation(values.shape[1])
    pw = rng.permutation(channel.shape[0])
    p = fitted(values, channel, tilde, config)
    p_perm = fitted(values[:, px], channel[pw][:, px], tilde[pw], config)
    assert np.abs(p_perm - p[px]).max() <= 1e-9


@settings(max_examples=40, deadline=None)
@given(problems(), st.floats(-3, 3))
def test_em_solve_ignores_a_constant_feature(case, c):
    values, channel, tilde, _, _ = case
    config = EmConfig(max_em_iter=20)
    p = fitted(values, channel, tilde, config)
    p_const = fitted(np.vstack([values, np.full(values.shape[1], c)]), channel, tilde, config)
    assert np.abs(p_const - p).max() <= 1e-9
