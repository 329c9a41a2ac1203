import numpy as np
import pytest

import umaxent.em
from umaxent import (
    DimensionMismatch,
    Distribution,
    EmConfig,
    FeatureTable,
    ObservationChannel,
    SolverConfig,
    SolverResult,
    SyntheticSpec,
    TargetExpectations,
    UMaxEntProblem,
    ValidationError,
    Weights,
    ZeroMarginal,
    em_solve,
    evaluate,
    feature_expectation,
    generate,
    likelihood_decomposition,
    load_problem,
    log_linear_distribution,
    observation_marginal,
    solve_standard_maxent,
)


def test_settings_raise_validation_error():
    # every bad setting raises the type every model type raises
    with pytest.raises(ValidationError, match="^lambda_tol must be positive$"):
        EmConfig(lambda_tol=0.0)
    with pytest.raises(ValidationError, match="^grad_tol must be positive$"):
        SolverConfig(grad_tol=float("nan"))
    with pytest.raises(ValidationError, match="^max_iter must be an integer of at least 1"):
        SolverConfig(max_iter=0)
    with pytest.raises(ValidationError, match="target expectations contains non-finite"):
        TargetExpectations([0.5, np.inf])
    with pytest.raises(ValidationError, match="target expectations must be 1-dimensional"):
        TargetExpectations([[0.5]])


def make_problem(values, channel_matrix, empirical):
    return UMaxEntProblem(FeatureTable(values), ObservationChannel(channel_matrix),
                          Distribution(empirical))


def random_problem(rng, n_max=8, m_max=12, k_max=4):
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(2, m_max + 1))
    k = int(rng.integers(1, k_max + 1))
    values = rng.uniform(-2, 2, size=(k, n))
    channel = rng.dirichlet(np.ones(m), size=n).T
    empirical = rng.dirichlet(np.ones(m))
    return make_problem(values, channel, empirical)


def easy_problem(rng, n_max=6, k_max=3, noise=0.25):
    """Noisy-identity channel with an exactly realizable marginal.

    These have an interior fixed point, so EM converges quickly; used by
    tests that assert convergence rather than just monotonicity.
    """
    n = int(rng.integers(2, n_max + 1))
    k = int(rng.integers(1, k_max + 1))
    values = rng.uniform(-2, 2, size=(k, n))
    feat = FeatureTable(values)
    lam_true = Weights(rng.uniform(-1, 1, size=k))
    truth = log_linear_distribution(lam_true, feat)
    channel = ObservationChannel((1 - noise) * np.eye(n) + noise / n)
    marg = observation_marginal(truth, channel)
    return UMaxEntProblem(feat, channel, marg)


def enumerated_targets(problem, lam):
    """Brute-force double sum over omega and X, scalar loops only."""
    p = log_linear_distribution(Weights(lam), problem.features).probs
    ch = problem.channel.matrix
    tilde = problem.empirical.probs
    k, n = problem.features.values.shape
    m = ch.shape[0]
    out = np.zeros(k)
    for w in range(m):
        if tilde[w] == 0:
            continue
        marg = sum(ch[w, x] * p[x] for x in range(n))
        for x in range(n):
            post = ch[w, x] * p[x] / marg
            for j in range(k):
                out[j] += tilde[w] * post * problem.features.values[j, x]
    return out


def test_e_step_identity_channel_gives_empirical_expectations():
    problem = make_problem([[1.0, 0.0, 2.0]], np.eye(3), [0.5, 0.2, 0.3])
    out = evaluate(problem, Weights([0.7]))
    expected = problem.features.values @ problem.empirical.probs
    assert np.allclose(out.phi_hat, expected, atol=1e-12)


def test_e_step_uninformative_channel_returns_model_expectations():
    values = [[1.0, -1.0], [0.5, 2.0]]
    problem = make_problem(values, np.full((3, 2), 1 / 3), [0.1, 0.5, 0.4])
    lam = Weights([0.3, -0.2])
    out = evaluate(problem, lam)
    model_exp = feature_expectation(
        log_linear_distribution(lam, problem.features), problem.features
    )
    assert np.allclose(out.phi_hat, model_exp, atol=1e-14)


def test_e_step_two_by_two_enumeration():
    # truth [0.75, 0.25] through columns [0.9, 0.1] / [0.3, 0.7]
    channel = [[0.9, 0.3], [0.1, 0.7]]
    tilde = [0.75 * 0.9 + 0.25 * 0.3, 0.75 * 0.1 + 0.25 * 0.7]
    problem = make_problem([[1.0, 0.0]], channel, tilde)
    lam = np.array([0.0])  # model [0.5, 0.5]
    out = evaluate(problem, Weights(lam))
    assert np.allclose(out.phi_hat, enumerated_targets(problem, lam), atol=1e-14)
    # hand value: Pr(X0|w0) = .9/(.9+.3) = 0.75, Pr(X0|w1) = .1/(.1+.7) = 0.125
    hand = tilde[0] * 0.75 + tilde[1] * 0.125
    assert out.phi_hat[0] == pytest.approx(hand, abs=1e-12)


def test_e_step_random_matches_enumeration():
    rng = np.random.default_rng(12)
    for _ in range(20):
        problem = random_problem(rng, n_max=5, m_max=6, k_max=3)
        lam = rng.uniform(-1, 1, size=problem.features.n_features)
        out = evaluate(problem, Weights(lam))
        assert np.allclose(out.phi_hat, enumerated_targets(problem, lam), atol=1e-12)


def test_e_step_zero_marginal_policies():
    # observation 2 has empirical mass but a zero channel row: no element
    # produces it, so L is -inf under every model and the problem is rejected
    channel = np.array([[1.0, 0.5], [0.0, 0.5], [0.0, 0.0]])
    with pytest.raises(ZeroMarginal, match="no element can produce it") as exc:
        make_problem([[1.0, 0.0]], channel, [0.5, 0.25, 0.25])
    assert exc.value.index == 2
    # without mass on it the row is vacuous
    problem = make_problem([[1.0, 0.0]], channel, [0.5, 0.5, 0.0])
    assert np.isfinite(evaluate(problem, Weights([0.0])).loglik)
    # a marginal that underflows is an error for the evaluation
    with pytest.raises(ZeroMarginal) as exc:
        evaluate(problem, Weights([800.0]))
    assert exc.value.index == 1


def test_log_likelihood_identity_channel_is_negative_entropy():
    tilde = np.array([2 / 3, 1 / 3])
    problem = make_problem([[1.0, 0.0]], np.eye(2), tilde)
    lam = Weights([np.log(2)])  # model equals empirical
    expected = float(tilde @ np.log(tilde))
    assert evaluate(problem, lam).loglik == pytest.approx(expected, abs=1e-12)


def test_log_likelihood_uninformative_channel():
    problem = make_problem([[1.0, 0.0]], np.full((4, 2), 0.25), [0.1, 0.2, 0.3, 0.4])
    assert evaluate(problem, Weights([1.3])).loglik == pytest.approx(-np.log(4))


def test_log_likelihood_two_by_two_enumeration():
    channel = [[0.9, 0.3], [0.1, 0.7]]
    tilde = [0.75, 0.25]
    problem = make_problem([[1.0, 0.0]], channel, tilde)
    # lambda = 0: marginals are [0.6, 0.4]
    expected = 0.75 * np.log(0.6) + 0.25 * np.log(0.4)
    assert evaluate(problem, Weights([0.0])).loglik == pytest.approx(expected, abs=1e-14)


def test_log_likelihood_nonpositive():
    rng = np.random.default_rng(13)
    for _ in range(10):
        problem = random_problem(rng)
        lam = Weights(rng.uniform(-1, 1, size=problem.features.n_features))
        assert evaluate(problem, lam).loglik <= 0.0


def test_decomposition_tight_at_equal_weights():
    rng = np.random.default_rng(14)
    for _ in range(20):
        problem = random_problem(rng)
        lam = Weights(rng.uniform(-1, 1, size=problem.features.n_features))
        u, q, h = likelihood_decomposition(problem, lam, lam)
        assert u + q + h == pytest.approx(evaluate(problem, lam).loglik, abs=1e-10)


def test_decomposition_identity_channel_zero_conditional_entropy():
    problem = make_problem([[1.0, 0.0]], np.eye(2), [0.6, 0.4])
    lam = Weights([0.2])
    _, _, h = likelihood_decomposition(problem, lam, lam)
    assert h == pytest.approx(0.0, abs=1e-14)


def test_decomposition_lower_bound_random_pairs():
    rng = np.random.default_rng(15)
    problem = random_problem(rng)
    k = problem.features.n_features
    for _ in range(100):
        lam = Weights(rng.uniform(-1, 1, size=k))
        lam_prev = Weights(rng.uniform(-1, 1, size=k))
        u, q, h = likelihood_decomposition(problem, lam, lam_prev)
        assert u + q + h <= evaluate(problem, lam).loglik + 1e-10


def test_em_identity_channel_reduces_to_standard_maxent():
    rng = np.random.default_rng(16)
    values = rng.uniform(-2, 2, size=(2, 4))
    tilde = rng.dirichlet(np.ones(4))
    problem = make_problem(values, np.eye(4), tilde)
    lam, trace = em_solve(problem)
    assert trace.converged
    direct = solve_standard_maxent(Distribution(tilde), problem.features)
    d_em = log_linear_distribution(lam, problem.features).probs
    d_direct = log_linear_distribution(direct.weights, problem.features).probs
    assert 0.5 * np.abs(d_em - d_direct).sum() <= 1e-6
    assert trace.rows[-1].iteration <= 2


def test_em_uninformative_channel_returns_uniform():
    problem = make_problem([[1.0, 0.0, -1.0]], np.full((2, 3), 0.5), [0.7, 0.3])
    lam, trace = em_solve(problem)
    assert trace.converged
    assert trace.rows[-1].iteration <= 2
    dist = log_linear_distribution(lam, problem.features)
    assert np.allclose(dist.probs, 1 / 3, atol=1e-9)


def test_em_recovers_truth_expectations_exact_marginal():
    rng = np.random.default_rng(17)
    values = rng.uniform(-2, 2, size=(2, 3))
    feat = FeatureTable(values)
    lam_true = Weights([0.7, -0.3])
    truth = log_linear_distribution(lam_true, feat)
    channel = ObservationChannel(0.8 * np.eye(3) + 0.2 / 3)
    marg = observation_marginal(truth, channel)
    problem = UMaxEntProblem(feat, channel, marg)
    lam, trace = em_solve(problem)
    assert trace.converged
    e_rec = feature_expectation(log_linear_distribution(lam, feat), feat)
    e_true = feature_expectation(truth, feat)
    assert np.max(np.abs(e_rec - e_true)) <= 1e-5


def test_em_monotone_likelihood():
    # capped budgets: EM stays monotone with inexact M-steps because each
    # one warm-starts from the previous weights and only accepts descent steps
    from umaxent import SolverConfig
    rng = np.random.default_rng(18)
    cfg = EmConfig(max_em_iter=25, inner=SolverConfig(max_iter=300))
    for _ in range(10):
        problem = random_problem(rng)
        _, trace = em_solve(problem, cfg)
        logliks = trace.logliks()
        assert np.all(np.diff(logliks) >= -1e-9)


def test_em_fixed_point_certification():
    rng = np.random.default_rng(19)
    cfg = EmConfig()
    for _ in range(5):
        problem = easy_problem(rng)
        lam, trace = em_solve(problem, cfg)
        assert trace.converged
        assert evaluate(problem, lam).residual <= cfg.lambda_tol


def test_em_certificate_is_local():
    # L has two stationary points here, and EM certifies either one: from zero it
    # converges at the lower, started at the better one (found offline by BFGS on
    # L) it converges at row 0
    doc, _ = generate(SyntheticSpec(20, 30, 8, epsilon=0.5, seed=0, n_samples=200))
    problem = load_problem(doc).problem
    _, trace = em_solve(problem)
    assert trace.termination == "residual"
    assert trace.rows[-1].loglik == pytest.approx(-2.9558136, abs=1e-7)
    lam_star = Weights([2.588314, -1.079114, -1.778728, 1.878752,
                        4.486066, -1.345658, 0.447904, 1.576253])
    prior = log_linear_distribution(lam_star, problem.features)
    _, better = em_solve(problem, EmConfig(prior=prior))
    assert better.termination == "residual" and len(better) == 1
    assert better.rows[0].loglik == pytest.approx(-2.9539525, abs=1e-7)


def frozen_loop_problem():
    """50 x 80 x 5 at epsilon 0.5: the warm start meets the default grad_tol
    long before the residual reaches 1e-12."""
    doc, _ = generate(SyntheticSpec(50, 80, 5, epsilon=0.5, seed=3))
    return load_problem(doc).problem


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
def test_em_tight_tolerance_converges_on_the_residual(tol):
    problem = frozen_loop_problem()
    lam, trace = em_solve(problem, EmConfig(lambda_tol=tol, max_em_iter=3000))
    assert trace.converged and trace.termination == "residual"
    assert len(trace) - 1 < 200
    assert trace.rows[-1].residual <= tol
    assert evaluate(problem, lam).residual <= tol
    assert all(row.residual > tol for row in trace.rows[:-1])


def test_em_dense_audit_is_monotone_and_bounding_with_inexact_m_steps():
    # at lambda_tol 1e-12 the M-step tolerance 0.1 * residual undercuts the
    # default grad_tol 1e-8 for the last rows
    _, trace = em_solve(frozen_loop_problem(), EmConfig(lambda_tol=1e-12))
    assert trace.converged
    assert min(row.residual for row in trace.rows[:-1]) < 1e-7
    assert np.diff(trace.logliks()).min() >= -1e-12
    for row in trace.rows:
        assert row.u_star + row.q + row.h <= row.loglik + 1e-12


def test_em_stops_when_the_m_step_cannot_move(monkeypatch):
    def frozen(target, features, init=None, config=None):
        return SolverResult(init, 0.0, 1.0, 0, "no_step")

    monkeypatch.setattr(umaxent.em, "minimize_dual", frozen)
    lam, trace = em_solve(easy_problem(np.random.default_rng(29)))
    assert trace.termination == "stalled" and not trace.converged
    assert len(trace) == 1
    assert np.array_equal(lam.lam, trace.rows[0].lam)


def test_em_converged_iff_residual_termination():
    rng = np.random.default_rng(30)
    for cfg in (EmConfig(), EmConfig(max_em_iter=3)):
        problem = random_problem(rng)
        _, trace = em_solve(problem, cfg)
        assert trace.termination in ("residual", "stalled", "max_em_iter")
        assert trace.converged == (trace.termination == "residual")
        assert trace.converged == (trace.rows[-1].residual <= cfg.lambda_tol)


def test_em_deterministic_traces():
    rng = np.random.default_rng(20)
    problem = easy_problem(rng)
    _, t1 = em_solve(problem)
    _, t2 = em_solve(problem)
    assert t1.to_csv_string() == t2.to_csv_string()


def test_em_prior_init_runs():
    rng = np.random.default_rng(21)
    problem = easy_problem(rng)
    n = problem.features.n_elements
    prior = Distribution(rng.dirichlet(np.ones(n)))
    lam, trace = em_solve(problem, EmConfig(prior=prior))
    assert trace.converged
    assert evaluate(problem, lam).residual <= 1e-5


def test_em_prior_init_never_loses_loglik_from_row_0():
    # row 0 is the prior's M-projection, a lambda like any other, so the
    # trace climbs from there
    for eps in (0.2, 0.5):
        for seed in range(10):
            doc, _ = generate(SyntheticSpec(12, 18, 3, epsilon=eps, seed=seed))
            problem = load_problem(doc).problem
            prior = Distribution(np.random.default_rng(seed).dirichlet(np.full(12, 0.3)))
            _, trace = em_solve(problem, EmConfig(prior=prior))
            assert np.diff(trace.logliks()).min() >= -1e-12, (eps, seed)


def test_em_prior_of_the_wrong_length_is_rejected():
    problem = easy_problem(np.random.default_rng(21))
    n = problem.features.n_elements
    with pytest.raises(DimensionMismatch):
        em_solve(problem, EmConfig(prior=Distribution.uniform(n + 1)))


def test_constraint_residual_uninformative_channel_zero():
    problem = make_problem([[1.0, 0.0]], np.full((3, 2), 1 / 3), [0.2, 0.5, 0.3])
    assert evaluate(problem, Weights([0.9])).residual == pytest.approx(0.0, abs=1e-14)


def test_constraint_residual_identity_channel_at_solution():
    tilde = np.array([0.6, 0.4])
    problem = make_problem([[1.0, 0.0]], np.eye(2), tilde)
    res = solve_standard_maxent(Distribution(tilde), problem.features)
    assert evaluate(problem, res.weights).residual <= 1e-8


def test_trace_csv_schema():
    rng = np.random.default_rng(23)
    problem = easy_problem(rng, k_max=2)
    _, trace = em_solve(problem)
    text = trace.to_csv_string()
    header = text.splitlines()[0].split(",")
    k = problem.features.n_features
    assert header == ["iter", "loglik", "Q", "H", "U_star", "residual"] + [
        f"lambda_{i}" for i in range(k)
    ]
    assert len(text.splitlines()) == len(trace) + 1


def dense_reference(problem, lam):
    """The audit from the explicit |Omega| x |X| posterior matrix, term by term."""
    p = log_linear_distribution(Weights(lam), problem.features).probs
    ch = problem.channel.matrix
    values = problem.features.values
    marg = ch @ p
    w = problem.empirical.probs
    active = w > 0
    post = np.zeros_like(ch)
    ok = marg > 0
    post[ok] = ch[ok] * p / marg[ok, None]
    phi_hat = values @ (post.T @ w)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ch = np.where(post > 0, np.log(np.where(ch > 0, ch, 1.0)), 0.0)
        plogp = np.where(post > 0, post * np.log(np.where(post > 0, post, 1.0)), 0.0)
    return {
        "phi_hat": phi_hat,
        "loglik": float(w[active] @ np.log(marg[active])),
        "u_star": float(w @ (post * log_ch).sum(axis=1)),
        "h": -float(w @ plogp.sum(axis=1)),
        "residual": float(np.abs(values @ p - phi_hat).max()),
    }


def sparse_problem(rng):
    """Random problem with zero channel entries and zero-mass observations."""
    n = int(rng.integers(2, 7))
    m = int(rng.integers(2, 9))
    k = int(rng.integers(1, 4))
    channel = rng.dirichlet(np.ones(m), size=n).T
    channel[rng.random(channel.shape) < 0.4] = 0.0
    channel[rng.integers(m, size=n), np.arange(n)] += 0.1  # keep each column nonzero
    channel = channel / channel.sum(axis=0)
    tilde = rng.dirichlet(np.ones(m))
    tilde[(rng.random(m) < 0.3) | (channel.sum(axis=1) == 0)] = 0.0
    tilde[np.argmax(channel.sum(axis=1))] += 0.05  # keep a live observation
    return make_problem(rng.uniform(-2, 2, size=(k, n)), channel, tilde / tilde.sum())


def test_evaluate_matches_dense_reference():
    rng = np.random.default_rng(24)
    for _ in range(40):
        problem = sparse_problem(rng)
        lam = rng.uniform(-2, 2, size=problem.features.n_features)
        ev = evaluate(problem, Weights(lam))
        ref = dense_reference(problem, lam)
        assert np.max(np.abs(ev.phi_hat - ref["phi_hat"])) <= 1e-12
        for name in ("loglik", "u_star", "h", "residual"):
            assert getattr(ev, name) == pytest.approx(ref[name], abs=1e-12), name


def test_trace_rows_match_public_definitions():
    rng = np.random.default_rng(27)
    problem = random_problem(rng, n_max=6, m_max=9)
    _, trace = em_solve(problem, EmConfig(max_em_iter=30))
    assert len(trace) > 3
    prev = None
    for row in trace.rows:
        lam = Weights(row.lam)
        u, q, h = likelihood_decomposition(problem, lam, prev or lam)
        ev = evaluate(problem, lam)
        assert row.loglik == pytest.approx(ev.loglik, abs=1e-12)
        assert row.u_star == pytest.approx(u, abs=1e-12)
        assert row.q == pytest.approx(q, abs=1e-12)
        assert row.h == pytest.approx(h, abs=1e-12)
        assert row.residual == pytest.approx(ev.residual, abs=1e-12)
        if prev is not None:
            assert np.max(np.abs(row.phi_hat - evaluate(problem, prev).phi_hat)) <= 1e-12
        prev = lam


class ProductsOnlyChannel:
    """A channel that exposes only what EM may read: its sizes and three products."""

    def __init__(self, channel):
        self.n_observations = channel.n_observations
        self.n_elements = channel.n_elements
        self.matvec = channel.matvec
        self.rmatvec = channel.rmatvec
        self.xlogx_rmatvec = channel.xlogx_rmatvec


def test_unproducible_observation_rejected_through_the_products():
    # the construction check reads the row sums as C @ 1, so a channel
    # without a matrix is checked too
    channel = ProductsOnlyChannel(ObservationChannel([[0.5, 1.0], [0.0, 0.0], [0.5, 0.0]]))
    empirical = Distribution([0.5, 0.2, 0.3])
    with pytest.raises(ZeroMarginal) as exc:
        UMaxEntProblem(FeatureTable([[1.0, 0.0]]), channel, empirical)
    assert exc.value.index == 1


@pytest.mark.parametrize("start", ["zero", "prior"], ids=["zero-init", "prior-init"])
def test_em_reads_a_channel_only_through_its_products(start):
    # the prior start puts lambda_0 off zero, so row 0 too is read through the products
    rng = np.random.default_rng(28)
    dense = random_problem(rng, n_max=6, m_max=9)
    matrix = np.array(dense.channel.matrix)
    matrix[rng.random(matrix.shape) < 0.3] = 0.0
    matrix[0, matrix.sum(axis=0) == 0] = 1.0
    dense = make_problem(dense.features.values, matrix / matrix.sum(axis=0),
                         dense.empirical.probs)
    prior = None
    if start == "prior":
        prior = Distribution(rng.dirichlet(np.ones(dense.features.n_elements)))
    config = EmConfig(max_em_iter=40, prior=prior)
    stub = UMaxEntProblem(dense.features, ProductsOnlyChannel(dense.channel),
                          dense.empirical)
    assert not hasattr(stub.channel, "matrix")
    lam_dense, trace_dense = em_solve(dense, config)
    lam_stub, trace_stub = em_solve(stub, config)
    assert np.any(trace_dense.rows[0].lam != 0) == (start == "prior")
    assert len(trace_dense) > 3
    assert trace_stub.to_csv_string() == trace_dense.to_csv_string()
    assert np.array_equal(lam_stub.lam, lam_dense.lam)
    assert trace_stub.termination == trace_dense.termination
