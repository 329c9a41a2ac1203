import numpy as np
import pytest

from umaxent import (
    FeatureTable,
    InfeasibleTarget,
    SolverConfig,
    TargetExpectations,
    Weights,
    dual_objective,
    feature_expectation,
    log_linear_distribution,
    minimize_dual,
)


def brute_dual(lam, values, phi_hat):
    """Independent dual evaluation, no library calls."""
    s = values.T @ lam
    return np.log(np.exp(s - s.max()).sum()) + s.max() - lam @ phi_hat


def brute_distribution(lam, values):
    s = values.T @ lam
    p = np.exp(s - s.max())
    return p / p.sum()


def grid_oracle(values, phi_hat, span=8.0, points=33, rounds=12):
    """Zooming grid search over lambda for K <= 2; independent of the solver."""
    k = values.shape[0]
    center = np.zeros(k)
    for _ in range(rounds):
        axes = [np.linspace(c - span, c + span, points) for c in center]
        grids = np.meshgrid(*axes, indexing="ij")
        cand = np.stack([g.ravel() for g in grids], axis=1)
        vals = [brute_dual(lam, values, phi_hat) for lam in cand]
        center = cand[int(np.argmin(vals))]
        span *= 2.2 / (points - 1)  # keep the next window just past one cell
    return center


def test_dual_value_at_zero():
    feat = FeatureTable(np.zeros((2, 5)))
    target = TargetExpectations([0.0, 0.0])
    assert dual_objective(Weights(np.zeros(2)), target, feat)[0] == pytest.approx(np.log(5))


def test_dual_value_direct():
    feat = FeatureTable([[1.0, 0.0]])
    val = dual_objective(Weights([np.log(2)]), TargetExpectations([2 / 3]), feat)[0]
    assert val == pytest.approx(np.log(3) - (2 / 3) * np.log(2))


def test_dual_value_at_optimum_is_negative_entropy():
    rng = np.random.default_rng(3)
    for _ in range(10):
        values = rng.uniform(-2, 2, size=(2, 5))
        feat = FeatureTable(values)
        lam = rng.uniform(-1, 1, size=2)
        # pick the target as the model's own expectations: lam is optimal
        dist = log_linear_distribution(Weights(lam), feat)
        phi_hat = feature_expectation(dist, feat)
        val = dual_objective(Weights(lam), TargetExpectations(phi_hat), feat)[0]
        # at constraint satisfaction the dual equals minus the (negated)
        # entropy objective, i.e. H itself
        entropy = -np.sum(dist.probs * np.log(dist.probs))
        assert val == pytest.approx(entropy, abs=1e-12)


def test_dual_gradient_zero_at_own_expectations():
    rng = np.random.default_rng(4)
    values = rng.uniform(-2, 2, size=(3, 6))
    feat = FeatureTable(values)
    lam = Weights(rng.uniform(-1, 1, size=3))
    phi_hat = feature_expectation(log_linear_distribution(lam, feat), feat)
    grad = dual_objective(lam, TargetExpectations(phi_hat), feat)[1]
    assert np.max(np.abs(grad)) <= 1e-14


def test_dual_gradient_at_zero_weights():
    feat = FeatureTable([[1.0, 0.0], [0.0, 1.0]])
    phi_hat = np.array([0.1, 0.2])
    grad = dual_objective(Weights(np.zeros(2)), TargetExpectations(phi_hat), feat)[1]
    assert np.allclose(grad, [0.5, 0.5] - phi_hat)


def test_dual_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(100):
        n = int(rng.integers(2, 11))
        k = int(rng.integers(1, 6))
        values = rng.uniform(-2, 2, size=(k, n))
        feat = FeatureTable(values)
        lam = rng.uniform(-2, 2, size=k)
        phi_hat = values @ rng.dirichlet(np.ones(n))
        target = TargetExpectations(phi_hat)
        _, grad, hess = dual_objective(Weights(lam), target, feat)
        # the Newton matrix is Cov_lambda(phi) and the Jacobian of the gradient
        p = brute_distribution(lam, values)
        centered = values - (values @ p)[:, None]
        assert np.allclose(hess, (centered * p) @ centered.T, rtol=0, atol=1e-12)
        for j in range(k):
            hi = lam.copy()
            lo = lam.copy()
            hi[j] += h
            lo[j] -= h
            fd = (brute_dual(hi, values, phi_hat) - brute_dual(lo, values, phi_hat)) / (2 * h)
            assert abs(grad[j] - fd) <= 1e-6
            fd_hess = (dual_objective(Weights(hi), target, feat)[1]
                       - dual_objective(Weights(lo), target, feat)[1]) / (2 * h)
            assert np.max(np.abs(hess[:, j] - fd_hess)) <= 1e-6


def test_dual_convexity_witness():
    rng = np.random.default_rng(6)
    for _ in range(30):
        values = rng.uniform(-2, 2, size=(3, 5))
        feat = FeatureTable(values)
        phi_hat = TargetExpectations(values @ rng.dirichlet(np.ones(5)))
        a = Weights(rng.uniform(-2, 2, size=3))
        b = Weights(rng.uniform(-2, 2, size=3))
        fa, fb = dual_objective(a, phi_hat, feat)[0], dual_objective(b, phi_hat, feat)[0]
        for t in (0.25, 0.5, 0.75):
            mid = Weights(t * a.lam + (1 - t) * b.lam)
            assert dual_objective(mid, phi_hat, feat)[0] <= t * fa + (1 - t) * fb + 1e-10


def test_minimize_dual_uniform_target():
    rng = np.random.default_rng(7)
    values = rng.uniform(-2, 2, size=(2, 4))
    feat = FeatureTable(values)
    phi_hat = values.mean(axis=1)
    res = minimize_dual(TargetExpectations(phi_hat), feat)
    assert res.converged
    dist = log_linear_distribution(res.weights, feat)
    assert np.max(np.abs(dist.probs - 0.25)) <= 1e-8


def test_minimize_dual_bernoulli_closed_form():
    feat = FeatureTable([[1.0, 0.0]])
    res = minimize_dual(TargetExpectations([2 / 3]), feat)
    assert res.converged
    dist = log_linear_distribution(res.weights, feat)
    assert np.allclose(dist.probs, [2 / 3, 1 / 3], atol=1e-8)
    assert res.weights.lam[0] == pytest.approx(np.log(2), abs=1e-6)


def test_minimize_dual_matches_grid_oracle():
    rng = np.random.default_rng(8)
    for _ in range(5):
        values = rng.uniform(-2, 2, size=(2, 3))
        phi_hat = values @ rng.dirichlet(np.ones(3) * 3)
        feat = FeatureTable(values)
        res = minimize_dual(TargetExpectations(phi_hat), feat)
        assert res.converged
        solver_dist = log_linear_distribution(res.weights, feat).probs
        oracle_dist = brute_distribution(grid_oracle(values, phi_hat), values)
        tv = 0.5 * np.abs(solver_dist - oracle_dist).sum()
        assert tv <= 1e-6


def test_minimize_dual_infeasible_target():
    feat = FeatureTable([[1.0, 0.0]])
    with pytest.raises(InfeasibleTarget):
        minimize_dual(TargetExpectations([1.5]), feat)


def test_minimize_dual_boundary_target_hits_guard():
    # a boundary target drives lambda toward infinity; on a feature this small
    # the first Newton step already carries |lambda| past the fixed guard
    # (1e3), which reports the failure honestly
    feat = FeatureTable([[1e-3, 0.0]])
    res = minimize_dual(TargetExpectations([1e-3]), feat)
    assert not res.converged
    assert res.termination == "diverged"
    assert res.iterations == 1



def test_minimize_dual_max_iter_exit():
    # one Newton step cannot reach the target, and the budget ends the solve
    res = minimize_dual(TargetExpectations([0.9]), FeatureTable([[1.0, 0.0]]),
                        config=SolverConfig(max_iter=1))
    assert res.iterations == 1
    assert not res.converged
    assert res.termination == "max_iter"

def test_minimize_dual_tight_tolerance():
    # grad_tol far below what the Armijo test on f ~ 1 can resolve
    rng = np.random.default_rng(12)
    for _ in range(20):
        values = rng.uniform(-2, 2, size=(3, 6))
        phi_hat = values @ rng.dirichlet(np.ones(6))
        res = minimize_dual(TargetExpectations(phi_hat), FeatureTable(values),
                            config=SolverConfig(grad_tol=1e-12, max_iter=200))
        assert res.converged, res.termination
        assert res.grad_norm <= 1e-12


def test_minimize_dual_unreachable_tolerance_reports_rounding():
    rng = np.random.default_rng(14)
    values = rng.uniform(-2, 2, size=(3, 6))
    phi_hat = values @ rng.dirichlet(np.ones(6))
    res = minimize_dual(TargetExpectations(phi_hat), FeatureTable(values),
                        config=SolverConfig(grad_tol=1e-300))
    assert not res.converged
    assert res.iterations < 20
    assert res.termination == "no_step"
    assert res.grad_norm <= 1e-14


def test_minimize_dual_constant_feature_keeps_initial_weight():
    rng = np.random.default_rng(13)
    values = np.vstack([np.full(5, 3.0), rng.uniform(-2, 2, size=(2, 5))])
    phi_hat = values @ rng.dirichlet(np.ones(5))
    res = minimize_dual(TargetExpectations(phi_hat), FeatureTable(values),
                        init=Weights([0.7, 0.0, 0.0]), config=SolverConfig(grad_tol=1e-12))
    assert res.converged
    assert res.weights.lam[0] == 0.7


def test_minimize_dual_far_start_converges():
    # from this start the model is nearly a point mass and its Hessian has
    # numerical rank 1; Newton steps alone stop with the gradient at ~67
    rng = np.random.default_rng(15)
    values = rng.uniform(-100, 100, size=(4, 12))
    phi_hat = values @ rng.dirichlet(np.ones(12))
    res = minimize_dual(TargetExpectations(phi_hat), FeatureTable(values),
                        init=Weights(rng.uniform(-2, 2, size=4)))
    assert res.converged, res.termination
    assert res.iterations <= 100


def test_maxent_optimality_over_random_feasible():
    # No moment-matching random distribution beats the solver's entropy.
    rng = np.random.default_rng(10)
    values = rng.uniform(-2, 2, size=(2, 4))
    feat = FeatureTable(values)
    base = rng.dirichlet(np.ones(4))
    phi_hat = values @ base
    res = minimize_dual(TargetExpectations(phi_hat), feat)
    assert res.converged
    p_star = log_linear_distribution(res.weights, feat).probs
    h_star = -np.sum(p_star * np.log(p_star))
    # perturb along the null space of the constraints: moments stay exact
    constraints = np.vstack([values, np.ones(4)])
    _, _, vt = np.linalg.svd(constraints)
    null = vt[3:]  # 3 constraint rows, 4 unknowns: one null direction
    found = 0
    for _ in range(1000):
        direction = rng.normal(size=null.shape[0]) @ null
        t = rng.uniform(0, 1) * 0.9 * _max_step(base, direction)
        q = base + t * direction
        if np.any(q < 0) or np.max(np.abs(values @ q - phi_hat)) > 1e-6:
            continue
        found += 1
        with np.errstate(divide="ignore", invalid="ignore"):
            h = -np.sum(np.where(q > 0, q * np.log(q), 0.0))
        assert h <= h_star + 1e-6
    assert found > 900


def _max_step(base, direction):
    neg = direction < 0
    if not np.any(neg):
        return 1.0
    return float(np.min(base[neg] / -direction[neg]))


def test_distribution_uniqueness_across_inits():
    rng = np.random.default_rng(11)
    # linearly dependent features: lambda is not unique, distribution is
    values = np.vstack([rng.uniform(-1, 1, size=4)] * 2)
    feat = FeatureTable(values)
    phi_hat = TargetExpectations(values @ rng.dirichlet(np.ones(4)))
    a = minimize_dual(phi_hat, feat, init=Weights([0.0, 0.0]))
    b = minimize_dual(phi_hat, feat, init=Weights([0.5, -0.7]))
    assert a.converged and b.converged
    da = log_linear_distribution(a.weights, feat).probs
    db = log_linear_distribution(b.weights, feat).probs
    assert 0.5 * np.abs(da - db).sum() <= 1e-6
