"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines.
"""

import time

import numpy as np

from umaxent import (
    Distribution,
    EmConfig,
    FeatureTable,
    LabelMap,
    LatentFactorization,
    ObservationChannel,
    SoftClassifierBatch,
    SolverConfig,
    SyntheticSpec,
    TargetExpectations,
    UMaxEntProblem,
    Weights,
    classifier_em_solve,
    classifier_problem,
    dual_objective,
    dump_json,
    em_solve,
    evaluate,
    feature_expectation,
    generate,
    likelihood_decomposition,
    load_problem,
    log_linear_distribution,
    minimize_dual,
    solve_standard_maxent,
    verify_latent_reduction,
    verify_maxent_reduction,
)
from umaxent.cli import main as cli_main


def report(num, name, ok, detail):
    print(f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def brute_dual(lam, values, phi_hat):
    s = values.T @ lam
    return np.log(np.exp(s - s.max()).sum()) + s.max() - lam @ phi_hat


def grid_oracle(values, phi_hat, span=8.0, points=33, rounds=14):
    k = values.shape[0]
    center = np.zeros(k)
    for _ in range(rounds):
        axes = [np.linspace(c - span, c + span, points) for c in center]
        grids = np.meshgrid(*axes, indexing="ij")
        cand = np.stack([g.ravel() for g in grids], axis=1)
        vals = [brute_dual(lam, values, phi_hat) for lam in cand]
        center = cand[int(np.argmin(vals))]
        span *= 0.25  # keep several grid cells each side of the best point
    return center


def random_problem(rng, n_max=8, m_max=12, k_max=4):
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(2, m_max + 1))
    k = int(rng.integers(1, k_max + 1))
    features = FeatureTable(rng.uniform(-2, 2, size=(k, n)))
    channel = ObservationChannel(rng.dirichlet(np.ones(m), size=n).T)
    empirical = Distribution(rng.dirichlet(np.ones(m)))
    return UMaxEntProblem(features, channel, empirical)


def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(101)
    h = 1e-5
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        k = int(rng.integers(1, 6))
        values = rng.uniform(-2, 2, size=(k, n))
        lam = rng.uniform(-2, 2, size=k)
        phi_hat = values @ rng.dirichlet(np.ones(n))
        grad = dual_objective(Weights(lam), TargetExpectations(phi_hat),
                              FeatureTable(values))[1]
        for j in range(k):
            hi, lo = lam.copy(), lam.copy()
            hi[j] += h
            lo[j] -= h
            fd = (brute_dual(hi, values, phi_hat)
                  - brute_dual(lo, values, phi_hat)) / (2 * h)
            worst = max(worst, abs(grad[j] - fd))
    elapsed = time.perf_counter() - start
    report(1, "gradient matches finite differences",
           worst <= 1e-6 and elapsed < 5.0,
           f"max_err={worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_m_step_oracle():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 3))
        values = rng.uniform(-2, 2, size=(k, n))
        phi_hat = values @ rng.dirichlet(np.ones(n) * 3)
        feat = FeatureTable(values)
        res = minimize_dual(TargetExpectations(phi_hat), feat)
        assert res.converged
        solver = log_linear_distribution(res.weights, feat).probs
        oracle = log_linear_distribution(
            Weights(grid_oracle(values, phi_hat)), feat).probs
        worst = max(worst, 0.5 * np.abs(solver - oracle).sum())
    elapsed = time.perf_counter() - start
    report(2, "M-step matches grid oracle",
           worst <= 1e-6 and elapsed < 30.0,
           f"max_tv={worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_em_monotonicity():
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    worst_drop = 0.0
    config = EmConfig(max_em_iter=25, inner=SolverConfig(max_iter=300))
    for _ in range(50):
        problem = random_problem(rng)
        _, trace = em_solve(problem, config)
        logliks = trace.logliks()
        if len(logliks) > 1:
            worst_drop = max(worst_drop, float(np.max(-np.diff(logliks))))
    elapsed = time.perf_counter() - start
    report(3, "EM log-likelihood monotone",
           worst_drop <= 1e-9 and elapsed < 60.0,
           f"worst_drop={worst_drop:.2e}, {elapsed:.1f}s")


def test_criterion_4_lower_bound_tightness():
    rng = np.random.default_rng(104)
    worst_tight = 0.0
    worst_violation = -np.inf
    for _ in range(100):
        problem = random_problem(rng)
        k = problem.features.n_features
        lam = Weights(rng.uniform(-1, 1, size=k))
        lam_prev = Weights(rng.uniform(-1, 1, size=k))
        u, q, h = likelihood_decomposition(problem, lam, lam)
        worst_tight = max(worst_tight,
                          abs(u + q + h - evaluate(problem, lam).loglik))
        u, q, h = likelihood_decomposition(problem, lam, lam_prev)
        worst_violation = max(worst_violation,
                              u + q + h - evaluate(problem, lam).loglik)
    ok = worst_tight <= 1e-10 and worst_violation <= 1e-10
    report(4, "U* + Q + H decomposition tight and bounding", ok,
           f"tightness={worst_tight:.2e}, bound_slack={worst_violation:.2e}")


def test_criterion_5_infinite_data_consistency():
    worst_residual = 0.0
    worst_err = 0.0
    for i, eps in enumerate((0.0, 0.2, 0.5)):
        doc, sidecar = generate(
            SyntheticSpec(4, 6, 2, epsilon=eps, seed=105 + i))
        loaded = load_problem(doc)
        config = EmConfig(lambda_tol=1e-7,
                          inner=SolverConfig(grad_tol=1e-10))
        lam, trace = em_solve(loaded.problem, config)
        assert trace.converged
        worst_residual = max(worst_residual, trace.rows[-1].residual)
        # truth expectations satisfy the converged constraints
        phi_hat = evaluate(loaded.problem, lam).phi_hat
        e_true = np.asarray(sidecar["feature_expectations_true"])
        worst_err = max(worst_err, float(np.abs(phi_hat - e_true).max()))
    ok = worst_residual <= 1e-5 and worst_err <= 1e-5
    report(5, "exact-marginal consistency", ok,
           f"max_residual={worst_residual:.2e}, max_truth_err={worst_err:.2e}")


def test_criterion_6_standard_reduction():
    rng = np.random.default_rng(106)
    worst_tv = 0.0
    worst_term = 0.0
    for i in range(5):
        doc, _ = generate(SyntheticSpec(3, 5, 2, epsilon=0.0, seed=1060 + i))
        problem = load_problem(doc).problem
        rep = verify_maxent_reduction(problem, seed=int(rng.integers(1 << 30)))
        worst_tv = max(worst_tv, rep.tv_distance)
        worst_term = max(worst_term, rep.extra_term_norm)
    ok = worst_tv <= 1e-6 and worst_term <= 1e-10
    report(6, "deterministic channel reduces to standard MaxEnt", ok,
           f"max_tv={worst_tv:.2e}, max_extra_term={worst_term:.2e}")


def test_criterion_7_latent_reduction():
    rng = np.random.default_rng(107)
    worst_gap = 0.0
    for _ in range(5):
        n_y = int(rng.integers(1, 5))
        n_z = int(rng.integers(1, 5))
        pairs = [(y, z) for y in range(n_y) for z in range(n_z)
                 if rng.random() < 0.8 or z == 0]
        fact = LatentFactorization(
            range(n_y), range(n_z),
            {pair: i for i, pair in enumerate(pairs)}, len(pairs))
        feat = FeatureTable(rng.uniform(-2, 2, size=(2, len(pairs))))
        emp = Distribution(rng.dirichlet(np.ones(n_y)))
        rep = verify_latent_reduction(fact, emp, feat, seed=int(rng.integers(1 << 30)))
        worst_gap = max(worst_gap, rep.identity_gap)
    report(7, "Y-channel E-step equals latent constraint RHS",
           worst_gap <= 1e-12, f"max_gap={worst_gap:.2e}")


def test_criterion_8_classifier_reductions():
    rng = np.random.default_rng(108)
    # standard: labels are the elements, perfect point-mass rows
    feat = FeatureTable(rng.uniform(-2, 2, size=(2, 3)))
    lm = LabelMap([0, 1, 2], 3)
    rows = np.eye(3)[rng.choice(3, size=300, p=[0.5, 0.3, 0.2])]
    batch = SoftClassifierBatch(rows, Distribution(np.full(3, 1 / 3)))
    lam, trace = classifier_em_solve(feat, batch=batch, label_map=lm)
    assert trace.converged
    direct = solve_standard_maxent(Distribution(rows.mean(axis=0)), feat)
    tv_standard = 0.5 * np.abs(
        log_linear_distribution(lam, feat).probs
        - log_linear_distribution(direct.weights, feat).probs).sum()

    # latent: labels are a 2-label quotient of 4 elements
    feat4 = FeatureTable(rng.uniform(-2, 2, size=(2, 4)))
    lm4 = LabelMap([0, 0, 1, 1], 2)
    rows4 = np.eye(2)[rng.choice(2, size=300, p=[0.6, 0.4])]
    batch4 = SoftClassifierBatch(rows4, Distribution([0.5, 0.5]))
    lam4, trace4 = classifier_em_solve(feat4, batch=batch4, label_map=lm4)
    assert trace4.converged
    fact = LatentFactorization(["l0", "l1"], ["z0", "z1"],
                               {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}, 4)
    channel = fact.y_channel()
    problem = UMaxEntProblem(feat4, channel, Distribution(rows4.mean(axis=0)))
    lam_lat, trace_lat = em_solve(problem)
    assert trace_lat.converged
    tv_latent = 0.5 * np.abs(
        log_linear_distribution(lam4, feat4).probs
        - log_linear_distribution(lam_lat, feat4).probs).sum()

    ok = tv_standard <= 1e-6 and tv_latent <= 1e-6
    report(8, "perfect classifier reduces to standard and latent", ok,
           f"tv_standard={tv_standard:.2e}, tv_latent={tv_latent:.2e}")


def test_criterion_9_prior_correction_ablation():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    # two elements with true prior [0.8, 0.2]; the classifier was trained
    # with a uniform prior on the same six-signal generation channel
    feat = FeatureTable([[1.0, 0.0]])
    lm = LabelMap([0, 1], 2)
    lam_true = Weights([np.log(4.0)])
    truth = log_linear_distribution(lam_true, feat)
    raw = np.array([[0.30, 0.25, 0.20, 0.10, 0.10, 0.05],
                    [0.05, 0.10, 0.10, 0.20, 0.25, 0.30]])  # Pr(r | X)
    training_prior = Distribution([0.5, 0.5])

    # classifier rows: Pr_theta(X | r) under the (wrong) uniform prior
    joint = raw * training_prior.probs[:, None]
    posterior_rows = (joint / joint.sum(axis=0)).T  # 6 x 2

    signal_marginal = truth.probs @ raw
    signals = rng.choice(6, size=100_000, p=signal_marginal)
    batch = SoftClassifierBatch(posterior_rows[signals], training_prior)

    # residual at the truth: corrected E-step should nearly close the loop
    e_truth = feature_expectation(truth, feat)
    res_corrected = float(np.abs(
        evaluate(classifier_problem(feat, batch, lm), lam_true).phi_hat - e_truth).max())
    res_uncorrected = float(np.abs(
        evaluate(classifier_problem(feat, batch, lm, apply_correction=False),
                 lam_true).phi_hat - e_truth).max())

    lam, trace = classifier_em_solve(feat, batch=batch, label_map=lm)
    assert trace.converged
    e_recovered = feature_expectation(log_linear_distribution(lam, feat), feat)
    recovery_err = float(np.abs(e_recovered - e_truth).max())
    elapsed = time.perf_counter() - start

    ok = (res_corrected < res_uncorrected
          and recovery_err <= 2e-3 and elapsed < 120.0)
    report(9, "training-prior correction beats ablation", ok,
           f"residual corrected={res_corrected:.2e} vs "
           f"uncorrected={res_uncorrected:.2e}, "
           f"recovery_err={recovery_err:.2e}, {elapsed:.1f}s")


def test_criterion_10_cli_determinism(tmp_path):
    doc, _ = generate(SyntheticSpec(3, 5, 2, epsilon=0.3, seed=110))
    problem = tmp_path / "prob.json"
    dump_json(doc, problem)
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        out.mkdir()
        code = cli_main(["solve", str(problem), "--seed", "110",
                         "--out", str(out)])
        assert code == 0
        blobs.append(((out / "prob_result.json").read_bytes(),
                      (out / "prob_trace.csv").read_bytes()))
    ok = blobs[0] == blobs[1]
    report(10, "fixed-seed CLI runs byte-identical", ok,
           f"result_json_match={blobs[0][0] == blobs[1][0]}, "
           f"trace_csv_match={blobs[0][1] == blobs[1][1]}")
