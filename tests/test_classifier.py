import numpy as np
import pytest

from umaxent import (
    ClassifierProfile,
    DimensionMismatch,
    Distribution,
    EmConfig,
    FeatureTable,
    LabelMap,
    LatentFactorization,
    ObservationChannel,
    SoftClassifierBatch,
    UMaxEntProblem,
    ValidationError,
    Weights,
    ZeroMarginal,
    ZeroTrainingPrior,
    classifier_em_solve,
    classifier_problem,
    em_solve,
    evaluate,
    feature_expectation,
    is_deterministic_channel,
    latent_constraint_rhs,
    log_linear_distribution,
    observation_marginal,
    solve_standard_maxent,
)
from umaxent.classifier import LabelChannel
from umaxent.reductions import (
    has_disjoint_column_supports,
    induced_empirical_x,
    lagrangian_extra_term,
)


def hard_label_evaluation(emp, profile, lm, lam, feat):
    """The evaluation of the hard-label problem: the lifted confusion channel."""
    problem = UMaxEntProblem(feat, profile.lift(lm), emp)
    return evaluate(problem, lam)


def test_label_map_requires_deterministic_rows():
    with pytest.raises(ValidationError):
        LabelMap([[0.5, 0.5], [1.0, 0.0]], 2)
    lm = LabelMap([1, 0, 1], 2)
    assert list(lm.labels) == [1, 0, 1]


@pytest.mark.parametrize("assignment", [[-1, 0], [True, False], [0.0, 1.0], [0, 2]],
                         ids=["negative", "bool", "float", "past-last-label"])
def test_label_map_entries_are_label_indices(assignment):
    with pytest.raises(ValidationError, match="label map entry"):
        LabelMap(assignment, 2)


def test_profile_lift_builds_channel():
    confusion = np.array([[0.9, 0.1], [0.2, 0.8]])
    lm = LabelMap([0, 1, 1], 2)
    channel = ClassifierProfile(confusion).lift(lm)
    assert isinstance(channel, LabelChannel)
    # Pr(xi | X) columns follow the true label of each element
    assert np.allclose(channel.matrix[:, 0], confusion[0])
    assert np.allclose(channel.matrix[:, 1], confusion[1])
    assert np.allclose(channel.matrix[:, 2], confusion[1])


def test_hard_label_perfect_classifier_is_standard_expectations():
    rng = np.random.default_rng(0)
    feat = FeatureTable(rng.uniform(-2, 2, size=(2, 3)))
    lm = LabelMap([0, 1, 2], 3)
    profile = ClassifierProfile(np.eye(3))
    emp = Distribution(rng.dirichlet(np.ones(3)))
    out = hard_label_evaluation(emp, profile, lm, Weights(rng.normal(size=2)), feat)
    assert np.max(np.abs(out.phi_hat - feat.values @ emp.probs)) <= 1e-12


def test_hard_label_quotient_equals_latent_rhs():
    # perfect classifier onto a 2-label quotient of 4 elements
    rng = np.random.default_rng(1)
    feat = FeatureTable(rng.uniform(-2, 2, size=(2, 4)))
    assignment = [0, 0, 1, 1]
    lm = LabelMap(assignment, 2)
    profile = ClassifierProfile(np.eye(2))
    emp = Distribution([0.6, 0.4])
    fact = LatentFactorization(
        ["l0", "l1"], ["z0", "z1"],
        {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}, 4,
    )
    for _ in range(20):
        lam = Weights(rng.uniform(-2, 2, size=2))
        model = log_linear_distribution(lam, feat)
        lhs = hard_label_evaluation(emp, profile, lm, lam, feat).phi_hat
        rhs = latent_constraint_rhs(fact, emp, model, feat)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_hard_label_symmetric_confusion_hand_computed():
    feat = FeatureTable([[1.0, 0.0]])
    lm = LabelMap([0, 1], 2)
    profile = ClassifierProfile([[0.9, 0.1], [0.1, 0.9]])
    emp = Distribution([0.5, 0.5])
    lam = Weights([0.0])  # model [0.5, 0.5]
    # Pr(xi0) = 0.5; Pr(X0 | xi0) = 0.9*0.5/0.5 = 0.9, Pr(X0 | xi1) = 0.1
    out = hard_label_evaluation(emp, profile, lm, lam, feat)
    assert out.phi_hat[0] == pytest.approx(0.5 * 0.9 + 0.5 * 0.1, abs=1e-12)


def test_soft_correction_identity_when_priors_match():
    # a training prior equal to the model's label marginal corrects nothing
    rng = np.random.default_rng(2)
    feat = FeatureTable(rng.uniform(-2, 2, size=(2, 6)))
    lm = LabelMap([0, 1, 2, 3, 0, 2], 4)
    for _ in range(20):
        lam = Weights(rng.normal(size=2))
        prior = Distribution(lm.d.T @ log_linear_distribution(lam, feat).probs)
        batch = SoftClassifierBatch(rng.dirichlet(np.ones(4), size=7), prior)
        corrected = evaluate(classifier_problem(feat, batch, lm), lam).phi_hat
        raw = evaluate(classifier_problem(feat, batch, lm, apply_correction=False),
                       lam).phi_hat
        assert np.max(np.abs(corrected - raw)) <= 1e-14


def test_soft_correction_point_mass_stays_point_mass():
    feat = FeatureTable([[1.0, 0.0, 0.5], [0.0, 2.0, 1.0]])
    lm = LabelMap([0, 1, 2], 3)
    batch = SoftClassifierBatch([[0.0, 1.0, 0.0]], Distribution([0.3, 0.3, 0.4]))
    lam = Weights([0.4, -0.7])
    out = evaluate(classifier_problem(feat, batch, lm), lam)
    assert np.allclose(out.phi_hat, feat.values[:, 1], rtol=0, atol=1e-15)


def test_soft_correction_hand_computed():
    # labels are the elements; the model [0.9, 0.1] replaces the prior [0.5, 0.5]
    feat = FeatureTable([[1.0, 0.0]])
    lm = LabelMap([0, 1], 2)
    batch = SoftClassifierBatch([[0.6, 0.4]], Distribution([0.5, 0.5]))
    out = evaluate(classifier_problem(feat, batch, lm), Weights([np.log(9.0)]))
    assert out.phi_hat[0] == pytest.approx(0.54 / 0.58, abs=1e-14)


def test_soft_correction_errors():
    feat = FeatureTable([[1.0, 0.0]])
    lm = LabelMap([0, 1], 2)
    with pytest.raises(ZeroTrainingPrior):
        evaluate(classifier_problem(
            feat, SoftClassifierBatch([[0.5, 0.5]], Distribution([1.0, 0.0])), lm),
            Weights([0.0]))
    # the model puts no mass on the row's only label: its corrected row is zero
    with pytest.raises(ZeroMarginal):
        evaluate(classifier_problem(
            feat, SoftClassifierBatch([[1.0, 0.0]], Distribution([0.5, 0.5])), lm),
            Weights([-800.0]))


def test_batch_validation():
    prior = Distribution([0.5, 0.5])
    with pytest.raises(ValidationError):
        SoftClassifierBatch([[0.6, 0.6]], prior)
    # NaN passes both the sign and the sum test, so it is rejected first, by row
    for cell in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="batch row 1 has a non-finite entry"):
            SoftClassifierBatch([[0.6, 0.4], [cell, 1.0]], prior)
    batch = SoftClassifierBatch([[0.6, 0.4], [0.2, 0.8]], prior)
    assert batch.n_samples == 2
    problem = classifier_problem(FeatureTable([[0.0, 1.0]]), batch, LabelMap([0, 1], 2))
    assert np.array_equal(problem.empirical.probs, [0.5, 0.5, 0.0])


def test_soft_e_step_perfect_point_mass_rows():
    rng = np.random.default_rng(3)
    feat = FeatureTable(rng.uniform(-2, 2, size=(2, 3)))
    lm = LabelMap([0, 1, 2], 3)
    rows = np.eye(3)[[0, 0, 1, 2]]  # labeled X counts: [2, 1, 1]
    batch = SoftClassifierBatch(rows, Distribution(np.full(3, 1 / 3)))
    out = evaluate(classifier_problem(feat, batch, lm), Weights(rng.normal(size=2)))
    labeled = Distribution([0.5, 0.25, 0.25])
    assert np.max(np.abs(out.phi_hat - feat.values @ labeled.probs)) <= 1e-12


def test_soft_e_step_uninformative_rows_return_model_expectations():
    rng = np.random.default_rng(4)
    feat = FeatureTable(rng.uniform(-2, 2, size=(2, 3)))
    lm = LabelMap([0, 1, 2], 3)
    rows = np.full((5, 3), 1 / 3)
    batch = SoftClassifierBatch(rows, Distribution(np.full(3, 1 / 3)))
    lam = Weights(rng.normal(size=2))
    out = evaluate(classifier_problem(feat, batch, lm), lam)
    model_exp = feature_expectation(log_linear_distribution(lam, feat), feat)
    assert np.max(np.abs(out.phi_hat - model_exp)) <= 1e-12


def test_soft_e_step_enumeration():
    # 2 elements = 2 labels, 4 hand-built rows, checked against the double sum
    feat = FeatureTable([[1.0, 0.0]])
    lm = LabelMap([0, 1], 2)
    rows = np.array([[0.9, 0.1], [0.4, 0.6], [0.7, 0.3], [0.2, 0.8]])
    training_prior = Distribution([0.6, 0.4])
    batch = SoftClassifierBatch(rows, training_prior)
    lam = Weights([np.log(3)])  # model [0.75, 0.25]
    out = evaluate(classifier_problem(feat, batch, lm), lam)

    model = np.array([0.75, 0.25])
    expected = 0.0
    for row in rows:
        corrected = row * model / training_prior.probs
        corrected /= corrected.sum()
        # Pr(X | xi) is the identity here (labels = elements)
        expected += 0.25 * (corrected[0] * 1.0 + corrected[1] * 0.0)
    assert out.phi_hat[0] == pytest.approx(expected, abs=1e-14)


def test_degenerate_rows_skipped_with_renormalized_weights():
    # rows are never dropped: a row whose corrected mass underflows to zero
    # is an error, like any observation the model cannot produce
    feat = FeatureTable([[1.0, 0.0]])
    lm = LabelMap([0, 1], 2)
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    batch = SoftClassifierBatch(rows, Distribution([0.5, 0.5]))
    # model with zero mass on element 1 is impossible log-linearly, so
    # drive it there with a large weight: the corrected second row ~ 0
    lam = Weights([800.0])  # exp(-800) underflows: element 1 gets exactly zero mass
    with pytest.raises(ZeroMarginal) as exc:
        evaluate(classifier_problem(feat, batch, lm), lam)
    assert exc.value.index == 1


def test_soft_row_on_labels_without_elements_is_rejected():
    # label 2 owns no element, so row 1, all on label 2, cannot be produced
    feat = FeatureTable([[1.0, 0.0]])
    lm = LabelMap([0, 1], 3)
    batch = SoftClassifierBatch([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]],
                                Distribution(np.full(3, 1 / 3)))
    with pytest.raises(ZeroMarginal, match="no element can produce it") as exc:
        classifier_problem(feat, batch=batch, label_map=lm)
    assert exc.value.index == 1


def test_classifier_em_perfect_batch_matches_standard():
    rng = np.random.default_rng(5)
    feat = FeatureTable(rng.uniform(-2, 2, size=(2, 3)))
    lm = LabelMap([0, 1, 2], 3)
    rows = np.eye(3)[rng.choice(3, size=200, p=[0.5, 0.3, 0.2])]
    batch = SoftClassifierBatch(rows, Distribution(np.full(3, 1 / 3)))
    lam, trace = classifier_em_solve(feat, batch=batch, label_map=lm)
    assert trace.converged
    labeled = Distribution(rows.mean(axis=0))
    direct = solve_standard_maxent(labeled, feat)
    d_em = log_linear_distribution(lam, feat).probs
    d_direct = log_linear_distribution(direct.weights, feat).probs
    assert 0.5 * np.abs(d_em - d_direct).sum() <= 1e-6


def test_classifier_em_soft_trace_targets_are_soft_e_steps():
    rng = np.random.default_rng(8)
    feat = FeatureTable(rng.uniform(-2, 2, size=(2, 3)))
    lm = LabelMap([0, 1, 2], 3)
    batch = SoftClassifierBatch(rng.dirichlet(np.ones(3), size=50),
                                Distribution([0.5, 0.3, 0.2]))
    _, trace = classifier_em_solve(feat, batch=batch, label_map=lm)
    assert len(trace) > 2
    problem = classifier_problem(feat, batch, lm)
    for prev, row in zip(trace.rows, trace.rows[1:]):
        expected = evaluate(problem, Weights(prev.lam)).phi_hat
        assert np.max(np.abs(row.phi_hat - expected)) <= 1e-12
        model = feature_expectation(log_linear_distribution(Weights(row.lam), feat), feat)
        residual = np.abs(model - evaluate(problem, Weights(row.lam)).phi_hat).max()
        assert row.residual == pytest.approx(residual, abs=1e-12)


def crit9_batch():
    """The criterion-9 batch: 1e5 classifier rows trained under a uniform prior."""
    rng = np.random.default_rng(42)
    feat = FeatureTable([[1.0, 0.0]])
    lm = LabelMap([0, 1], 2)
    truth = log_linear_distribution(Weights([np.log(4.0)]), feat)
    raw = np.array([[0.30, 0.25, 0.20, 0.10, 0.10, 0.05],
                    [0.05, 0.10, 0.10, 0.20, 0.25, 0.30]])
    training_prior = Distribution([0.5, 0.5])
    joint = raw * training_prior.probs[:, None]
    rows = (joint / joint.sum(axis=0)).T
    signals = rng.choice(6, size=100_000, p=truth.probs @ raw)
    return feat, lm, SoftClassifierBatch(rows[signals], training_prior)


def test_classifier_em_soft_audit_is_monotone_and_bounding():
    feat, lm, batch = crit9_batch()
    _, trace = classifier_em_solve(feat, batch=batch, label_map=lm)
    assert trace.converged and len(trace) > 10
    assert np.diff(trace.logliks()).min() >= -1e-12
    for row in trace.rows:
        assert row.u_star + row.q + row.h <= row.loglik + 1e-12


def test_classifier_em_soft_loglik_is_soft_likelihood_up_to_constant():
    # L_soft(lambda) = sum_i w_i log sum_l r_il Pr(l) / theta_l
    feat, lm, batch = crit9_batch()
    _, trace = classifier_em_solve(feat, batch=batch, label_map=lm,
                                   config=EmConfig(max_em_iter=5))
    scaled = batch.rows / batch.training_prior.probs
    shifts = []
    for row in trace.rows:
        labels = lm.d.T @ log_linear_distribution(Weights(row.lam), feat).probs
        l_soft = np.full(batch.n_samples, 1 / batch.n_samples) @ np.log(scaled @ labels)
        shifts.append(row.loglik - l_soft)
    assert np.ptp(shifts) <= 1e-12
    assert shifts[0] == pytest.approx(-np.log(scaled.sum(axis=0).max()), abs=1e-12)


def test_classifier_em_soft_prior_init_starts_at_prior_m_projection():
    # row 0 sits at lambda_0, the log-linear model matching the prior's
    # feature expectations, and its targets are the E-step there
    rng = np.random.default_rng(9)
    feat = FeatureTable(rng.uniform(-2, 2, size=(2, 6)))
    lm = LabelMap([0, 1, 2, 0, 1, 2], 3)
    batch = SoftClassifierBatch(rng.dirichlet(np.ones(3), size=40),
                                Distribution([0.2, 0.3, 0.5]))
    prior = Distribution(rng.dirichlet(np.ones(6)))
    config = EmConfig(prior=prior, max_em_iter=2)
    _, trace = classifier_em_solve(feat, batch=batch, label_map=lm, config=config)
    lam0 = Weights(trace.rows[0].lam)
    gap = (feature_expectation(log_linear_distribution(lam0, feat), feat)
           - feature_expectation(prior, feat))
    assert np.abs(gap).max() <= config.inner.grad_tol
    expected = evaluate(classifier_problem(feat, batch, lm), lam0).phi_hat
    assert np.array_equal(trace.rows[0].phi_hat, expected)
    _, zero = classifier_em_solve(feat, batch=batch, label_map=lm,
                                  config=EmConfig(max_em_iter=2))
    assert np.max(np.abs(trace.rows[0].phi_hat - zero.rows[0].phi_hat)) > 1e-3


@pytest.mark.parametrize("apply_correction", [True, False])
def test_soft_problem_matches_dense_label_composition(apply_correction):
    # the factored channel against its |Omega| x |X| expansion, term by term
    rng = np.random.default_rng(10)
    feat = FeatureTable(rng.uniform(-2, 2, size=(3, 7)))
    lm = LabelMap([0, 1, 2, 3, 0, 2, 2], 4)
    rows = rng.dirichlet(np.ones(4), size=12)
    rows[rng.random(rows.shape) < 0.3] = 0.0
    rows[:, 0] += 0.1
    batch = SoftClassifierBatch(rows / rows.sum(axis=1, keepdims=True),
                                Distribution([0.1, 0.2, 0.3, 0.4]))
    factored = classifier_problem(feat, batch, lm, apply_correction=apply_correction)
    labels = factored.channel.labels.matrix
    assert np.allclose(labels.sum(axis=0), 1.0, rtol=0, atol=1e-15)
    assert np.array_equal(factored.channel.matrix, labels @ lm.d.T)
    dense = UMaxEntProblem(feat, ObservationChannel(labels @ lm.d.T), factored.empirical)
    for _ in range(10):
        lam = Weights(rng.uniform(-2, 2, size=3))
        a = evaluate(factored, lam)
        b = evaluate(dense, lam)
        assert np.max(np.abs(a.phi_hat - b.phi_hat)) <= 1e-13
        for name in ("loglik", "u_star", "h", "residual"):
            assert getattr(a, name) == pytest.approx(getattr(b, name), abs=1e-13), name
        # readers outside EM see the factored channel as its dense expansion
        model = log_linear_distribution(lam, feat)
        assert np.max(np.abs(observation_marginal(model, factored.channel).probs
                             - observation_marginal(model, dense.channel).probs)) <= 1e-15
        assert is_deterministic_channel(factored.channel, model) == \
            is_deterministic_channel(dense.channel, model)
        assert np.max(np.abs(lagrangian_extra_term(factored, lam)
                             - lagrangian_extra_term(dense, lam))) <= 1e-13


def test_reductions_read_a_disjoint_label_channel_as_its_expansion():
    # 6 observations over 3 labels, each seen from one label; one element per label
    rng = np.random.default_rng(11)
    owner = np.array([0, 1, 2, 2, 0, 1])
    scores = np.zeros((6, 3))
    scores[np.arange(6), owner] = rng.uniform(0.1, 1.0, size=6)
    labels = ObservationChannel(scores / scores.sum(axis=0))
    lm = LabelMap([2, 0, 1], 3)
    feat = FeatureTable(rng.uniform(-2, 2, size=(2, 3)))
    emp = Distribution(rng.dirichlet(np.ones(6)))
    factored = UMaxEntProblem(feat, LabelChannel(labels, lm), emp)
    dense = UMaxEntProblem(feat, ObservationChannel(labels.matrix @ lm.d.T), emp)
    assert has_disjoint_column_supports(factored.channel)
    assert np.array_equal(induced_empirical_x(factored).probs, induced_empirical_x(dense).probs)
    lam = Weights([0.4, -0.7])
    model = log_linear_distribution(lam, feat)
    assert has_disjoint_column_supports(dense.channel)
    assert is_deterministic_channel(factored.channel, model)
    assert is_deterministic_channel(dense.channel, model)
    assert np.max(np.abs(lagrangian_extra_term(factored, lam))) <= 1e-15


def test_label_channel_checks_label_count():
    with pytest.raises(DimensionMismatch):
        LabelChannel(ObservationChannel.identity(3), LabelMap([0, 1], 2))


def test_classifier_em_hard_path_runs():
    rng = np.random.default_rng(6)
    feat = FeatureTable(rng.uniform(-2, 2, size=(2, 3)))
    lm = LabelMap([0, 1, 2], 3)
    profile = ClassifierProfile(0.8 * np.eye(3) + 0.2 / 3 * np.ones((3, 3)))
    emp = Distribution(rng.dirichlet(np.ones(3)))
    lam, trace = classifier_em_solve(feat, empirical_xi=emp, label_map=lm,
                                     profile=profile, config=EmConfig(max_em_iter=200))
    assert trace.converged


@pytest.mark.parametrize("seed", range(6))
def test_hard_label_channel_matches_the_dense_lift(seed):
    # the label-level channel against the dense |labels| x |X| lift it replaced
    rng = np.random.default_rng(100 + seed)
    n, labels = rng.integers(3, 12), rng.integers(2, 6)
    lm = LabelMap(rng.integers(0, labels, size=n), labels)
    confusion = rng.dirichlet(np.ones(labels) * 0.5, size=labels)
    confusion = 0.5 * np.eye(labels) + 0.5 * confusion
    profile = ClassifierProfile(confusion)
    feat = FeatureTable(rng.uniform(-2, 2, size=(2, n)))
    emp = Distribution(rng.dirichlet(np.ones(labels)))
    factored = classifier_problem(feat, empirical_xi=emp, label_map=lm, profile=profile)
    dense = UMaxEntProblem(feat, ObservationChannel(confusion[lm.labels].T), emp)
    assert np.array_equal(factored.channel.matrix, dense.channel.matrix)
    lam_f, trace_f = em_solve(factored)
    lam_d, trace_d = em_solve(dense)
    assert len(trace_f) == len(trace_d)
    assert trace_f.termination == trace_d.termination
    tv = 0.5 * np.abs(log_linear_distribution(lam_f, feat).probs
                      - log_linear_distribution(lam_d, feat).probs).sum()
    assert tv <= 1e-12


def budget_problems():
    """One fixed soft batch, its ablation and one hard-label problem on 8 elements."""
    rng = np.random.default_rng(31)
    feat = FeatureTable(rng.uniform(-2, 2, size=(3, 8)))
    lm = LabelMap([0, 1, 2, 3, 0, 1, 2, 3], 4)
    batch = SoftClassifierBatch(rng.dirichlet(np.ones(4), size=60),
                                Distribution([0.1, 0.2, 0.3, 0.4]))
    profile = ClassifierProfile(0.7 * np.eye(4) + 0.3 / 4)
    emp = Distribution(rng.dirichlet(np.ones(4) * 3))
    return {
        "soft": dict(batch=batch),
        "ablated": dict(batch=batch, apply_correction=False),
        "hard": dict(empirical_xi=emp, profile=profile),
    }, feat, lm


# EM iterations measured when these bounds were set (soft 154, ablated 107,
# hard 172), plus a 10% margin rounded up. A change that needs more EM
# iterations on these problems fails here; never raise a bound to pass.
EM_ITERATION_BUDGET = {"soft": 170, "ablated": 118, "hard": 190}


@pytest.mark.parametrize("path", sorted(EM_ITERATION_BUDGET))
def test_classifier_em_iteration_budget(path):
    problems, feat, lm = budget_problems()
    problem = classifier_problem(feat, label_map=lm, **problems[path])
    assert isinstance(problem.channel, LabelChannel)
    _, trace = em_solve(problem)
    assert trace.termination == "residual"
    assert trace.rows[-1].iteration <= EM_ITERATION_BUDGET[path]
