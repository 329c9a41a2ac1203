import numpy as np
import pytest

from umaxent import (
    ClassifierProfile,
    DimensionMismatch,
    Distribution,
    ElementSpace,
    EmConfig,
    EmpiricalObservations,
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
    e_step,
    feature_expectation,
    is_deterministic_channel,
    latent_constraint_rhs,
    log_linear_distribution,
    observation_marginal,
    problem_to_dict,
    soft_e_step,
    solve_standard_maxent,
)
from umaxent.classifier import LabelChannel, _soft_problem, classifier_problem
from umaxent.em import evaluate
from umaxent.reductions import (
    has_disjoint_column_supports,
    induced_empirical_x,
    lagrangian_extra_term,
)


def hard_label_e_step(emp, profile, lm, lam, feat):
    """The E-step on the hard-label problem: the lifted confusion channel."""
    problem = UMaxEntProblem(ElementSpace(range(feat.n_elements)), feat, profile.lift(lm),
                             EmpiricalObservations(emp))
    return e_step(problem, lam)


def test_label_map_requires_deterministic_rows():
    with pytest.raises(ValidationError):
        LabelMap([[0.5, 0.5], [1.0, 0.0]])
    lm = LabelMap.from_assignment([1, 0, 1], 2)
    assert list(lm.label_of()) == [1, 0, 1]


def test_profile_lift_builds_channel():
    confusion = np.array([[0.9, 0.1], [0.2, 0.8]])
    lm = LabelMap.from_assignment([0, 1, 1], 2)
    channel = ClassifierProfile(confusion).lift(lm)
    # Pr(xi | X) columns follow the true label of each element
    assert np.allclose(channel.matrix[:, 0], confusion[0])
    assert np.allclose(channel.matrix[:, 1], confusion[1])
    assert np.allclose(channel.matrix[:, 2], confusion[1])


def test_hard_label_perfect_classifier_is_standard_expectations():
    rng = np.random.default_rng(0)
    feat = FeatureTable(rng.uniform(-2, 2, size=(2, 3)))
    lm = LabelMap.from_assignment([0, 1, 2], 3)
    profile = ClassifierProfile(np.eye(3))
    emp = Distribution(rng.dirichlet(np.ones(3)))
    out = hard_label_e_step(emp, profile, lm, Weights(rng.normal(size=2)), feat)
    assert np.max(np.abs(out.phi_hat - feat.values @ emp.probs)) <= 1e-12


def test_hard_label_quotient_equals_latent_rhs():
    # perfect classifier onto a 2-label quotient of 4 elements
    rng = np.random.default_rng(1)
    feat = FeatureTable(rng.uniform(-2, 2, size=(2, 4)))
    assignment = [0, 0, 1, 1]
    lm = LabelMap.from_assignment(assignment, 2)
    profile = ClassifierProfile(np.eye(2))
    emp = Distribution([0.6, 0.4])
    fact = LatentFactorization(
        ["l0", "l1"], ["z0", "z1"],
        {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}, 4,
    )
    for _ in range(20):
        lam = Weights(rng.uniform(-2, 2, size=2))
        model = log_linear_distribution(lam, feat)
        lhs = hard_label_e_step(emp, profile, lm, lam, feat).phi_hat
        rhs = latent_constraint_rhs(fact, emp, model, feat)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_hard_label_symmetric_confusion_hand_computed():
    feat = FeatureTable([[1.0, 0.0]])
    lm = LabelMap.from_assignment([0, 1], 2)
    profile = ClassifierProfile([[0.9, 0.1], [0.1, 0.9]])
    emp = Distribution([0.5, 0.5])
    lam = Weights([0.0])  # model [0.5, 0.5]
    # Pr(xi0) = 0.5; Pr(X0 | xi0) = 0.9*0.5/0.5 = 0.9, Pr(X0 | xi1) = 0.1
    out = hard_label_e_step(emp, profile, lm, lam, feat)
    assert out.phi_hat[0] == pytest.approx(0.5 * 0.9 + 0.5 * 0.1, abs=1e-12)


def test_soft_correction_identity_when_priors_match():
    # a training prior equal to the model's label marginal corrects nothing
    rng = np.random.default_rng(2)
    feat = FeatureTable(rng.uniform(-2, 2, size=(2, 6)))
    lm = LabelMap.from_assignment([0, 1, 2, 3, 0, 2], 4)
    for _ in range(20):
        lam = Weights(rng.normal(size=2))
        prior = Distribution(lm.d.T @ log_linear_distribution(lam, feat).probs)
        batch = SoftClassifierBatch(rng.dirichlet(np.ones(4), size=7), prior)
        corrected = soft_e_step(batch, lm, lam, feat).phi_hat
        raw = soft_e_step(batch, lm, lam, feat, apply_correction=False).phi_hat
        assert np.max(np.abs(corrected - raw)) <= 1e-14


def test_soft_correction_point_mass_stays_point_mass():
    feat = FeatureTable([[1.0, 0.0, 0.5], [0.0, 2.0, 1.0]])
    lm = LabelMap.from_assignment([0, 1, 2], 3)
    batch = SoftClassifierBatch([[0.0, 1.0, 0.0]], Distribution([0.3, 0.3, 0.4]))
    lam = Weights([0.4, -0.7])
    out = soft_e_step(batch, lm, lam, feat)
    assert np.allclose(out.phi_hat, feat.values[:, 1], rtol=0, atol=1e-15)


def test_soft_correction_hand_computed():
    # labels are the elements; the model [0.9, 0.1] replaces the prior [0.5, 0.5]
    feat = FeatureTable([[1.0, 0.0]])
    lm = LabelMap.from_assignment([0, 1], 2)
    batch = SoftClassifierBatch([[0.6, 0.4]], Distribution([0.5, 0.5]))
    out = soft_e_step(batch, lm, Weights([np.log(9.0)]), feat)
    assert out.phi_hat[0] == pytest.approx(0.54 / 0.58, abs=1e-14)


def test_soft_correction_errors():
    feat = FeatureTable([[1.0, 0.0]])
    lm = LabelMap.from_assignment([0, 1], 2)
    with pytest.raises(ZeroTrainingPrior):
        soft_e_step(SoftClassifierBatch([[0.5, 0.5]], Distribution([1.0, 0.0])),
                    lm, Weights([0.0]), feat)
    # the model puts no mass on the row's only label: its corrected row is zero
    with pytest.raises(ZeroMarginal):
        soft_e_step(SoftClassifierBatch([[1.0, 0.0]], Distribution([0.5, 0.5])),
                    lm, Weights([-800.0]), feat)


def test_batch_validation():
    prior = Distribution([0.5, 0.5])
    with pytest.raises(ValidationError):
        SoftClassifierBatch([[0.6, 0.6]], prior)
    batch = SoftClassifierBatch([[0.6, 0.4], [0.2, 0.8]], prior)
    assert batch.n_samples == 2
    assert np.allclose(batch.sample_weights, 0.5)


def test_soft_e_step_perfect_point_mass_rows():
    rng = np.random.default_rng(3)
    feat = FeatureTable(rng.uniform(-2, 2, size=(2, 3)))
    lm = LabelMap.from_assignment([0, 1, 2], 3)
    rows = np.eye(3)[[0, 0, 1, 2]]  # labeled X counts: [2, 1, 1]
    batch = SoftClassifierBatch(rows, Distribution(np.full(3, 1 / 3)))
    out = soft_e_step(batch, lm, Weights(rng.normal(size=2)), feat)
    labeled = Distribution([0.5, 0.25, 0.25])
    assert np.max(np.abs(out.phi_hat - feat.values @ labeled.probs)) <= 1e-12


def test_soft_e_step_uninformative_rows_return_model_expectations():
    rng = np.random.default_rng(4)
    feat = FeatureTable(rng.uniform(-2, 2, size=(2, 3)))
    lm = LabelMap.from_assignment([0, 1, 2], 3)
    rows = np.full((5, 3), 1 / 3)
    batch = SoftClassifierBatch(rows, Distribution(np.full(3, 1 / 3)))
    lam = Weights(rng.normal(size=2))
    out = soft_e_step(batch, lm, lam, feat)
    model_exp = feature_expectation(log_linear_distribution(lam, feat), feat)
    assert np.max(np.abs(out.phi_hat - model_exp)) <= 1e-12


def test_soft_e_step_enumeration():
    # 2 elements = 2 labels, 4 hand-built rows, checked against the double sum
    feat = FeatureTable([[1.0, 0.0]])
    lm = LabelMap.from_assignment([0, 1], 2)
    rows = np.array([[0.9, 0.1], [0.4, 0.6], [0.7, 0.3], [0.2, 0.8]])
    training_prior = Distribution([0.6, 0.4])
    batch = SoftClassifierBatch(rows, training_prior)
    lam = Weights([np.log(3)])  # model [0.75, 0.25]
    out = soft_e_step(batch, lm, lam, feat)

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
    lm = LabelMap.from_assignment([0, 1], 2)
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    batch = SoftClassifierBatch(rows, Distribution([0.5, 0.5]))
    # model with zero mass on element 1 is impossible log-linearly, so
    # drive it there with a large weight: the corrected second row ~ 0
    lam = Weights([800.0])  # exp(-800) underflows: element 1 gets exactly zero mass
    with pytest.raises(ZeroMarginal) as exc:
        soft_e_step(batch, lm, lam, feat)
    assert exc.value.index == 1


def test_soft_row_on_labels_without_elements_is_rejected():
    # label 2 owns no element, so row 1, all on label 2, cannot be produced
    feat = FeatureTable([[1.0, 0.0]])
    lm = LabelMap.from_assignment([0, 1], 3)
    batch = SoftClassifierBatch([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]],
                                Distribution(np.full(3, 1 / 3)))
    with pytest.raises(ZeroMarginal, match="no element can produce it") as exc:
        classifier_problem(feat, batch=batch, label_map=lm)
    assert exc.value.index == 1


@pytest.mark.parametrize("weights", [[0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0]],
                         ids=["zero-total", "nan", "inf"])
def test_batch_rejects_unusable_sample_weights(weights):
    with pytest.raises(ValidationError, match="sample weights"):
        SoftClassifierBatch([[0.6, 0.4], [0.2, 0.8]], Distribution([0.5, 0.5]), weights)


def test_classifier_em_perfect_batch_matches_standard():
    rng = np.random.default_rng(5)
    feat = FeatureTable(rng.uniform(-2, 2, size=(2, 3)))
    lm = LabelMap.from_assignment([0, 1, 2], 3)
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
    lm = LabelMap.from_assignment([0, 1, 2], 3)
    batch = SoftClassifierBatch(rng.dirichlet(np.ones(3), size=50),
                                Distribution([0.5, 0.3, 0.2]))
    _, trace = classifier_em_solve(feat, batch=batch, label_map=lm)
    assert len(trace) > 2
    for prev, row in zip(trace.rows, trace.rows[1:]):
        expected = soft_e_step(batch, lm, Weights(prev.lam), feat).phi_hat
        assert np.max(np.abs(row.phi_hat - expected)) <= 1e-12
        model = feature_expectation(log_linear_distribution(Weights(row.lam), feat), feat)
        residual = np.abs(model - soft_e_step(batch, lm, Weights(row.lam), feat).phi_hat).max()
        assert row.residual == pytest.approx(residual, abs=1e-12)


def crit9_batch():
    """The criterion-9 batch: 1e5 classifier rows trained under a uniform prior."""
    rng = np.random.default_rng(42)
    feat = FeatureTable([[1.0, 0.0]])
    lm = LabelMap.from_assignment([0, 1], 2)
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
        l_soft = batch.sample_weights @ np.log(scaled @ labels)
        shifts.append(row.loglik - l_soft)
    assert np.ptp(shifts) <= 1e-12
    assert shifts[0] == pytest.approx(-np.log(scaled.sum(axis=0).max()), abs=1e-12)


def test_classifier_em_soft_prior_init_starts_from_prior_e_step():
    rng = np.random.default_rng(9)
    feat = FeatureTable(rng.uniform(-2, 2, size=(2, 6)))
    lm = LabelMap.from_assignment([0, 1, 2, 0, 1, 2], 3)
    batch = SoftClassifierBatch(rng.dirichlet(np.ones(3), size=40),
                                Distribution([0.2, 0.3, 0.5]))
    prior = Distribution(rng.dirichlet(np.ones(6)))
    config = EmConfig(init_mode="prior", prior=prior, max_em_iter=2)
    _, trace = classifier_em_solve(feat, batch=batch, label_map=lm, config=config)
    expected = e_step(_soft_problem(feat, batch, lm), None, model=prior).phi_hat
    assert np.max(np.abs(trace.rows[0].phi_hat - expected)) <= 1e-14
    _, zero = classifier_em_solve(feat, batch=batch, label_map=lm,
                                  config=EmConfig(max_em_iter=2))
    assert np.max(np.abs(trace.rows[0].phi_hat - zero.rows[0].phi_hat)) > 1e-3


@pytest.mark.parametrize("apply_correction", [True, False])
def test_soft_problem_matches_dense_label_composition(apply_correction):
    # the factored channel against its |Omega| x |X| expansion, term by term
    rng = np.random.default_rng(10)
    feat = FeatureTable(rng.uniform(-2, 2, size=(3, 7)))
    lm = LabelMap.from_assignment([0, 1, 2, 3, 0, 2, 2], 4)
    rows = rng.dirichlet(np.ones(4), size=12)
    rows[rng.random(rows.shape) < 0.3] = 0.0
    rows[:, 0] += 0.1
    batch = SoftClassifierBatch(rows / rows.sum(axis=1, keepdims=True),
                                Distribution([0.1, 0.2, 0.3, 0.4]))
    factored = _soft_problem(feat, batch, lm, apply_correction)
    labels = factored.channel.labels.matrix
    assert np.allclose(labels.sum(axis=0), 1.0, rtol=0, atol=1e-15)
    assert np.array_equal(factored.channel.matrix, labels @ lm.d.T)
    dense = UMaxEntProblem(factored.space, feat, ObservationChannel(labels @ lm.d.T),
                           factored.empirical)
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
    doc, dense_doc = problem_to_dict(factored), problem_to_dict(dense)
    assert np.max(np.abs(np.subtract(doc["channel"].pop("matrix"),
                                     dense_doc["channel"].pop("matrix")))) <= 1e-15
    assert doc == dense_doc


def test_reductions_read_a_disjoint_label_channel_as_its_expansion():
    # 6 observations over 3 labels, each seen from one label; one element per label
    rng = np.random.default_rng(11)
    owner = np.array([0, 1, 2, 2, 0, 1])
    scores = np.zeros((6, 3))
    scores[np.arange(6), owner] = rng.uniform(0.1, 1.0, size=6)
    labels = ObservationChannel(scores / scores.sum(axis=0))
    lm = LabelMap.from_assignment([2, 0, 1], 3)
    feat = FeatureTable(rng.uniform(-2, 2, size=(2, 3)))
    emp = EmpiricalObservations(Distribution(rng.dirichlet(np.ones(6))))
    factored = UMaxEntProblem(ElementSpace(range(3)), feat, LabelChannel(labels, lm), emp)
    dense = UMaxEntProblem(ElementSpace(range(3)), feat,
                           ObservationChannel(labels.matrix @ lm.d.T), emp)
    assert has_disjoint_column_supports(factored.channel)
    assert np.array_equal(induced_empirical_x(factored).probs, induced_empirical_x(dense).probs)
    lam = Weights([0.4, -0.7])
    model = log_linear_distribution(lam, feat)
    report = is_deterministic_channel(factored.channel, model)
    assert report == is_deterministic_channel(dense.channel, model)
    assert report.point_mass_posteriors and report.model_independent
    assert np.max(np.abs(lagrangian_extra_term(factored, lam))) <= 1e-15


def test_label_channel_checks_label_count():
    with pytest.raises(DimensionMismatch):
        LabelChannel(ObservationChannel.identity(3), LabelMap.from_assignment([0, 1], 2))


def test_classifier_em_hard_path_runs():
    rng = np.random.default_rng(6)
    feat = FeatureTable(rng.uniform(-2, 2, size=(2, 3)))
    lm = LabelMap.from_assignment([0, 1, 2], 3)
    profile = ClassifierProfile(0.8 * np.eye(3) + 0.2 / 3 * np.ones((3, 3)))
    emp = Distribution(rng.dirichlet(np.ones(3)))
    lam, trace = classifier_em_solve(feat, empirical_xi=emp, label_map=lm,
                                     profile=profile, config=EmConfig(max_em_iter=200))
    assert trace.converged


def test_batch_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    rows = rng.dirichlet(np.ones(3), size=10)
    prior = Distribution(np.full(3, 1 / 3))
    batch = SoftClassifierBatch(rows, prior)
    path = tmp_path / "batch.csv"
    batch.to_csv(path)
    loaded = SoftClassifierBatch.from_csv(path, prior)
    assert np.max(np.abs(loaded.rows - batch.rows)) == 0.0
