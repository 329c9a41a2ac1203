import numpy as np
import pytest

from umaxent import (
    ClassifierProfile,
    DegenerateRow,
    Distribution,
    EmConfig,
    FeatureTable,
    LabelMap,
    LatentFactorization,
    SoftClassifierBatch,
    ValidationError,
    Weights,
    ZeroTrainingPrior,
    classifier_em_solve,
    feature_expectation,
    hard_label_e_step,
    latent_constraint_rhs,
    log_linear_distribution,
    soft_correction,
    soft_e_step,
    solve_standard_maxent,
)


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
    rng = np.random.default_rng(2)
    for _ in range(20):
        row = Distribution(rng.dirichlet(np.ones(4)))
        bumped = rng.dirichlet(np.ones(4)) + 0.05
        prior = Distribution(bumped / bumped.sum())
        out = soft_correction(row, prior, prior)
        assert np.max(np.abs(out.probs - row.probs)) <= 1e-14


def test_soft_correction_point_mass_stays_point_mass():
    row = Distribution([0.0, 1.0, 0.0])
    out = soft_correction(row, Distribution([0.3, 0.3, 0.4]),
                          Distribution([0.5, 0.2, 0.3]))
    assert np.allclose(out.probs, row.probs)


def test_soft_correction_hand_computed():
    out = soft_correction(Distribution([0.6, 0.4]), Distribution([0.5, 0.5]),
                          Distribution([0.9, 0.1]))
    assert np.allclose(out.probs, [0.54 / 0.58, 0.04 / 0.58])


def test_soft_correction_errors():
    with pytest.raises(ZeroTrainingPrior):
        soft_correction(Distribution([0.5, 0.5]), Distribution([1.0, 0.0]),
                        Distribution([0.5, 0.5]))
    with pytest.raises(DegenerateRow):
        soft_correction(Distribution([1.0, 0.0]), Distribution([0.5, 0.5]),
                        Distribution([0.0, 1.0]))


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
    feat = FeatureTable([[1.0, 0.0]])
    lm = LabelMap.from_assignment([0, 1], 2)
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    batch = SoftClassifierBatch(rows, Distribution([0.5, 0.5]))
    # model with zero mass on element 1 is impossible log-linearly, so
    # drive it there with a large weight: the corrected second row ~ 0
    lam = Weights([800.0])  # exp(-800) underflows: element 1 gets exactly zero mass
    out = soft_e_step(batch, lm, lam, feat)
    assert out.phi_hat[0] == pytest.approx(1.0, abs=1e-12)


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


def test_classifier_em_soft_hook_called_once_per_lambda(monkeypatch):
    import umaxent.classifier

    rng = np.random.default_rng(8)
    feat = FeatureTable(rng.uniform(-2, 2, size=(2, 3)))
    lm = LabelMap.from_assignment([0, 1, 2], 3)
    batch = SoftClassifierBatch(rng.dirichlet(np.ones(3), size=50),
                                Distribution(np.full(3, 1 / 3)))
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2])
        return soft_e_step(*args, **kwargs)

    monkeypatch.setattr(umaxent.classifier, "soft_e_step", counting)
    _, trace = classifier_em_solve(feat, batch=batch, label_map=lm)
    assert len(trace) > 2
    assert len(calls) == len(trace)
    assert [w.lam.tolist() for w in calls] == [r.lam.tolist() for r in trace.rows]


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
