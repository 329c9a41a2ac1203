import numpy as np
import pytest

from umaxent import (
    ClassifierProfile,
    DimensionMismatch,
    Distribution,
    FeatureTable,
    LabelMap,
    ObservationChannel,
    TargetExpectations,
    ValidationError,
    Weights,
    feature_expectation,
    log_linear_distribution,
    log_partition,
    observation_marginal,
)


def test_feature_table_rejects_nonfinite():
    with pytest.raises(ValidationError):
        FeatureTable([[1.0, np.nan]])


def test_distribution_renormalizes_small_drift():
    d = Distribution([0.5 + 3e-10, 0.5])
    assert d.probs.sum() == 1.0
    with pytest.raises(ValidationError):
        Distribution([0.5, 0.6])
    with pytest.raises(ValidationError):
        Distribution([-0.1, 1.1])


def test_channel_requires_stochastic_columns():
    with pytest.raises(ValidationError) as exc:
        ObservationChannel([[0.5, 0.9], [0.4, 0.1]])
    assert "column 0" in str(exc.value)


def test_channel_normalizes_a_copy():
    given = np.array([[0.5 + 1e-10, 0.3], [0.5, 0.7]])
    channel = ObservationChannel(given)
    assert np.allclose(channel.matrix.sum(axis=0), 1.0, rtol=0, atol=1e-15)
    assert given[0, 0] == 0.5 + 1e-10
    assert not np.shares_memory(given, channel.matrix)



@pytest.mark.parametrize("build, given", [
    (FeatureTable, np.eye(2)),
    (Weights, np.ones(2)),
    (TargetExpectations, np.ones(2)),
    pytest.param(lambda given: LabelMap(given, 2), np.array([0, 1]), id="LabelMap-given3"),
    pytest.param(lambda given: ClassifierProfile(given).channel, np.eye(2),
                 id="ClassifierProfile-given4"),
])
def test_value_types_freeze_their_own_copy(build, given):
    # the caller's float64 array stays writable and does not alias the value
    value = build(given)
    given[0] = 2.0
    stored = next(v for v in vars(value).values() if isinstance(v, np.ndarray))
    assert not stored.flags.writeable
    assert not np.shares_memory(given, stored)


def test_log_partition_zero_weights():
    feat = FeatureTable(np.zeros((3, 4)))
    assert log_partition(Weights(np.zeros(3)), feat) == pytest.approx(np.log(4))


def test_log_partition_constant_feature_cancels():
    feat = FeatureTable([[0.0, 0.0]])
    assert log_partition(Weights([5.0]), feat) == pytest.approx(np.log(2))


def test_log_partition_direct():
    # e^{ln 2} + e^0 = 3
    feat = FeatureTable([[1.0, 0.0]])
    assert log_partition(Weights([np.log(2)]), feat) == pytest.approx(np.log(3))


def test_log_partition_no_overflow():
    feat = FeatureTable([[700.0, 0.0]])
    val = log_partition(Weights([1.0]), feat)
    assert np.isfinite(val) and val == pytest.approx(700.0)


def test_log_partition_dimension_mismatch():
    feat = FeatureTable([[1.0, 0.0]])
    with pytest.raises(DimensionMismatch) as exc:
        log_partition(Weights([1.0, 2.0]), feat)
    assert exc.value.axis == "features"


def test_log_linear_uniform_at_zero():
    feat = FeatureTable(np.arange(8.0).reshape(2, 4))
    dist = log_linear_distribution(Weights(np.zeros(2)), feat)
    assert np.allclose(dist.probs, 0.25)


def test_log_linear_direct():
    feat = FeatureTable([[1.0, 0.0]])
    dist = log_linear_distribution(Weights([np.log(2)]), feat)
    assert np.allclose(dist.probs, [2 / 3, 1 / 3])


def test_log_linear_shift_invariance():
    rng = np.random.default_rng(0)
    values = rng.uniform(-2, 2, size=(3, 5))
    lam = Weights(rng.uniform(-1, 1, size=3))
    base = log_linear_distribution(lam, FeatureTable(values))
    shifted = values.copy()
    shifted[1] += 7.3
    moved = log_linear_distribution(lam, FeatureTable(shifted))
    assert np.max(np.abs(base.probs - moved.probs)) <= 1e-12


def test_log_linear_scale_consistency():
    rng = np.random.default_rng(1)
    values = rng.uniform(-2, 2, size=(3, 5))
    lam = rng.uniform(-1, 1, size=3)
    base = log_linear_distribution(Weights(lam), FeatureTable(values))
    c = 4.0
    scaled = values.copy()
    scaled[2] *= c
    lam2 = lam.copy()
    lam2[2] /= c
    moved = log_linear_distribution(Weights(lam2), FeatureTable(scaled))
    assert np.max(np.abs(base.probs - moved.probs)) <= 1e-12


def test_observation_marginal_identity_channel():
    model = Distribution([0.1, 0.6, 0.3])
    out = observation_marginal(model, ObservationChannel.identity(3))
    assert np.allclose(out.probs, model.probs)


def test_observation_marginal_uniform_rows():
    model = Distribution([0.7, 0.3])
    channel = ObservationChannel(np.full((4, 2), 0.25))
    out = observation_marginal(model, channel)
    assert np.allclose(out.probs, 0.25)


def test_observation_marginal_hand_computed():
    model = Distribution([0.75, 0.25])
    channel = ObservationChannel([[0.9, 0.2], [0.1, 0.8]])
    out = observation_marginal(model, channel)
    assert np.allclose(out.probs, [0.725, 0.275])


def test_feature_expectation_point_mass():
    feat = FeatureTable([[1.0, 2.0, 3.0], [0.5, -1.0, 4.0]])
    out = feature_expectation(Distribution.point_mass(3, 1), feat)
    assert np.allclose(out, feat.values[:, 1])


def test_feature_expectation_uniform():
    feat = FeatureTable([[1.0, 0.0, 1.0, 0.0]])
    out = feature_expectation(Distribution.uniform(4), feat)
    assert out[0] == pytest.approx(0.5)


def test_feature_expectation_dot_product():
    feat = FeatureTable([[1.0, 2.0, 3.0]])
    out = feature_expectation(Distribution([0.2, 0.3, 0.5]), feat)
    assert out[0] == pytest.approx(2.3)


def test_channel_consistency_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n, m = rng.integers(2, 6), rng.integers(2, 7)
        model = Distribution(rng.dirichlet(np.ones(n)))
        channel = ObservationChannel(rng.dirichlet(np.ones(m), size=n).T)
        marg = observation_marginal(model, channel)
        assert marg.probs.sum() == pytest.approx(1.0, abs=1e-12)
        for w in range(m):
            if marg.probs[w] > 0:
                joint = channel.matrix[w] * model.probs
                post = joint / joint.sum()
                assert post.sum() == pytest.approx(1.0, abs=1e-12)
                # Bayes identity: post * Pr(w) = Pr(w|X) Pr(X)
                lhs = post * marg.probs[w]
                np.testing.assert_allclose(lhs, joint, rtol=1e-14, atol=0)
