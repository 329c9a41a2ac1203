import numpy as np
import pytest

from umaxent import (
    Distribution,
    EmConfig,
    FeatureTable,
    LatentFactorization,
    ObservationChannel,
    PreconditionViolated,
    UMaxEntProblem,
    ValidationError,
    Weights,
    ZeroMarginal,
    dump_json,
    evaluate,
    is_deterministic_channel,
    latent_constraint_rhs,
    log_linear_distribution,
    solve_standard_maxent,
    verify_latent_reduction,
    verify_maxent_reduction,
)
from umaxent.reductions import (
    has_disjoint_column_supports,
    induced_empirical_x,
    lagrangian_extra_term,
)


def make_problem(values, channel_matrix, empirical):
    return UMaxEntProblem(FeatureTable(values), ObservationChannel(channel_matrix),
                          Distribution(empirical))


def two_by_two_factorization():
    return LatentFactorization(
        ["y0", "y1"], ["z0", "z1"],
        {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}, 4,
    )


def test_identity_channel_is_deterministic():
    channel = ObservationChannel.identity(3)
    assert is_deterministic_channel(channel, Distribution([0.2, 0.5, 0.3]))
    assert has_disjoint_column_supports(channel)


def test_uninformative_channel_not_deterministic():
    channel = ObservationChannel(np.full((2, 2), 0.5))
    assert not is_deterministic_channel(channel, Distribution([0.4, 0.6]))
    assert not has_disjoint_column_supports(channel)


def test_more_observations_than_elements_still_deterministic():
    # three observations, two elements, each observation names one element
    channel = ObservationChannel([[0.5, 0.0], [0.5, 0.0], [0.0, 1.0]])
    assert is_deterministic_channel(channel, Distribution([0.3, 0.7]))
    assert has_disjoint_column_supports(channel)


def test_posterior_determinism_can_be_model_dependent():
    # mixing channel looks deterministic when the model is a point mass
    channel = ObservationChannel(np.full((2, 2), 0.5))
    assert is_deterministic_channel(channel, Distribution([1.0, 0.0]))
    assert not has_disjoint_column_supports(channel)


def test_solve_standard_maxent_uniform():
    rng = np.random.default_rng(0)
    feat = FeatureTable(rng.uniform(-2, 2, size=(2, 4)))
    res = solve_standard_maxent(Distribution.uniform(4), feat)
    assert res.converged
    dist = log_linear_distribution(res.weights, feat)
    assert np.max(np.abs(dist.probs - 0.25)) <= 1e-8


def test_solve_standard_maxent_bernoulli():
    feat = FeatureTable([[1.0, 0.0]])
    res = solve_standard_maxent(Distribution([2 / 3, 1 / 3]), feat)
    dist = log_linear_distribution(res.weights, feat)
    assert np.allclose(dist.probs, [2 / 3, 1 / 3], atol=1e-8)


def test_verify_maxent_reduction_identity_channel():
    rng = np.random.default_rng(1)
    problem = make_problem(rng.uniform(-2, 2, size=(2, 3)), np.eye(3),
                           rng.dirichlet(np.ones(3)))
    report = verify_maxent_reduction(problem)
    assert report.tv_distance <= 1e-6
    assert report.extra_term_norm <= 1e-10
    assert report.iterations == 1


def test_verify_maxent_reduction_merged_observations():
    # four observations over two elements, disjoint supports
    rng = np.random.default_rng(2)
    channel = [[0.5, 0.0], [0.5, 0.0], [0.0, 0.3], [0.0, 0.7]]
    problem = make_problem(rng.uniform(-2, 2, size=(1, 2)), channel,
                           [0.3, 0.3, 0.1, 0.3])
    report = verify_maxent_reduction(problem)
    assert report.tv_distance <= 1e-6
    assert report.extra_term_norm <= 1e-10


def test_verify_maxent_reduction_rejects_noisy_channel():
    rng = np.random.default_rng(3)
    problem = make_problem(rng.uniform(-2, 2, size=(1, 2)),
                           [[0.9, 0.2], [0.1, 0.8]], [0.5, 0.5])
    with pytest.raises(PreconditionViolated):
        verify_maxent_reduction(problem)


def test_extra_term_vanishes_under_deterministic_channel():
    rng = np.random.default_rng(4)
    channel = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    problem = make_problem(rng.uniform(-2, 2, size=(2, 3)), channel,
                           rng.dirichlet(np.ones(3)))
    for _ in range(100):
        lam = Weights(rng.uniform(-2, 2, size=2))
        assert np.max(np.abs(lagrangian_extra_term(problem, lam))) <= 1e-10


def test_extra_term_nonzero_under_noisy_channel():
    rng = np.random.default_rng(5)
    problem = make_problem([[1.0, 0.0]], [[0.9, 0.2], [0.1, 0.8]], [0.6, 0.4])
    lam = Weights([0.8])
    assert np.max(np.abs(lagrangian_extra_term(problem, lam))) > 1e-4


def test_factorization_validation():
    with pytest.raises(ValidationError):
        LatentFactorization(["y0"], ["z0", "z1"], {(0, 0): 0, (0, 1): 0}, 2)
    with pytest.raises(ValidationError):
        LatentFactorization(["y0"], ["z0"], {(0, 0): 0}, 2)


def test_latent_rhs_trivial_hidden_part():
    # |Z| = 1: reduces to the plain empirical expectations over Y = X
    fact = LatentFactorization(["y0", "y1"], ["z0"], {(0, 0): 0, (1, 0): 1}, 2)
    feat = FeatureTable([[1.0, 0.0]])
    emp = Distribution([0.7, 0.3])
    model = Distribution([0.5, 0.5])
    rhs = latent_constraint_rhs(fact, emp, model, feat)
    assert np.allclose(rhs, feat.values @ emp.probs, atol=1e-14)


def test_latent_rhs_fully_hidden():
    # single Y covering everything: returns the model's own expectations
    fact = LatentFactorization(["y0"], ["z0", "z1", "z2"],
                               {(0, 0): 0, (0, 1): 1, (0, 2): 2}, 3)
    feat = FeatureTable([[1.0, 2.0, 3.0]])
    model = Distribution([0.2, 0.3, 0.5])
    rhs = latent_constraint_rhs(fact, Distribution([1.0]), model, feat)
    assert rhs[0] == pytest.approx(2.3, abs=1e-14)


def test_latent_rhs_enumeration():
    fact = two_by_two_factorization()
    feat = FeatureTable([[1.0, 2.0, 3.0, 4.0]])
    model = Distribution([0.1, 0.2, 0.3, 0.4])
    emp = Distribution([0.6, 0.4])
    # by hand: Pr(z|y0) = [1/3, 2/3] over x0, x1; Pr(z|y1) = [3/7, 4/7]
    hand = 0.6 * (1 / 3 * 1.0 + 2 / 3 * 2.0) + 0.4 * (3 / 7 * 3.0 + 4 / 7 * 4.0)
    rhs = latent_constraint_rhs(fact, emp, model, feat)
    assert rhs[0] == pytest.approx(hand, abs=1e-14)


def test_latent_estep_identity_pointwise():
    rng = np.random.default_rng(6)
    fact = two_by_two_factorization()
    feat = FeatureTable(rng.uniform(-2, 2, size=(2, 4)))
    emp = Distribution([0.6, 0.4])
    channel = fact.y_channel()
    problem = UMaxEntProblem(feat, channel, emp)
    for _ in range(100):
        lam = Weights(rng.uniform(-2, 2, size=2))
        model = log_linear_distribution(lam, feat)
        lhs = evaluate(problem, lam).phi_hat
        rhs = latent_constraint_rhs(fact, emp, model, feat)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_verify_latent_reduction_random_factorizations():
    rng = np.random.default_rng(7)
    for _ in range(5):
        n_y = int(rng.integers(1, 5))
        n_z = int(rng.integers(1, 5))
        pairs = [(y, z) for y in range(n_y) for z in range(n_z)
                 if rng.random() < 0.8 or z == 0]
        embed = {pair: i for i, pair in enumerate(pairs)}
        fact = LatentFactorization(range(n_y), range(n_z), embed, len(pairs))
        feat = FeatureTable(rng.uniform(-2, 2, size=(2, len(pairs))))
        emp = Distribution(rng.dirichlet(np.ones(n_y)))
        report = verify_latent_reduction(fact, emp, feat, EmConfig(max_em_iter=100))
        assert report.identity_gap <= 1e-12


def test_verify_latent_reduction_trivial_z():
    fact = LatentFactorization(["y0", "y1"], ["z0"], {(0, 0): 0, (1, 0): 1}, 2)
    feat = FeatureTable([[1.0, 0.0]])
    report = verify_latent_reduction(fact, Distribution([2 / 3, 1 / 3]), feat)
    assert report.identity_gap <= 1e-12
    assert report.residual <= 1e-5


def test_reduction_report_json():
    import json
    from dataclasses import asdict

    rng = np.random.default_rng(8)
    problem = make_problem(rng.uniform(-2, 2, size=(1, 2)), np.eye(2), [0.5, 0.5])
    doc = json.loads(dump_json(asdict(verify_maxent_reduction(problem))))
    assert doc["reduction"] == "standard"
    assert set(doc) == {"reduction", "tv_distance", "residual",
                        "extra_term_norm", "identity_gap", "iterations"}


# Per-observation and per-Y loop references for the array forms above.

def loop_is_deterministic(matrix, probs, atol=1e-12):
    marg = matrix @ probs
    point_mass = True
    for w in range(matrix.shape[0]):
        if marg[w] <= 0:
            continue
        post = matrix[w] * probs / marg[w]
        if not np.all((post < atol) | (np.abs(post - 1.0) < atol)):
            point_mass = False
            break
    disjoint = all(np.count_nonzero(matrix[w] > 0) <= 1 for w in range(matrix.shape[0]))
    return point_mass, disjoint


def loop_extra_term(problem, weights):
    probs = log_linear_distribution(weights, problem.features).probs
    ch = problem.channel.matrix
    marg = ch @ probs
    tilde = problem.empirical.probs
    out = np.zeros(problem.features.n_elements)
    for w in np.flatnonzero(marg > 0):
        frac = (ch[w] * marg[w] - ch[w] ** 2 * probs) / marg[w] ** 2
        out += tilde[w] * frac * (weights.lam @ problem.features.values)
    return out


def loop_induced_mass(problem):
    mass = np.zeros(problem.channel.n_elements)
    for w, p in enumerate(problem.empirical.probs):
        support = np.flatnonzero(problem.channel.matrix[w] > 0)
        if support.size:  # a row no element produces has no mass
            mass[support[0]] += p
    return mass


def loop_latent_rhs(embed, empirical_y, model, features):
    rhs = np.zeros(features.n_features)
    for yi, p_y in enumerate(empirical_y.probs):
        xs = [x for (y, _z), x in embed.items() if y == yi]
        mass = model.probs[xs].sum()
        if mass <= 0:
            if p_y > 0:
                raise ZeroMarginal(yi)
            continue
        rhs += p_y * (features.values[:, xs] @ (model.probs[xs] / mass))
    return rhs


def random_channel(rng, n, m, disjoint):
    """m x n channel with zero entries, zero-support rows and zero-mass observations.

    disjoint: every observation is supported by at most one element.
    """
    if disjoint:
        owner = np.concatenate([rng.permutation(n), rng.integers(0, n, size=m - n)])
        matrix = np.zeros((m, n))
        matrix[np.arange(m), owner] = rng.uniform(0.1, 1.0, size=m)
        matrix[n:][rng.random(m - n) < 0.3] = 0.0  # observations no element produces
    else:
        matrix = rng.uniform(0.0, 1.0, size=(m, n))
        matrix[rng.random((m, n)) < 0.4] = 0.0
        matrix[0] = 0.0  # an observation no element produces
        matrix[1] = rng.uniform(0.1, 1.0, size=n)  # one seen from every element
    matrix = matrix[rng.permutation(m)]
    return matrix / matrix.sum(axis=0)


def random_reduction_problem(rng, disjoint):
    n = int(rng.integers(2, 8))
    m = n + int(rng.integers(1, 6))
    matrix = random_channel(rng, n, m, disjoint)
    tilde = rng.dirichlet(np.ones(m))
    tilde[rng.random(m) < 0.3] = 0.0
    tilde[matrix.sum(axis=1) == 0] = 0.0
    tilde[np.argmax(matrix.sum(axis=1))] += 0.1
    values = rng.uniform(-2, 2, size=(int(rng.integers(1, 4)), n))
    return make_problem(values, matrix, tilde / tilde.sum())


@pytest.mark.parametrize("disjoint", [True, False])
def test_reductions_match_loop_references(disjoint):
    rng = np.random.default_rng(20 + disjoint)
    for _ in range(30):
        problem = random_reduction_problem(rng, disjoint)
        ch, feat = problem.channel, problem.features
        for _ in range(5):
            lam = Weights(rng.uniform(-3, 3, size=feat.n_features))
            model = log_linear_distribution(lam, feat)
            assert (is_deterministic_channel(ch, model), has_disjoint_column_supports(ch)) == \
                loop_is_deterministic(ch.matrix, model.probs)
            assert np.max(np.abs(lagrangian_extra_term(problem, lam)
                                 - loop_extra_term(problem, lam))) <= 1e-12
        point = Distribution.point_mass(feat.n_elements, int(rng.integers(feat.n_elements)))
        assert (is_deterministic_channel(ch, point), has_disjoint_column_supports(ch)) == \
            loop_is_deterministic(ch.matrix, point.probs)
        assert has_disjoint_column_supports(ch) == disjoint
        if disjoint:
            mass = induced_empirical_x(problem).probs
            assert np.array_equal(mass, Distribution(loop_induced_mass(problem)).probs)
        else:
            with pytest.raises(PreconditionViolated):
                induced_empirical_x(problem)


def test_induced_empirical_x_unsupported_observation_with_mass():
    # observation 1 has mass but no element produces it: no problem is built,
    # so induced_empirical_x never sees one
    with pytest.raises(ZeroMarginal) as exc:
        make_problem([[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]], [0.5, 0.2, 0.3])
    assert exc.value.index == 1


def shuffled_factorization(rng, n_y, n_z):
    pairs = [(y, z) for y in range(n_y) for z in range(n_z) if rng.random() < 0.7 or z == 0]
    order = rng.permutation(len(pairs))
    embed = {pairs[i]: int(x) for x, i in enumerate(order)}  # insertion order shuffled too
    return LatentFactorization(range(n_y), range(n_z), embed, len(pairs)), embed


def test_latent_rhs_matches_per_y_reference():
    rng = np.random.default_rng(23)
    for _ in range(30):
        fact, embed = shuffled_factorization(rng, int(rng.integers(1, 6)),
                                             int(rng.integers(1, 5)))
        feat = FeatureTable(rng.uniform(-2, 2, size=(3, fact.n_elements)))
        emp = rng.dirichlet(np.ones(fact.y_map.n_labels))
        emp[rng.random(emp.size) < 0.3] = 0.0
        emp[0] += 0.1
        emp = Distribution(emp / emp.sum())
        model = Distribution(rng.dirichlet(np.ones(fact.n_elements)))
        assert np.max(np.abs(latent_constraint_rhs(fact, emp, model, feat)
                             - loop_latent_rhs(embed, emp, model, feat))) <= 1e-12


def test_latent_rhs_zero_mass_y():
    rng = np.random.default_rng(24)
    fact, embed = shuffled_factorization(rng, 3, 3)
    feat = FeatureTable(rng.uniform(-2, 2, size=(2, fact.n_elements)))
    y = fact.y_map.labels
    probs = rng.dirichlet(np.ones(fact.n_elements))
    probs[y == 1] = 0.0
    model = Distribution(probs / probs.sum())
    # Y = 1 has no model mass: an error when observed, vacuous when not
    with pytest.raises(ZeroMarginal) as exc:
        latent_constraint_rhs(fact, Distribution([0.3, 0.3, 0.4]), model, feat)
    assert exc.value.index == 1
    emp = Distribution([0.6, 0.0, 0.4])
    assert np.max(np.abs(latent_constraint_rhs(fact, emp, model, feat)
                         - loop_latent_rhs(embed, emp, model, feat))) <= 1e-12
