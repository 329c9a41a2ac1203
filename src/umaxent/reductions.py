"""Executable reductions: deterministic channels recover standard MaxEnt,
perfectly-observed-Y channels recover latent MaxEnt.

Both reductions are verified numerically rather than assumed: the standard
one by comparing the EM solution with the direct dual solve (plus the
vanishing extra gradient term of the full Lagrangian), the latent one as a
pointwise identity on E-step outputs.
"""

from dataclasses import dataclass

import numpy as np

from .classifier import LabelChannel, LabelMap
from .dual import solve_standard_maxent
from .em import EmConfig, UMaxEntProblem, em_solve, evaluate
from .errors import DimensionMismatch, PreconditionViolated, ValidationError, ZeroMarginal
from .model import Distribution, ObservationChannel, Weights, log_linear_distribution

# A posterior entry this close to 0 or 1 counts as a point-mass entry.
_POINT_MASS_ATOL = 1e-12
# verify_maxent_reduction takes the extra term at this many random lambdas.
N_RANDOM_LAMBDA = 100
# verify_latent_reduction compares both sides at this many random models and
# fails when they differ by more than IDENTITY_ATOL.
N_MODELS = 100
IDENTITY_ATOL = 1e-12


def _at_most_one_per_row(rows, n_observations):
    """True when no observation index occurs twice among the nonzero entries."""
    return bool(np.all(np.bincount(rows, minlength=n_observations) <= 1))


def _support(channel):
    """(rows, cols, values) of the channel's nonzero (so positive) entries, row-major."""
    c = channel.matrix
    rows, cols = np.nonzero(c)
    return rows, cols, c[rows, cols]


def has_disjoint_column_supports(channel):
    """True when every observation is supported by at most one element."""
    return _at_most_one_per_row(_support(channel)[0], channel.n_observations)


def is_deterministic_channel(channel, model):
    """Test whether each observation pins down a single element under model.

    True when every posterior under the given model is a point mass
    (entries within _POINT_MASS_ATOL of 0 or 1); observations with zero
    marginal are vacuous. has_disjoint_column_supports tells whether this
    holds for every model. Only the nonzero channel entries are visited: the
    others give posterior 0.
    """
    rows, cols, v = _support(channel)
    p = model.probs
    marg = channel.matvec(p)
    live = marg[rows] > 0
    post = v[live] * p[cols[live]] / marg[rows[live]]
    return bool(np.all(np.minimum(post, np.abs(post - 1.0)) < _POINT_MASS_ATOL))


def lagrangian_extra_term(problem, weights):
    """Per-element value of the non-linear term in the full Lagrangian gradient.

    This is the term the log-linear approximation discards; under a
    deterministic channel it vanishes identically. Observations with zero
    marginal under the model are skipped, and so are zero channel entries,
    whose term is zero. The nonzero entries' terms are summed per element
    in observation order.
    """
    return _extra_term(problem, weights, _support(problem.channel))


def _extra_term(problem, weights, support):
    """lagrangian_extra_term on the channel's support from _support."""
    rows, cols, v = support
    p = log_linear_distribution(weights, problem.features).probs
    marg = problem.channel.matvec(p)
    live = marg[rows] > 0
    rows, cols, v = rows[live], cols[live], v[live]
    m = marg[rows]
    # (Pr(w|X) Pr(w) - Pr(w|X)^2 Pr(X)) / Pr(w)^2, weighted by Pr~(w)
    frac = (v * m - v ** 2 * p[cols]) / m ** 2
    term = problem.empirical.probs[rows] * frac * (weights.lam @ problem.features.values)[cols]
    return np.bincount(cols, weights=term, minlength=problem.channel.n_elements)


@dataclass
class ReductionReport:
    reduction: str
    tv_distance: float = None
    residual: float = None
    extra_term_norm: float = None
    identity_gap: float = None
    iterations: int = None


def induced_empirical_x(problem):
    """Merge observation mass onto the unique supporting element per observation."""
    channel = problem.channel
    rows, cols, _ = _support(channel)
    if not _at_most_one_per_row(rows, channel.n_observations):
        raise PreconditionViolated("channel columns do not have disjoint supports")
    tilde = problem.empirical.probs
    return Distribution(np.bincount(cols, weights=tilde[rows], minlength=channel.n_elements))


def verify_maxent_reduction(problem, config=None, seed=0):
    """Check that EM on a deterministic channel matches the direct dual solve.

    Reports the total-variation distance between the two solutions and the
    sup-norm of the Lagrangian's extra gradient term at N_RANDOM_LAMBDA
    random weights drawn from seed.
    """
    config = config or EmConfig()
    empirical_x = induced_empirical_x(problem)

    weights_em, trace = em_solve(problem, config)
    dist_em = log_linear_distribution(weights_em, problem.features)
    direct = solve_standard_maxent(empirical_x, problem.features, config.inner)
    dist_direct = log_linear_distribution(direct.weights, problem.features)
    tv = 0.5 * float(np.abs(dist_em.probs - dist_direct.probs).sum())

    rng = np.random.default_rng(seed)
    k = problem.features.n_features
    support = _support(problem.channel)
    term_norm = 0.0
    for _ in range(N_RANDOM_LAMBDA):
        lam = Weights(rng.uniform(-2, 2, size=k))
        term_norm = max(term_norm, float(np.abs(_extra_term(problem, lam, support)).max()))

    return ReductionReport(
        "standard",
        tv_distance=tv,
        residual=trace.rows[-1].residual,
        extra_term_norm=term_norm,
        iterations=len(trace) - 1,
    )


@dataclass(frozen=True, eq=False)
class LatentFactorization:
    """Split of each element into an observed Y part and a hidden Z part.

    embed maps valid (y_index, z_index) pairs, y_index < len(y_space) and
    z_index < len(z_space), injectively onto element indices and must cover
    the whole element set. Only the element -> Y index map it induces, y_map,
    is kept.
    """

    y_map: LabelMap

    def __init__(self, y_space, z_space, embed, n_elements):
        y_space, z_space = tuple(y_space), tuple(z_space)
        embed = dict(embed)
        pairs = np.array(list(embed), dtype=int).reshape(-1, 2)
        targets = np.fromiter(embed.values(), dtype=int, count=len(embed))
        if np.unique(targets).size != targets.size:
            raise ValidationError("factorization embed must be injective")
        if targets.size != n_elements or np.any((targets < 0) | (targets >= n_elements)):
            raise ValidationError("factorization must cover every element exactly once")
        outside = np.any((pairs < 0) | (pairs >= (len(y_space), len(z_space))), axis=1)
        if np.any(outside):
            yi, zi = pairs[np.flatnonzero(outside)[0]]
            raise ValidationError(f"embed key ({yi}, {zi}) out of range")
        y_of = np.empty(n_elements, dtype=int)
        y_of[targets] = pairs[:, 0]
        object.__setattr__(self, "y_map", LabelMap(y_of, len(y_space)))

    @property
    def n_elements(self):
        return self.y_map.n_elements

    def y_channel(self):
        """Channel with Omega = Y: Pr(omega | X) = 1 iff X's Y part is omega."""
        return LabelChannel(ObservationChannel.identity(self.y_map.n_labels), self.y_map)


def latent_constraint_rhs(fact, empirical_y, model, features):
    """Right-hand side of the latent MaxEnt constraints under the given model.

    rhs_k = sum_Y Pr~(Y) sum_{Z in Z_Y} Pr(Z | Y) phi_k(X), with
    Pr(Z | Y) the model's conditional over completions of Y: each element
    carries Pr~(Y) Pr(X) / Pr(Y) for its own Y.
    """
    if features.n_elements != fact.n_elements:
        raise ValidationError("feature table does not match factorization size")
    if len(empirical_y) != fact.y_map.n_labels:
        raise DimensionMismatch("Y values", fact.y_map.n_labels, len(empirical_y))
    y = fact.y_map.labels
    p = model.probs
    mass = np.bincount(y, weights=p, minlength=len(empirical_y))
    lost = np.flatnonzero((mass <= 0) & (empirical_y.probs > 0))
    if lost.size:
        raise ZeroMarginal(int(lost[0]))
    mass = mass[y]
    cond = np.divide(p, mass, out=np.zeros_like(p), where=mass > 0)
    return features.values @ (empirical_y.probs[y] * cond)


def verify_latent_reduction(fact, empirical_y, features, config=None, seed=0):
    """Check the latent reduction as a pointwise identity on E-step outputs.

    Builds the Y-observing channel, compares the E-step targets of evaluate
    with latent_constraint_rhs at N_MODELS random log-linear models drawn
    from seed, then runs EM and reports the converged residual.
    """
    config = config or EmConfig()
    problem = UMaxEntProblem(features, fact.y_channel(), empirical_y)

    rng = np.random.default_rng(seed)
    gap = 0.0
    for _ in range(N_MODELS):
        lam = Weights(rng.uniform(-2, 2, size=features.n_features))
        model = log_linear_distribution(lam, features)
        lhs = evaluate(problem, lam).phi_hat
        rhs = latent_constraint_rhs(fact, empirical_y, model, features)
        gap = max(gap, float(np.abs(lhs - rhs).max()))
    if gap > IDENTITY_ATOL:
        raise PreconditionViolated(
            f"latent identity violated: max gap {gap} exceeds {IDENTITY_ATOL}"
        )

    _, trace = em_solve(problem, config)
    return ReductionReport(
        "latent",
        residual=trace.rows[-1].residual,
        identity_gap=gap,
        iterations=len(trace) - 1,
    )
