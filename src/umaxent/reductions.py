"""Executable reductions: deterministic channels recover standard MaxEnt,
perfectly-observed-Y channels recover latent MaxEnt.

Both reductions are verified numerically rather than assumed: the standard
one by comparing the EM solution with the direct dual solve (plus the
vanishing extra gradient term of the full Lagrangian), the latent one as a
pointwise identity on E-step outputs.
"""

import json
from dataclasses import asdict, dataclass

import numpy as np

from .dual import SolverConfig, TargetExpectations, minimize_dual
from .em import EmConfig, UMaxEntProblem, e_step, em_solve
from .errors import DimensionMismatch, PreconditionViolated, ValidationError, ZeroMarginal
from .model import (
    Distribution,
    EmpiricalObservations,
    ElementSpace,
    ObservationChannel,
    Weights,
    feature_expectation,
    log_linear_distribution,
)


@dataclass
class DeterminismReport:
    """Whether posteriors are point masses for the given model, and whether
    the channel's disjoint column supports make that hold for every model."""

    point_mass_posteriors: bool
    model_independent: bool

    def __bool__(self):
        return self.point_mass_posteriors


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


def is_deterministic_channel(channel, model, atol=1e-12):
    """Test whether each observation pins down a single element.

    Checks that every posterior under the given model is a point mass
    (entries within atol of 0 or 1); observations with zero marginal are
    vacuous. Also reports whether the channel's column supports are
    disjoint, in which case the property holds for every model.
    Only the nonzero channel entries are visited: the others give
    posterior 0.
    """
    rows, cols, v = _support(channel)
    p = model.probs
    marg = channel.matvec(p)
    disjoint = _at_most_one_per_row(rows, channel.n_observations)
    live = marg[rows] > 0
    post = v[live] * p[cols[live]] / marg[rows[live]]
    point_mass = bool(np.all((post < atol) | (np.abs(post - 1.0) < atol)))
    return DeterminismReport(point_mass, disjoint)


def solve_standard_maxent(empirical_x, features, config=None):
    """Standard MaxEnt: match the directly observed empirical expectations."""
    target = TargetExpectations(feature_expectation(empirical_x, features))
    return minimize_dual(target, features, config=config or SolverConfig())


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

    def to_json(self):
        return json.dumps(asdict(self), indent=2)


def induced_empirical_x(problem):
    """Merge observation mass onto the unique supporting element per observation."""
    channel = problem.channel
    rows, cols, _ = _support(channel)
    if not _at_most_one_per_row(rows, channel.n_observations):
        raise PreconditionViolated("channel columns do not have disjoint supports")
    tilde = problem.empirical.probs
    return Distribution(np.bincount(cols, weights=tilde[rows], minlength=channel.n_elements))


def verify_maxent_reduction(problem, config=None, n_random_lambda=100, seed=0):
    """Check that EM on a deterministic channel matches the direct dual solve.

    Reports the total-variation distance between the two solutions and the
    sup-norm of the Lagrangian's extra gradient term at random weights.
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
    for _ in range(n_random_lambda):
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

    embed maps valid (y_index, z_index) pairs injectively onto element
    indices and must cover the whole element set.
    """

    y_space: tuple
    z_space: tuple
    embed: dict  # (y_idx, z_idx) -> element index
    n_elements: int

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
        y_of.setflags(write=False)
        object.__setattr__(self, "y_space", y_space)
        object.__setattr__(self, "z_space", z_space)
        object.__setattr__(self, "embed", embed)
        object.__setattr__(self, "n_elements", n_elements)
        object.__setattr__(self, "_y_of", y_of)

    def y_of_element(self):
        """Element index -> Y index lookup (read-only)."""
        return self._y_of

    def y_channel(self):
        """Channel with Omega = Y: Pr(omega | X) = 1 iff X's Y part is omega."""
        matrix = np.zeros((len(self.y_space), self.n_elements))
        matrix[self.y_of_element(), np.arange(self.n_elements)] = 1.0
        return ObservationChannel(matrix, observation_names=self.y_space)


def latent_constraint_rhs(fact, empirical_y, model, features):
    """Right-hand side of the latent MaxEnt constraints under the given model.

    rhs_k = sum_Y Pr~(Y) sum_{Z in Z_Y} Pr(Z | Y) phi_k(X), with
    Pr(Z | Y) the model's conditional over completions of Y: each element
    carries Pr~(Y) Pr(X) / Pr(Y) for its own Y.
    """
    if features.n_elements != fact.n_elements:
        raise ValidationError("feature table does not match factorization size")
    if len(empirical_y) != len(fact.y_space):
        raise DimensionMismatch("Y values", len(fact.y_space), len(empirical_y))
    y = fact.y_of_element()
    p = model.probs
    mass = np.bincount(y, weights=p, minlength=len(empirical_y))
    lost = np.flatnonzero((mass <= 0) & (empirical_y.probs > 0))
    if lost.size:
        raise ZeroMarginal(int(lost[0]))
    mass = mass[y]
    cond = np.divide(p, mass, out=np.zeros_like(p), where=mass > 0)
    return features.values @ (empirical_y.probs[y] * cond)


def verify_latent_reduction(fact, empirical_y, features, config=None,
                            n_models=100, seed=0, identity_atol=1e-12):
    """Check the latent reduction as a pointwise identity on E-step outputs.

    Builds the Y-observing channel, compares e_step against
    latent_constraint_rhs at random log-linear models, then runs EM and
    reports the converged residual.
    """
    config = config or EmConfig()
    channel = fact.y_channel()
    space = ElementSpace(range(fact.n_elements))
    problem = UMaxEntProblem(space, features, channel, EmpiricalObservations(empirical_y))

    rng = np.random.default_rng(seed)
    gap = 0.0
    for _ in range(n_models):
        lam = Weights(rng.uniform(-2, 2, size=features.n_features))
        model = log_linear_distribution(lam, features)
        lhs = e_step(problem, lam).phi_hat
        rhs = latent_constraint_rhs(fact, empirical_y, model, features)
        gap = max(gap, float(np.abs(lhs - rhs).max()))
    if gap > identity_atol:
        raise PreconditionViolated(
            f"latent identity violated: max gap {gap} exceeds {identity_atol}"
        )

    _, trace = em_solve(problem, config)
    return ReductionReport(
        "latent",
        residual=trace.rows[-1].residual,
        identity_gap=gap,
        iterations=len(trace) - 1,
    )
