"""EM loop for maximum entropy under a noisy observation channel.

The E-step turns empirical observation frequencies into corrected target
feature expectations under the current model; the M-step hands those
targets to the convex dual minimizer. The likelihood decomposition
(U* + Q + H) is tracked per iteration as a monotonicity audit.
"""

import csv
import io
import logging
from dataclasses import dataclass, field

import numpy as np

from .dual import SolverConfig, TargetExpectations, minimize_dual
from .errors import DimensionMismatch, ValidationError, ZeroMarginal
from .model import (
    Distribution,
    EmpiricalObservations,
    FeatureTable,
    ObservationChannel,
    Weights,
    feature_expectation,
    log_linear_distribution,
    log_partition,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class UMaxEntProblem:
    space: object
    features: FeatureTable
    channel: ObservationChannel
    empirical: EmpiricalObservations

    def __post_init__(self):
        n = self.space.size
        if self.features.n_elements != n:
            raise DimensionMismatch("elements", n, self.features.n_elements)
        if self.channel.n_elements != n:
            raise DimensionMismatch("elements", n, self.channel.n_elements)
        if len(self.empirical.dist) != self.channel.n_observations:
            raise DimensionMismatch(
                "observations", self.channel.n_observations, len(self.empirical.dist)
            )


@dataclass
class EmConfig:
    lambda_tol: float = 1e-6
    likelihood_tol: float = 1e-10
    max_em_iter: int = 500
    inner: SolverConfig = field(default_factory=SolverConfig)
    init_mode: str = "zero"  # zero | random | prior
    seed: int = 0
    init_scale: float = 0.1
    prior: Distribution = None
    restarts: int = 1
    zero_marginal: str = "error"  # error | skip

    def __post_init__(self):
        if self.lambda_tol <= 0 or self.likelihood_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.init_mode not in ("zero", "random", "prior"):
            raise ValueError(f"unknown init_mode {self.init_mode!r}")
        if self.init_mode == "prior" and self.prior is None:
            raise ValueError("init_mode 'prior' needs a prior distribution")


@dataclass
class EmIteration:
    iteration: int
    lam: np.ndarray
    phi_hat: np.ndarray
    loglik: float
    q: float
    h: float
    u_star: float
    residual: float
    inner_iterations: int


@dataclass
class EmTrace:
    rows: list = field(default_factory=list)
    converged: bool = False
    termination: str = ""

    def __len__(self):
        return len(self.rows)

    def logliks(self):
        return np.array([r.loglik for r in self.rows])

    def to_csv(self, target):
        """Write the trace as CSV (17 significant digits per value)."""
        if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
            with open(target, "w", newline="") as fh:
                self.to_csv(fh)
            return
        k = len(self.rows[0].lam) if self.rows else 0
        writer = csv.writer(target)
        writer.writerow(
            ["iter", "loglik", "Q", "H", "U_star", "residual"]
            + [f"lambda_{i}" for i in range(k)]
        )
        for r in self.rows:
            writer.writerow(
                [r.iteration]
                + [format(v, ".17g") for v in (r.loglik, r.q, r.h, r.u_star, r.residual)]
                + [format(v, ".17g") for v in r.lam]
            )

    def to_csv_string(self):
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def _posteriors(problem, model, zero_marginal="error"):
    """Posterior matrix P[omega, X] plus the active-observation mask.

    Observations with empirical mass but zero model marginal either raise
    or (policy "skip") are dropped from the mask with a warning.
    """
    marg = problem.channel.matrix @ model.probs
    tilde = problem.empirical.probs
    active = tilde > 0
    dead = active & (marg <= 0)
    if np.any(dead):
        idx = int(np.flatnonzero(dead)[0])
        if zero_marginal == "skip":
            logger.warning(
                "dropping %d observation(s) with empirical mass but zero model marginal",
                int(dead.sum()),
            )
            active &= marg > 0
        else:
            raise ZeroMarginal(idx)
    post = np.zeros_like(problem.channel.matrix)
    ok = marg > 0
    post[ok] = problem.channel.matrix[ok] * model.probs / marg[ok, None]
    return post, active


def e_step(problem, current, zero_marginal="error", model=None):
    """Corrected target expectations under the current model.

    phi_hat_k = sum_omega Pr~(omega) sum_X Pr(X | omega) phi_k(X).
    A model distribution may be passed directly in place of the weights
    (used for prior-seeded first iterations).
    """
    if model is None:
        model = log_linear_distribution(current, problem.features)
    post, active = _posteriors(problem, model, zero_marginal)
    weights_omega = problem.empirical.probs * active
    total = weights_omega.sum()
    if total <= 0:
        raise ValidationError("no observations remain after dropping zero-marginal ones")
    weights_omega = weights_omega / total
    mix = post.T @ weights_omega  # Pr(X) averaged over posteriors
    return TargetExpectations(problem.features.values @ mix)


def log_likelihood(problem, weights, zero_marginal="error"):
    """L(lambda) = sum_omega Pr~(omega) log Pr_lambda(omega).

    An observation with empirical mass but zero model marginal makes L
    -inf; under policy "skip" it is dropped instead and the remaining
    empirical mass renormalized, as in likelihood_decomposition.
    """
    model = log_linear_distribution(weights, problem.features)
    marg = problem.channel.matrix @ model.probs
    tilde = problem.empirical.probs
    active = tilde > 0
    if np.any(active & (marg <= 0)):
        if zero_marginal != "skip":
            return -np.inf
        active &= marg > 0
        tilde = tilde / tilde[active].sum()
    return float(tilde[active] @ np.log(marg[active]))


def likelihood_decomposition(problem, weights, weights_prev, zero_marginal="error"):
    """(U_star, Q, H) for the EM lower bound U* + Q + H <= L(lambda).

    Posteriors come from weights_prev; Q alone depends on weights.
    Terms with zero posterior contribute zero even when log Pr(omega|X)
    is -inf.
    """
    model_prev = log_linear_distribution(weights_prev, problem.features)
    post, active = _posteriors(problem, model_prev, zero_marginal)
    tilde = problem.empirical.probs * active
    tilde = tilde / tilde.sum()

    with np.errstate(divide="ignore", invalid="ignore"):
        log_ch = np.where(post > 0, np.log(np.where(problem.channel.matrix > 0,
                                                    problem.channel.matrix, 1.0)), 0.0)
        plogp = np.where(post > 0, post * np.log(np.where(post > 0, post, 1.0)), 0.0)
    u_star = float(tilde @ (post * log_ch).sum(axis=1))
    h = -float(tilde @ plogp.sum(axis=1))

    mix = post.T @ tilde
    phi_hat = problem.features.values @ mix
    q = float(-log_partition(weights, problem.features) + weights.lam @ phi_hat)
    return u_star, q, h


def constraint_residual(problem, weights, zero_marginal="error"):
    """Sup-norm gap between model expectations and the E-step targets at the same weights."""
    model_exp = feature_expectation(
        log_linear_distribution(weights, problem.features), problem.features
    )
    target = e_step(problem, weights, zero_marginal=zero_marginal)
    return float(np.abs(model_exp - target.phi_hat).max())


def _initial_weights(problem, config, seed=None):
    k = problem.features.n_features
    if config.init_mode == "random":
        rng = np.random.default_rng(config.seed if seed is None else seed)
        return Weights(rng.uniform(-config.init_scale, config.init_scale, size=k))
    return Weights(np.zeros(k))


def em_solve(problem, config=None, e_step_fn=None):
    """Run EM to a fixed point of the model-dependent constraints.

    e_step_fn(problem, weights, model=...) may replace the standard E-step
    (the classifier bridge does this). Returns (Weights, EmTrace).
    """
    config = config or EmConfig()
    if config.restarts > 1:
        best = None
        for i in range(config.restarts):
            cfg = EmConfig(**{**config.__dict__, "restarts": 1,
                              "init_mode": "random", "seed": config.seed + i})
            w, tr = em_solve(problem, cfg, e_step_fn=e_step_fn)
            if best is None or tr.rows[-1].loglik > best[1].rows[-1].loglik:
                best = (w, tr)
        return best

    estep = e_step_fn or (lambda prob, w, model=None: e_step(
        prob, w, zero_marginal=config.zero_marginal, model=model))

    def residual_at(w):
        model_exp = feature_expectation(
            log_linear_distribution(w, problem.features), problem.features
        )
        return float(np.abs(model_exp - estep(problem, w).phi_hat).max())

    lam = _initial_weights(problem, config)
    trace = EmTrace()

    phi0 = estep(problem, lam,
                 model=config.prior if config.init_mode == "prior" else None)
    u0, q0, h0 = likelihood_decomposition(problem, lam, lam, config.zero_marginal)
    trace.rows.append(EmIteration(
        0, np.array(lam.lam), np.array(phi0.phi_hat),
        log_likelihood(problem, lam, config.zero_marginal),
        q0, h0, u0, residual_at(lam), 0,
    ))

    phi_hat = phi0
    loglik_prev = trace.rows[0].loglik
    for t in range(1, config.max_em_iter + 1):
        result = minimize_dual(phi_hat, problem.features, init=lam, config=config.inner)
        lam_new = result.weights
        loglik = log_likelihood(problem, lam_new, config.zero_marginal)
        u, q, h = likelihood_decomposition(problem, lam_new, lam, config.zero_marginal)
        residual = residual_at(lam_new)
        trace.rows.append(EmIteration(
            t, np.array(lam_new.lam), np.array(phi_hat.phi_hat),
            loglik, q, h, u, residual, result.iterations,
        ))

        lam_change = float(np.abs(lam_new.lam - lam.lam).max())
        lik_change = abs(loglik - loglik_prev)
        lam, loglik_prev = lam_new, loglik
        if (lam_change <= config.lambda_tol or lik_change <= config.likelihood_tol) \
                and residual <= 10 * config.lambda_tol:
            trace.converged = True
            trace.termination = (
                "lambda_tol" if lam_change <= config.lambda_tol else "likelihood_tol"
            )
            return lam, trace

        phi_hat = estep(problem, lam)

    trace.converged = False
    trace.termination = "max_em_iter"
    logger.warning("EM stopped after %d iterations without converging", config.max_em_iter)
    return lam, trace
