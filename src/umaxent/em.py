"""EM loop for maximum entropy under a noisy observation channel.

The E-step turns empirical observation frequencies into corrected target
feature expectations under the current model; the M-step hands those
targets to the convex dual minimizer. The likelihood decomposition
(U* + Q + H) is tracked per iteration as a monotonicity audit.

evaluate is the one evaluation of the model at lambda, and the public
entry point to each quantity: its Evaluation gives the E-step targets
phi_hat, the log-likelihood loglik, the audit terms u_star and h, and the
residual. All come from matrix-vector products with the channel C and
with C log C. A channel is read only through its matvec (C @ v), rmatvec
(C^T @ v) and xlogx_rmatvec ((C log C)^T @ v), so a factored channel such
as a classifier batch composed with a label map runs the same loop as a
dense one. likelihood_decomposition adds Q, which is taken at a second
lambda.

An observed omega with a zero channel row makes L -inf for every lambda, so
UMaxEntProblem rejects it when built; EM raises the same ZeroMarginal only
when the model's mass underflows.
"""

import csv
import io
import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .dual import SolverConfig, TargetExpectations, minimize_dual, solve_standard_maxent
from .errors import DimensionMismatch, ValidationError, ZeroMarginal
from .model import (
    Distribution,
    FeatureTable,
    ObservationChannel,
    Weights,
    is_integer,
    log_linear,
    log_partition,
)

logger = logging.getLogger(__name__)

# Each M-step runs to min(inner.grad_tol, GRAD_TOL_SHARE * residual). This never
# loosens grad_tol; it only keeps the solver tolerance from putting a floor under
# the residual EM can reach.
GRAD_TOL_SHARE = 0.1


@dataclass(frozen=True, eq=False)
class UMaxEntProblem:
    """Features over the finite element set X, a channel Pr(omega | X) and the
    empirical distribution of observations Pr~(omega). features.n_elements is |X|."""

    features: FeatureTable
    channel: ObservationChannel
    empirical: Distribution

    def __post_init__(self):
        n = self.features.n_elements
        if self.channel.n_elements != n:
            raise DimensionMismatch("elements", n, self.channel.n_elements)
        if len(self.empirical) != self.channel.n_observations:
            raise DimensionMismatch(
                "observations", self.channel.n_observations, len(self.empirical)
            )
        dead = (self.empirical.probs > 0) & (self.channel.matvec(np.ones(n)) <= 0)
        if np.any(dead):
            raise ZeroMarginal(int(np.argmax(dead)), "has mass but no element can produce it")


@dataclass
class EmConfig:
    """EM settings. lambda_tol bounds the residual |F p - phi_hat(lambda)|_inf,
    the log-likelihood gradient, at which em_solve stops converged. EM starts
    at lambda = 0, the uniform model, or, when prior is given, at the prior's
    M-projection: the log-linear model whose feature expectations equal the
    prior's. prior=log_linear_distribution(Weights(lam), features) starts at lam."""

    lambda_tol: float = 1e-6
    max_em_iter: int = 500
    inner: SolverConfig = field(default_factory=SolverConfig)
    prior: Distribution = None

    def __post_init__(self):
        if not self.lambda_tol > 0:
            raise ValidationError("lambda_tol must be positive")
        if not is_integer(self.max_em_iter):
            raise ValidationError(f"max_em_iter must be an integer, not {self.max_em_iter!r}")
        if self.max_em_iter < 0:
            raise ValidationError("max_em_iter must be nonnegative")


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
    termination: str = ""

    @property
    def converged(self):
        return self.termination == "residual"

    def __len__(self):
        return len(self.rows)

    def logliks(self):
        return np.array([r.loglik for r in self.rows])

    def to_csv(self, path):
        """Write to_csv_string() to path."""
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv_string())

    def to_csv_string(self):
        """The trace as CSV (17 significant digits per value)."""
        k = len(self.rows[0].lam) if self.rows else 0
        buf = io.StringIO()
        writer = csv.writer(buf)
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
        return buf.getvalue()


@dataclass(frozen=True, eq=False)
class Evaluation:
    """Everything EM reads from the model at one lambda.

    phi_hat_k = sum_omega Pr~(omega) sum_X Pr(X | omega) phi_k(X) are the
    E-step targets, loglik = L(lambda) = sum_omega Pr~(omega) log Pr(omega),
    u_star and h the audit terms of U* + Q + H <= L, and residual the
    sup-norm |F p - phi_hat|, the gradient of L. With m = C p and r = w / m
    (w the empirical mass, r = 0 where w = 0): mix = p * C^T r is the
    posterior-averaged distribution over X, phi_hat = F mix, L = w . log m,
    U* = p . ((C log C)^T r) and H = -U* - mix . log p + L; none needs the
    |Omega| x |X| posterior matrix.
    """

    log_z: float
    phi_hat: np.ndarray
    loglik: float
    u_star: float
    h: float
    residual: float


def evaluate(problem, weights):
    """One pass over the model at lambda: E-step targets, likelihood, audit terms, residual.

    Only the observations with empirical mass enter; their marginal is zero
    only when the model's mass underflows, and then ZeroMarginal is raised.
    """
    p, log_p, log_z = log_linear(weights.lam, problem.features)
    channel = problem.channel
    marg = channel.matvec(p)
    w = problem.empirical.probs
    observed = w > 0
    dead = observed & (marg <= 0)
    if np.any(dead):
        raise ZeroMarginal(int(np.flatnonzero(dead)[0]))
    r = np.divide(w, marg, out=np.zeros_like(w), where=observed)
    mix = p * channel.rmatvec(r)

    values = problem.features.values
    phi_hat = values @ mix
    loglik = float(w[observed] @ np.log(marg[observed]))
    u_star = float(p @ channel.xlogx_rmatvec(r))
    h = -u_star - float(mix @ log_p) + loglik
    residual = float(np.abs(values @ p - phi_hat).max())
    return Evaluation(log_z, phi_hat, loglik, u_star, h, residual)


def _q(log_z, weights, phi_hat_prev):
    """Q(lambda | lambda_prev) = -log Z(lambda) + lambda . phi_hat(lambda_prev)."""
    return float(-log_z + weights.lam @ phi_hat_prev)


def likelihood_decomposition(problem, weights, weights_prev):
    """(U_star, Q, H) for the EM lower bound U* + Q + H <= L(lambda).

    Posteriors come from weights_prev; Q alone depends on weights.
    Terms with zero posterior contribute zero even when log Pr(omega|X)
    is -inf.
    """
    prev = evaluate(problem, weights_prev)
    q = _q(log_partition(weights, problem.features), weights, prev.phi_hat)
    return prev.u_star, q, prev.h


def _initial_weights(problem, config):
    """lambda_0: zero, or the M-projection of config.prior when one is given."""
    if config.prior is not None:
        return solve_standard_maxent(config.prior, problem.features, config.inner).weights
    return Weights(np.zeros(problem.features.n_features))


def _row(t, lam, ev, ev_prev, inner_iterations):
    """Trace row t at lam, fitted to the targets of ev_prev. The bound's U* and H
    are taken at the previous weights, Q at lam; row 0 is its own previous."""
    return EmIteration(
        t, np.array(lam.lam), np.array(ev_prev.phi_hat), ev.loglik,
        _q(ev.log_z, lam, ev_prev.phi_hat), ev_prev.h, ev_prev.u_star, ev.residual,
        inner_iterations,
    )


def em_solve(problem, config=None):
    """Run EM to a fixed point of the model-dependent constraints.

    Each iteration is one M-step on the targets of the last evaluation and
    one evaluation at the new weights, which gives the next targets and the
    trace row's log-likelihood, audit terms and residual. Row 0 is the
    evaluation at the initial weights: lambda = 0, or the M-projection of
    config.prior when one is given.

    The one stopping test, residual <= lambda_tol, is checked at every
    accepted lambda, row 0 included; it ends the run converged with
    termination "residual". An M-step that returns its input unchanged ends
    it unconverged with "stalled" and no new row; the iteration budget ends
    it with "max_em_iter". Converged certifies a stationary point of L, not
    the global maximum. Returns (Weights, EmTrace).
    """
    config = config or EmConfig()
    lam = _initial_weights(problem, config)
    ev = evaluate(problem, lam)
    trace = EmTrace([_row(0, lam, ev, ev, 0)])

    t = 0
    while ev.residual > config.lambda_tol and t < config.max_em_iter:
        t += 1
        inner = replace(
            config.inner, grad_tol=min(config.inner.grad_tol, GRAD_TOL_SHARE * ev.residual))
        result = minimize_dual(
            TargetExpectations(ev.phi_hat), problem.features, init=lam, config=inner)
        if np.array_equal(result.weights.lam, lam.lam):
            trace.termination = "stalled"
            logger.warning("EM stalled at iteration %d: the M-step left lambda unchanged", t)
            return lam, trace
        ev_new = evaluate(problem, result.weights)
        trace.rows.append(_row(t, result.weights, ev_new, ev, result.iterations))
        lam, ev = result.weights, ev_new

    trace.termination = "residual" if ev.residual <= config.lambda_tol else "max_em_iter"
    if not trace.converged:
        logger.warning("EM stopped after %d iterations without converging", t)
    return lam, trace
