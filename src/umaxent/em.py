"""EM loop for maximum entropy under a noisy observation channel.

The E-step turns empirical observation frequencies into corrected target
feature expectations under the current model; the M-step hands those
targets to the convex dual minimizer. The likelihood decomposition
(U* + Q + H) is tracked per iteration as a monotonicity audit.

The loop evaluates the model once per lambda (evaluate): the E-step
targets, the log-likelihood, the audit terms and the residual all come
from matrix-vector products with the channel C and with C log C. A channel
is read only through its matvec (C @ v), rmatvec (C^T @ v) and
xlogx_rmatvec ((C log C)^T @ v), so a factored channel such as a
classifier batch composed with a label map runs the same loop as a dense
one.

An observed omega with a zero channel row makes L -inf for every lambda, so
UMaxEntProblem rejects it when built; EM raises the same ZeroMarginal only
when the model's mass underflows.
"""

import csv
import io
import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .dual import SolverConfig, TargetExpectations, minimize_dual
from .errors import DimensionMismatch, ZeroMarginal
from .model import (
    Distribution,
    EmpiricalObservations,
    FeatureTable,
    ObservationChannel,
    Weights,
    log_linear,
    log_partition,
)

logger = logging.getLogger(__name__)

# init_mode "random" draws each initial weight uniformly from +-INIT_SCALE.
INIT_SCALE = 0.1
# Inexact M-step: each one runs to min(inner.grad_tol, GRAD_TOL_SHARE * residual).
GRAD_TOL_SHARE = 0.1


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
        dead = (self.empirical.probs > 0) & (self.channel.matvec(np.ones(n)) <= 0)
        if np.any(dead):
            raise ZeroMarginal(int(np.argmax(dead)), "has mass but no element can produce it")


@dataclass
class EmConfig:
    """EM settings. lambda_tol bounds the residual |F p - phi_hat(lambda)|_inf,
    the log-likelihood gradient, at which em_solve stops converged."""

    lambda_tol: float = 1e-6
    max_em_iter: int = 500
    inner: SolverConfig = field(default_factory=SolverConfig)
    init_mode: str = "zero"  # zero | random | prior
    seed: int = 0
    prior: Distribution = None

    def __post_init__(self):
        if not self.lambda_tol > 0:
            raise ValueError("lambda_tol must be positive")
        if self.max_em_iter < 0:
            raise ValueError("max_em_iter must be nonnegative")
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


@dataclass(frozen=True, eq=False)
class _Evaluation:
    """Everything EM reads from the model at one lambda.

    With m = C p and r = w / m (w the empirical mass, r = 0 where w = 0):
    mix = p * C^T r is the posterior-averaged distribution over X,
    phi_hat = F mix, L = w . log m, U* = p . ((C log C)^T r) and
    H = -U* - mix . log p + L; none needs the |Omega| x |X| posterior matrix.
    """

    log_z: float
    phi_hat: np.ndarray
    loglik: float
    u_star: float
    h: float
    residual: float


def _reweight(problem, p):
    """(m, observed, r, mix) for a model distribution p over X; observed marks the
    observations with empirical mass, whose marginal is zero only on underflow."""
    channel = problem.channel
    marg = channel.matvec(p)
    w = problem.empirical.probs
    observed = w > 0
    dead = observed & (marg <= 0)
    if np.any(dead):
        raise ZeroMarginal(int(np.flatnonzero(dead)[0]))
    r = np.divide(w, marg, out=np.zeros_like(w), where=observed)
    mix = p * channel.rmatvec(r)
    return marg, observed, r, mix


def evaluate(problem, weights):
    """One pass over the model at lambda: E-step targets, likelihood, audit terms, residual."""
    p, log_p, log_z = log_linear(weights.lam, problem.features)
    marg, observed, r, mix = _reweight(problem, p)

    values = problem.features.values
    phi_hat = values @ mix
    loglik = float(problem.empirical.probs[observed] @ np.log(marg[observed]))
    u_star = float(p @ problem.channel.xlogx_rmatvec(r))
    h = -u_star - float(mix @ log_p) + loglik
    residual = float(np.abs(values @ p - phi_hat).max())
    return _Evaluation(log_z, phi_hat, loglik, u_star, h, residual)


def _q(log_z, weights, phi_hat_prev):
    """Q(lambda | lambda_prev) = -log Z(lambda) + lambda . phi_hat(lambda_prev)."""
    return float(-log_z + weights.lam @ phi_hat_prev)


def e_step(problem, current, model=None):
    """Corrected target expectations under the current model.

    phi_hat_k = sum_omega Pr~(omega) sum_X Pr(X | omega) phi_k(X).
    A model distribution may be passed directly in place of the weights
    (used for prior-seeded first iterations).
    """
    if model is None:
        return TargetExpectations(evaluate(problem, current).phi_hat)
    if len(model) != problem.features.n_elements:
        raise DimensionMismatch("elements", problem.features.n_elements, len(model))
    mix = _reweight(problem, model.probs)[-1]
    return TargetExpectations(problem.features.values @ mix)


def log_likelihood(problem, weights):
    """L(lambda) = sum_omega Pr~(omega) log Pr_lambda(omega).

    L is -inf when an observation with empirical mass gets zero model
    marginal, which happens only when the model's mass underflows.
    """
    try:
        return evaluate(problem, weights).loglik
    except ZeroMarginal:
        return -np.inf


def likelihood_decomposition(problem, weights, weights_prev):
    """(U_star, Q, H) for the EM lower bound U* + Q + H <= L(lambda).

    Posteriors come from weights_prev; Q alone depends on weights.
    Terms with zero posterior contribute zero even when log Pr(omega|X)
    is -inf.
    """
    prev = evaluate(problem, weights_prev)
    q = _q(log_partition(weights, problem.features), weights, prev.phi_hat)
    return prev.u_star, q, prev.h


def constraint_residual(problem, weights):
    """Sup-norm gap between model expectations and the E-step targets at the same weights."""
    return evaluate(problem, weights).residual


def _initial_weights(problem, config):
    k = problem.features.n_features
    if config.init_mode == "random":
        rng = np.random.default_rng(config.seed)
        return Weights(rng.uniform(-INIT_SCALE, INIT_SCALE, size=k))
    return Weights(np.zeros(k))


def em_solve(problem, config=None):
    """Run EM to a fixed point of the model-dependent constraints.

    Each iteration is one M-step on the targets of the last evaluation and
    one evaluation at the new weights, which gives the next targets and the
    trace row's log-likelihood, audit terms and residual. Under init_mode
    "prior" the first targets are the E-step under the prior.

    The one stopping test, residual <= lambda_tol, is checked at every
    accepted lambda, row 0 included; it ends the run converged with
    termination "residual". An M-step that returns its input unchanged ends
    it unconverged with "stalled" and no new row; the iteration budget ends
    it with "max_em_iter". Returns (Weights, EmTrace).
    """
    config = config or EmConfig()
    lam = _initial_weights(problem, config)
    trace = EmTrace()

    ev = evaluate(problem, lam)
    target = TargetExpectations(ev.phi_hat)
    if config.init_mode == "prior":
        target = e_step(problem, lam, model=config.prior)
    trace.rows.append(EmIteration(
        0, np.array(lam.lam), np.array(target.phi_hat), ev.loglik,
        _q(ev.log_z, lam, ev.phi_hat), ev.h, ev.u_star, ev.residual, 0,
    ))

    t = 0
    while ev.residual > config.lambda_tol and t < config.max_em_iter:
        t += 1
        inner = replace(
            config.inner, grad_tol=min(config.inner.grad_tol, GRAD_TOL_SHARE * ev.residual))
        result = minimize_dual(target, problem.features, init=lam, config=inner)
        lam_new = result.weights
        if np.array_equal(lam_new.lam, lam.lam):
            trace.termination = "stalled"
            logger.warning("EM stalled at iteration %d: the M-step left lambda unchanged", t)
            return lam, trace
        ev_new = evaluate(problem, lam_new)
        # The bound's U* and H are taken at the previous weights, Q at the new ones.
        trace.rows.append(EmIteration(
            t, np.array(lam_new.lam), np.array(target.phi_hat), ev_new.loglik,
            _q(ev_new.log_z, lam_new, ev.phi_hat), ev.h, ev.u_star, ev_new.residual,
            result.iterations,
        ))
        lam, ev, target = lam_new, ev_new, TargetExpectations(ev_new.phi_hat)

    trace.converged = ev.residual <= config.lambda_tol
    trace.termination = "residual" if trace.converged else "max_em_iter"
    if not trace.converged:
        logger.warning("EM stopped after %d iterations without converging", t)
    return lam, trace
