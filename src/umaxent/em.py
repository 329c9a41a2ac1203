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
    log_partition,
    scores,
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


@dataclass(frozen=True, eq=False)
class _Evaluation:
    """Everything EM reads from the model at one lambda.

    With m = C p and r = w / m (w the renormalized empirical mass on the
    active observations): mix = p * C^T r is the posterior-averaged
    distribution over X, phi_hat = F mix, L = w . log m,
    U* = p . ((C log C)^T r) and H = -U* - mix . log p + L. None of these
    needs the |Omega| x |X| posterior matrix. u_star and h are None when
    the evaluation was made without the audit.
    """

    log_z: float
    active: np.ndarray
    phi_hat: np.ndarray
    loglik: float
    u_star: float
    h: float
    residual: float


def _reweight(problem, p, zero_marginal):
    """(m, active, w, r, mix) for a model distribution p over X.

    Observations with empirical mass but zero model marginal either raise
    or (policy "skip") are dropped from the active mask with a warning.
    """
    channel = problem.channel
    marg = channel.matvec(p)
    tilde = problem.empirical.probs
    active = tilde > 0
    dead = active & (marg <= 0)
    if np.any(dead):
        if zero_marginal != "skip":
            raise ZeroMarginal(int(np.flatnonzero(dead)[0]))
        logger.warning(
            "dropping %d observation(s) with empirical mass but zero model marginal",
            int(dead.sum()),
        )
        active &= marg > 0
    w = tilde * active
    total = w.sum()
    if total <= 0:
        raise ValidationError("no observations remain after dropping zero-marginal ones")
    w = w / total
    r = np.divide(w, marg, out=np.zeros_like(w), where=active)
    mix = p * channel.rmatvec(r)
    return marg, active, w, r, mix


def evaluate(problem, weights, zero_marginal="error", audit=False):
    """One pass over the model at lambda: E-step targets, likelihood, audit terms, residual.

    With audit the U* and H terms are computed too (one more product, with
    C log C); without it u_star and h are None.
    log p is taken from the scores, so elements whose probability underflows
    keep a finite log.
    """
    s = scores(weights, problem.features)
    shift = s.max()
    s = s - shift
    e = np.exp(s)
    z = e.sum()
    p = e / z
    log_p = s - np.log(z)
    log_z = float(shift + np.log(z))
    marg, active, w, r, mix = _reweight(problem, p, zero_marginal)

    values = problem.features.values
    phi_hat = values @ mix
    loglik = float(w[active] @ np.log(marg[active]))
    u_star = h = None
    if audit:
        u_star = float(p @ problem.channel.xlogx_rmatvec(r))
        h = -u_star - float(mix @ log_p) + loglik
    residual = float(np.abs(values @ p - phi_hat).max())
    return _Evaluation(log_z, active, phi_hat, loglik, u_star, h, residual)


def _q(log_z, weights, phi_hat_prev):
    """Q(lambda | lambda_prev) = -log Z(lambda) + lambda . phi_hat(lambda_prev)."""
    return float(-log_z + weights.lam @ phi_hat_prev)


def e_step(problem, current, zero_marginal="error", model=None):
    """Corrected target expectations under the current model.

    phi_hat_k = sum_omega Pr~(omega) sum_X Pr(X | omega) phi_k(X).
    A model distribution may be passed directly in place of the weights
    (used for prior-seeded first iterations).
    """
    if model is None:
        return TargetExpectations(evaluate(problem, current, zero_marginal).phi_hat)
    if len(model) != problem.features.n_elements:
        raise DimensionMismatch("elements", problem.features.n_elements, len(model))
    mix = _reweight(problem, model.probs, zero_marginal)[-1]
    return TargetExpectations(problem.features.values @ mix)


def log_likelihood(problem, weights, zero_marginal="error"):
    """L(lambda) = sum_omega Pr~(omega) log Pr_lambda(omega).

    An observation with empirical mass but zero model marginal makes L
    -inf; under policy "skip" it is dropped instead and the remaining
    empirical mass renormalized, as in likelihood_decomposition.
    """
    try:
        return evaluate(problem, weights, zero_marginal).loglik
    except ZeroMarginal:
        return -np.inf


def likelihood_decomposition(problem, weights, weights_prev, zero_marginal="error"):
    """(U_star, Q, H) for the EM lower bound U* + Q + H <= L(lambda).

    Posteriors come from weights_prev; Q alone depends on weights.
    Terms with zero posterior contribute zero even when log Pr(omega|X)
    is -inf.
    """
    prev = evaluate(problem, weights_prev, zero_marginal, audit=True)
    q = _q(log_partition(weights, problem.features), weights, prev.phi_hat)
    return prev.u_star, q, prev.h


def constraint_residual(problem, weights, zero_marginal="error"):
    """Sup-norm gap between model expectations and the E-step targets at the same weights."""
    return evaluate(problem, weights, zero_marginal).residual


def _initial_weights(problem, config, seed=None):
    k = problem.features.n_features
    if config.init_mode == "random":
        rng = np.random.default_rng(config.seed if seed is None else seed)
        return Weights(rng.uniform(-config.init_scale, config.init_scale, size=k))
    return Weights(np.zeros(k))


def em_solve(problem, config=None):
    """Run EM to a fixed point of the model-dependent constraints.

    Each iteration is one M-step on the targets of the last evaluation and
    one evaluation at the new weights, which gives the next targets and the
    trace row's log-likelihood, audit terms and residual. Under init_mode
    "prior" the first targets are the E-step under the prior.
    Returns (Weights, EmTrace).
    """
    config = config or EmConfig()
    if config.restarts > 1:
        best = None
        for i in range(config.restarts):
            cfg = EmConfig(**{**config.__dict__, "restarts": 1,
                              "init_mode": "random", "seed": config.seed + i})
            w, tr = em_solve(problem, cfg)
            if best is None or tr.rows[-1].loglik > best[1].rows[-1].loglik:
                best = (w, tr)
        return best

    lam = _initial_weights(problem, config)
    trace = EmTrace()

    ev = evaluate(problem, lam, config.zero_marginal, audit=True)
    target = TargetExpectations(ev.phi_hat)
    if config.init_mode == "prior":
        target = e_step(problem, lam, config.zero_marginal, model=config.prior)
    trace.rows.append(EmIteration(
        0, np.array(lam.lam), np.array(target.phi_hat), ev.loglik,
        _q(ev.log_z, lam, ev.phi_hat), ev.h, ev.u_star, ev.residual, 0,
    ))

    for t in range(1, config.max_em_iter + 1):
        result = minimize_dual(target, problem.features, init=lam, config=config.inner)
        lam_new = result.weights
        ev_new = evaluate(problem, lam_new, config.zero_marginal, audit=True)
        # The bound's U* and H are taken at the previous weights, Q at the new ones.
        trace.rows.append(EmIteration(
            t, np.array(lam_new.lam), np.array(target.phi_hat), ev_new.loglik,
            _q(ev_new.log_z, lam_new, ev.phi_hat), ev.h, ev.u_star, ev_new.residual,
            result.iterations,
        ))

        lam_change = float(np.abs(lam_new.lam - lam.lam).max())
        lik_change = abs(ev_new.loglik - ev.loglik)
        lam, ev, target = lam_new, ev_new, TargetExpectations(ev_new.phi_hat)
        if (lam_change <= config.lambda_tol or lik_change <= config.likelihood_tol) \
                and ev.residual <= 10 * config.lambda_tol:
            trace.converged = True
            trace.termination = (
                "lambda_tol" if lam_change <= config.lambda_tol else "likelihood_tol"
            )
            return lam, trace

    trace.converged = False
    trace.termination = "max_em_iter"
    logger.warning("EM stopped after %d iterations without converging", config.max_em_iter)
    return lam, trace
