"""Convex dual of the maximum-entropy program and its minimizer.

The dual objective is log Z(lambda) - sum_k lambda_k phi_hat_k; its
gradient is the gap between model and target feature expectations, so a
small gradient directly certifies the moment constraints.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InfeasibleTarget, ValidationError
from .model import Weights, _as_float_array, feature_expectation, is_integer, log_linear

# Feasibility slack for the per-coordinate bounds check.
_FEASIBILITY_EPS = 1e-9

# Armijo line search: a step is accepted once the dual falls by this share
# of its predicted decrease, and halved otherwise, down to _MIN_STEP.
_SUFFICIENT_DECREASE = 1e-4
_BACKTRACK = 0.5
_MIN_STEP = 1e-18
# A solve stops, terminated "diverged", once some |lambda_k| passes this bound:
# a boundary or exterior target drives the weights toward infinity.
_DIVERGENCE_GUARD = 1e3
# Rounding error of a computed dual value relative to the size of its terms:
# a few units in the last place each for the log-sum-exp and the inner product.
_ROUNDING = 16 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class TargetExpectations:
    """Target feature-expectation vector for the moment constraints."""

    phi_hat: np.ndarray

    def __init__(self, phi_hat):
        phi_hat = _as_float_array(phi_hat, "target expectations", 1)
        phi_hat.setflags(write=False)
        object.__setattr__(self, "phi_hat", phi_hat)

    def __len__(self):
        return len(self.phi_hat)


@dataclass
class SolverConfig:
    grad_tol: float = 1e-8
    max_iter: int = 10_000

    def __post_init__(self):
        if not self.grad_tol > 0:
            raise ValidationError("grad_tol must be positive")
        if not is_integer(self.max_iter) or self.max_iter < 1:
            raise ValidationError(
                f"max_iter must be an integer of at least 1, not {self.max_iter!r}")


@dataclass
class SolverResult:
    """termination says why the solve stopped: "gradient" (converged), "diverged",
    "max_iter" or "no_step"."""

    weights: Weights
    dual_value: float
    grad_norm: float
    iterations: int
    termination: str

    @property
    def converged(self):
        return self.termination == "gradient"


def _check(target, features):
    if len(target) != features.n_features:
        raise DimensionMismatch("features", features.n_features, len(target))


def _evaluate(lam, target, features):
    """(dual value, gradient E[phi] - phi_hat, Hessian Cov(phi)) from one model evaluation."""
    p, _, log_z = log_linear(lam, features)
    mu = features.values @ p
    centered = features.values - mu[:, None]
    return log_z - lam @ target.phi_hat, mu - target.phi_hat, (centered * p) @ centered.T


def dual_objective(weights, target, features):
    """(dual value, gradient, Hessian) at weights: log Z(lambda) - lambda . phi_hat,
    E_lambda[phi] - phi_hat and Cov_lambda(phi)."""
    _check(target, features)
    return _evaluate(weights.lam, target, features)


def _check_feasible(target, features):
    lo = features.values.min(axis=1)
    hi = features.values.max(axis=1)
    for k, v in enumerate(target.phi_hat):
        if v < lo[k] - _FEASIBILITY_EPS or v > hi[k] + _FEASIBILITY_EPS:
            raise InfeasibleTarget(k, v, lo[k], hi[k])


def _step(lam, f, grad, direction, noise, target, features):
    """(lambda, f, gradient, Hessian) after a step along direction, or None.

    Armijo backtracking accepts a step that lowers the dual enough. When
    the predicted decrease -grad.direction is within the rounding noise of
    f, f cannot tell a decrease, so the full step is taken only if it
    shrinks the gradient sup-norm.
    """
    slope = grad @ direction
    if -slope <= noise:
        trial = lam + direction
        moved = _evaluate(trial, target, features)
        if np.abs(moved[1]).max() >= np.abs(grad).max():
            return None
        return (trial, *moved)
    step = 1.0
    while step >= _MIN_STEP:
        trial = lam + step * direction
        moved = _evaluate(trial, target, features)
        if moved[0] <= f + _SUFFICIENT_DECREASE * step * slope:
            return (trial, *moved)
        step *= _BACKTRACK
    return None


def minimize_dual(target, features, init=None, config=None):
    """Minimize the dual by damped Newton steps.

    The Hessian is Cov_lambda(phi). Each step is the minimum-norm
    least-squares solution of Cov_lambda(phi) d = -gradient, so weights
    along constant or collinear feature directions keep their initial
    values, and Armijo backtracking damps it (see _step for steps below
    the rounding of the dual value). Where the Newton step finds no
    descent, a steepest-descent step is tried instead: far from the
    solution the model can be nearly a point mass, and the Hessian then
    loses numerical rank along directions where the gradient is large.
    If neither step moves, the solve stops unconverged with termination
    "no_step".

    Converged (termination "gradient") means the gradient sup-norm
    (equivalently the constraint residual) dropped below config.grad_tol.
    Boundary or exterior targets show up as some |lambda_k| passing
    _DIVERGENCE_GUARD (1e3), which stops the solve "diverged", or as
    config.max_iter running out ("max_iter"); the last iterate is returned
    on every exit.
    """
    config = config or SolverConfig()
    _check(target, features)
    _check_feasible(target, features)

    lam = np.zeros(features.n_features) if init is None else np.array(init.lam, dtype=float)
    f, grad, hess = _evaluate(lam, target, features)
    size = np.abs(target.phi_hat)

    for iterations in range(config.max_iter + 1):
        gnorm = np.abs(grad).max()
        if gnorm <= config.grad_tol:
            return SolverResult(Weights(lam), f, gnorm, iterations, "gradient")
        if np.abs(lam).max() > _DIVERGENCE_GUARD:
            return SolverResult(Weights(lam), f, gnorm, iterations, "diverged")
        if iterations == config.max_iter:
            return SolverResult(Weights(lam), f, gnorm, iterations, "max_iter")

        # f is log Z - lambda.phi_hat; its rounding error scales with both terms.
        noise = _ROUNDING * (abs(f) + np.abs(lam) @ size)
        newton = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        moved = (_step(lam, f, grad, newton, noise, target, features)
                 or _step(lam, f, grad, -grad, noise, target, features))
        if moved is None:
            # no Newton or steepest-descent step lowers the dual value or,
            # below its rounding, the gradient
            return SolverResult(Weights(lam), f, gnorm, iterations + 1, "no_step")
        lam, f, grad, hess = moved


def solve_standard_maxent(empirical_x, features, config=None):
    """Standard MaxEnt, the direct dual solve: match the expectations of empirical_x.

    Its weights are the M-projection of empirical_x onto the log-linear family.
    """
    target = TargetExpectations(feature_expectation(empirical_x, features))
    return minimize_dual(target, features, config=config)
