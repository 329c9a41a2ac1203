"""Convex dual of the maximum-entropy program and its minimizer.

The dual objective is log Z(lambda) - sum_k lambda_k phi_hat_k; its
gradient is the gap between model and target feature expectations, so a
small gradient directly certifies the moment constraints.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InfeasibleTarget
from .model import Weights, log_linear

# Feasibility slack for the per-coordinate bounds check.
_FEASIBILITY_EPS = 1e-9

# Armijo line search: a step is accepted once the dual falls by this share
# of its predicted decrease, and halved otherwise, down to _MIN_STEP.
_SUFFICIENT_DECREASE = 1e-4
_BACKTRACK = 0.5
_MIN_STEP = 1e-18
# Rounding error of a computed dual value relative to the size of its terms:
# a few units in the last place each for the log-sum-exp and the inner product.
_ROUNDING = 16 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class TargetExpectations:
    """Target feature-expectation vector for the moment constraints."""

    phi_hat: np.ndarray

    def __init__(self, phi_hat):
        phi_hat = np.asarray(phi_hat, dtype=float)
        if phi_hat.ndim != 1 or not np.all(np.isfinite(phi_hat)):
            raise ValueError("target expectations must be a finite vector")
        phi_hat.setflags(write=False)
        object.__setattr__(self, "phi_hat", phi_hat)

    def __len__(self):
        return len(self.phi_hat)


@dataclass
class SolverConfig:
    grad_tol: float = 1e-8
    max_iter: int = 10_000
    divergence_guard: float = 1e3

    def __post_init__(self):
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not self.divergence_guard > 0:
            raise ValueError("divergence_guard must be positive")


@dataclass
class SolverResult:
    weights: Weights
    dual_value: float
    grad_norm: float
    iterations: int
    converged: bool
    diverged: bool = False
    message: str = ""


def _check(target, features):
    if len(target) != features.n_features:
        raise DimensionMismatch("features", features.n_features, len(target))


def _evaluate(lam, target, features):
    """(dual value, gradient E[phi] - phi_hat, Hessian Cov(phi)) from one model evaluation."""
    p, _, log_z = log_linear(lam, features)
    mu = features.values @ p
    centered = features.values - mu[:, None]
    return log_z - lam @ target.phi_hat, mu - target.phi_hat, (centered * p) @ centered.T


def dual_value(weights, target, features):
    """log Z(lambda) - sum_k lambda_k phi_hat_k."""
    _check(target, features)
    return _evaluate(weights.lam, target, features)[0]


def dual_gradient(weights, target, features):
    """Gradient of the dual: E_lambda[phi] - phi_hat."""
    _check(target, features)
    return _evaluate(weights.lam, target, features)[1]


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
    If neither step moves, the solve stops unconverged.

    Converged means the gradient sup-norm (equivalently the constraint
    residual) dropped below config.grad_tol. Boundary or exterior targets
    show up as the divergence guard tripping or max_iter running out;
    the best iterate seen is returned either way.
    """
    config = config or SolverConfig()
    _check(target, features)
    _check_feasible(target, features)

    lam = np.zeros(features.n_features) if init is None else np.array(init.lam, dtype=float)
    f, grad, hess = _evaluate(lam, target, features)
    best_lam, best_f = lam, f
    size = np.abs(target.phi_hat)

    iterations = 0
    for iterations in range(1, config.max_iter + 1):
        gnorm = np.abs(grad).max()
        if gnorm <= config.grad_tol:
            return SolverResult(Weights(lam), f, gnorm, iterations - 1, True)
        if np.abs(lam).max() > config.divergence_guard:
            return SolverResult(
                Weights(best_lam),
                best_f,
                gnorm,
                iterations - 1,
                False,
                diverged=True,
                message=f"some |lambda_k| exceeded the divergence guard {config.divergence_guard}",
            )

        # f is log Z - lambda.phi_hat; its rounding error scales with both terms.
        noise = _ROUNDING * (abs(f) + np.abs(lam) @ size)
        newton = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        moved = (_step(lam, f, grad, newton, noise, target, features)
                 or _step(lam, f, grad, -grad, noise, target, features))
        if moved is None:
            return SolverResult(
                Weights(best_lam), best_f, gnorm, iterations, False,
                message="no Newton or steepest-descent step lowers the dual value "
                        "or, below its rounding, the gradient",
            )
        lam, f, grad, hess = moved
        if f <= best_f + noise:
            best_lam, best_f = lam, f

    gnorm = np.abs(grad).max()
    if gnorm <= config.grad_tol:
        return SolverResult(Weights(lam), f, gnorm, iterations, True)
    return SolverResult(
        Weights(best_lam), best_f, gnorm, iterations, False,
        diverged=bool(np.abs(best_lam).max() > config.divergence_guard),
        message="max_iter exceeded",
    )
