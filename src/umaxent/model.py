"""Core data types and probability computations for finite log-linear models.

All distributions live on a finite element set. Products of small
probabilities are handled in log space (log-sum-exp with max shift) so
nothing here overflows or underflows at desk scale.
"""

from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

from .errors import DimensionMismatch, ValidationError

# Constructors accept this much normalization drift and renormalize exactly.
NORMALIZATION_SLACK = 1e-9


def is_integer(value):
    """An int or a numpy integer; a bool or a float is not one."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _as_float_array(values, name, ndim):
    """A private float64 copy of values, checked for shape and finite entries."""
    arr = np.array(values, dtype=float)
    if arr.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class FeatureTable:
    """K x |X| matrix of real-valued features (sufficient statistics); its
    column count is the problem's |X|."""

    values: np.ndarray

    def __init__(self, values):
        values = _as_float_array(values, "feature values", 2)
        if values.shape[0] < 1:
            raise ValidationError("need at least one feature")
        if values.shape[1] < 1:
            raise ValidationError("need at least one element")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n_features(self):
        return self.values.shape[0]

    @property
    def n_elements(self):
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class Weights:
    """Log-linear weight vector, one entry per feature."""

    lam: np.ndarray

    def __init__(self, lam):
        lam = _as_float_array(lam, "weights", 1)
        lam.setflags(write=False)
        object.__setattr__(self, "lam", lam)

    def __len__(self):
        return len(self.lam)


@dataclass(frozen=True, eq=False)
class Distribution:
    """A probability vector over a declared index set.

    Accepts input off-normalized by at most NORMALIZATION_SLACK and
    renormalizes exactly; larger violations are rejected.
    """

    probs: np.ndarray

    def __init__(self, probs):
        probs = _as_float_array(probs, "probabilities", 1)
        if np.any(probs < 0):
            raise ValidationError("probabilities must be nonnegative")
        total = probs.sum()
        if abs(total - 1.0) > NORMALIZATION_SLACK:
            raise ValidationError(f"probabilities sum to {total}, not 1")
        probs /= total
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    def __len__(self):
        return len(self.probs)

    @classmethod
    def uniform(cls, n):
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, n, index):
        p = np.zeros(n)
        p[index] = 1.0
        return cls(p)


@dataclass(frozen=True, eq=False)
class ObservationChannel:
    """Static observation function Pr(omega | X) as an |Omega| x |X| matrix.

    Each column (fixed X) is a distribution over observations.
    """

    matrix: np.ndarray

    def __init__(self, matrix):
        # One owned copy, normalized in place: a second |Omega| x |X| array
        # per channel fragments the heap of a process that loads many files.
        matrix = _as_float_array(matrix, "channel matrix", 2)
        if np.any(matrix < 0) or np.any(matrix > 1):
            raise ValidationError("channel entries must lie in [0, 1]")
        col_sums = matrix.sum(axis=0)
        bad = np.flatnonzero(np.abs(col_sums - 1.0) > NORMALIZATION_SLACK)
        if bad.size:
            raise ValidationError(
                f"channel column {bad[0]} sums to {col_sums[bad[0]]}, not 1"
            )
        matrix /= col_sums
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @property
    def n_observations(self):
        return self.matrix.shape[0]

    @property
    def n_elements(self):
        return self.matrix.shape[1]

    @classmethod
    def identity(cls, n):
        return cls(np.eye(n))

    # EM reads a channel only through these three products.
    def matvec(self, v):
        """C @ v."""
        return self.matrix @ v

    def rmatvec(self, v):
        """C^T @ v."""
        return self.matrix.T @ v

    def xlogx_rmatvec(self, v):
        """(C * log C)^T @ v, with 0 log 0 = 0."""
        return self._xlogx.T @ v

    @cached_property
    def _xlogx(self):
        """C * log C, the one other |Omega| x |X| array; built on first use, kept with C."""
        c = self.matrix
        out = np.zeros_like(c)
        np.log(c, out=out, where=c > 0)
        out *= c
        return out


def log_linear(lam, features):
    """(Pr, log Pr, log Z) at the weight array lam from one max-shifted pass over the
    scores sum_k lambda_k phi_k(X); log Pr stays finite where Pr underflows."""
    if len(lam) != features.n_features:
        raise DimensionMismatch("features", features.n_features, len(lam))
    s = lam @ features.values
    shift = s.max()
    s = s - shift
    e = np.exp(s)
    z = e.sum()
    return e / z, s - np.log(z), float(shift + np.log(z))


def log_partition(weights, features):
    """log Z(lambda) = log sum_X exp(sum_k lambda_k phi_k(X)), max-shifted."""
    return log_linear(weights.lam, features)[2]


def log_linear_distribution(weights, features):
    """Pr(X) = exp(sum_k lambda_k phi_k(X)) / Z(lambda)."""
    return Distribution(log_linear(weights.lam, features)[0])


def observation_marginal(model, channel):
    """Pr(omega) = sum_X Pr(omega | X) Pr(X)."""
    if len(model) != channel.n_elements:
        raise DimensionMismatch("elements", channel.n_elements, len(model))
    return Distribution(channel.matvec(model.probs))


def feature_expectation(dist, features):
    """E_dist[phi_k] for every feature k."""
    if len(dist) != features.n_elements:
        raise DimensionMismatch("elements", features.n_elements, len(dist))
    return features.values @ dist.probs
