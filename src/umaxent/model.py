"""Core data types and probability computations for finite log-linear models.

All distributions live on a finite element set. Products of small
probabilities are handled in log space (log-sum-exp with max shift) so
nothing here overflows or underflows at desk scale.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, ValidationError

# Constructors accept this much normalization drift and renormalize exactly.
NORMALIZATION_SLACK = 1e-9


def _as_float_array(values, name, ndim):
    arr = np.asarray(values, dtype=float)
    if arr.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class ElementSpace:
    """The finite set of model elements, in a fixed order."""

    elements: tuple

    def __init__(self, elements):
        elements = tuple(elements)
        if len(elements) < 1:
            raise ValidationError("element space must contain at least one element")
        if len(set(elements)) != len(elements):
            raise ValidationError("element identifiers must be unique")
        object.__setattr__(self, "elements", elements)

    @property
    def size(self):
        return len(self.elements)


@dataclass(frozen=True, eq=False)
class FeatureTable:
    """K x |X| matrix of real-valued features (sufficient statistics)."""

    values: np.ndarray
    feature_names: tuple = None

    def __init__(self, values, feature_names=None):
        values = _as_float_array(values, "feature values", 2)
        if values.shape[0] < 1:
            raise ValidationError("need at least one feature")
        if feature_names is None:
            feature_names = tuple(f"f{k}" for k in range(values.shape[0]))
        else:
            feature_names = tuple(feature_names)
            if len(feature_names) != values.shape[0]:
                raise DimensionMismatch("features", values.shape[0], len(feature_names))
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "feature_names", feature_names)

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
        probs = probs / total
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
    observation_names: tuple = None

    def __init__(self, matrix, observation_names=None):
        # One owned copy, normalized in place: a second |Omega| x |X| array
        # per channel fragments the heap of a process that loads many files.
        matrix = _as_float_array(np.array(matrix, dtype=float), "channel matrix", 2)
        if np.any(matrix < 0) or np.any(matrix > 1):
            raise ValidationError("channel entries must lie in [0, 1]")
        col_sums = matrix.sum(axis=0)
        bad = np.flatnonzero(np.abs(col_sums - 1.0) > NORMALIZATION_SLACK)
        if bad.size:
            raise ValidationError(
                f"channel column {bad[0]} sums to {col_sums[bad[0]]}, not 1"
            )
        matrix /= col_sums
        if observation_names is None:
            observation_names = tuple(f"w{i}" for i in range(matrix.shape[0]))
        else:
            observation_names = tuple(observation_names)
            if len(observation_names) != matrix.shape[0]:
                raise DimensionMismatch("observations", matrix.shape[0], len(observation_names))
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "observation_names", observation_names)

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


@dataclass(frozen=True, eq=False)
class EmpiricalObservations:
    """Empirical distribution over observations, from counts or given exactly."""

    dist: Distribution
    counts: np.ndarray = None

    def __init__(self, dist=None, counts=None):
        if counts is not None:
            counts = np.asarray(counts)
            if counts.ndim != 1 or np.any(counts < 0) or counts.sum() <= 0:
                raise ValidationError("counts must be a nonnegative vector with positive total")
            from_counts = Distribution(counts / counts.sum())
            if dist is not None and not np.allclose(dist.probs, from_counts.probs, atol=1e-12):
                raise ValidationError("given distribution does not match normalized counts")
            dist = from_counts
            counts = counts.copy()
            counts.setflags(write=False)
        if dist is None:
            raise ValidationError("need counts or an exact distribution")
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "counts", counts)

    @property
    def probs(self):
        return self.dist.probs


def _check_dims(weights, features):
    if len(weights) != features.n_features:
        raise DimensionMismatch("features", features.n_features, len(weights))


def scores(weights, features):
    """Per-element exponent sum_k lambda_k phi_k(X)."""
    _check_dims(weights, features)
    return weights.lam @ features.values


def log_partition(weights, features):
    """log Z(lambda) = log sum_X exp(sum_k lambda_k phi_k(X)), max-shifted."""
    s = scores(weights, features)
    m = s.max()
    return m + np.log(np.exp(s - m).sum())


def log_linear_distribution(weights, features):
    """Pr(X) = exp(sum_k lambda_k phi_k(X)) / Z(lambda)."""
    s = scores(weights, features)
    s = s - s.max()
    p = np.exp(s)
    return Distribution(p / p.sum())


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
