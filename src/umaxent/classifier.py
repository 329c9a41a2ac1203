"""Building uncertain-MaxEnt problems from black-box classifier outputs.

Both paths are plain channel problems solved by em_solve. Hard labels
observe the elements through a confusion matrix lifted to Pr(label | X).
A soft batch makes each output row an observation with
Pr(row | X) proportional to row(d(X)) / theta(d(X)), theta the training
prior; EM on that channel is the training-prior replacement correction.
Neither path ever sees the raw data; only classifier outputs and
confusion statistics enter.
"""

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .em import UMaxEntProblem, e_step, em_solve
from .errors import DimensionMismatch, ValidationError, ZeroTrainingPrior
from .model import Distribution, ElementSpace, EmpiricalObservations, ObservationChannel


@dataclass(frozen=True, eq=False)
class LabelMap:
    """Deterministic element-to-label assignment d(X, label) in {0, 1}."""

    d: np.ndarray  # |X| x |labels| binary

    def __init__(self, d):
        d = np.asarray(d, dtype=float)
        if d.ndim != 2 or not np.all((d == 0) | (d == 1)):
            raise ValidationError("label map must be a binary matrix")
        if not np.all(d.sum(axis=1) == 1):
            raise ValidationError("each element must map to exactly one label")
        d.setflags(write=False)
        object.__setattr__(self, "d", d)

    @classmethod
    def from_assignment(cls, assignment, n_labels):
        d = np.zeros((len(assignment), n_labels))
        d[np.arange(len(assignment)), assignment] = 1.0
        return cls(d)

    @property
    def n_elements(self):
        return self.d.shape[0]

    @property
    def n_labels(self):
        return self.d.shape[1]

    def label_of(self):
        return self.d.argmax(axis=1)


@dataclass(frozen=True, eq=False)
class ClassifierProfile:
    """Row-stochastic confusion matrix C[true_label, output_label]."""

    confusion: np.ndarray

    def __init__(self, confusion):
        confusion = np.asarray(confusion, dtype=float)
        if confusion.ndim != 2 or confusion.shape[0] != confusion.shape[1]:
            raise ValidationError("confusion matrix must be square")
        if np.any(confusion < 0) or np.any(confusion > 1):
            raise ValidationError("confusion entries must lie in [0, 1]")
        if not np.allclose(confusion.sum(axis=1), 1.0, atol=1e-9):
            raise ValidationError("confusion rows must sum to 1")
        confusion.setflags(write=False)
        object.__setattr__(self, "confusion", confusion)

    def lift(self, label_map):
        """Pr(output label | X) = C[d(X), output label] as an observation channel."""
        if label_map.n_labels != self.confusion.shape[0]:
            raise DimensionMismatch("labels", self.confusion.shape[0], label_map.n_labels)
        matrix = self.confusion[label_map.label_of()].T  # |labels| x |X|
        return ObservationChannel(matrix)


@dataclass(frozen=True, eq=False)
class SoftClassifierBatch:
    """Per-sample classifier output distributions plus the training prior.

    rows: N x |labels|, each row a distribution over labels; sample_weights
    default to uniform 1/N.
    """

    rows: np.ndarray
    training_prior: Distribution
    sample_weights: np.ndarray = None

    def __init__(self, rows, training_prior, sample_weights=None):
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise ValidationError("batch must be a non-empty matrix")
        if np.any(rows < 0):
            raise ValidationError("batch rows must be nonnegative")
        sums = rows.sum(axis=1)
        bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-6)
        if bad.size:
            raise ValidationError(f"batch row {bad[0]} sums to {sums[bad[0]]}, not 1")
        rows = rows.copy()
        # renormalize to a fixpoint so reconstruction from stored rows is exact
        for _ in range(4):
            sums = rows.sum(axis=1)
            drift = np.flatnonzero(sums != 1.0)
            if not drift.size:
                break
            rows[drift] = rows[drift] / sums[drift, None]
        if len(training_prior) != rows.shape[1]:
            raise DimensionMismatch("labels", rows.shape[1], len(training_prior))
        if sample_weights is None:
            sample_weights = np.full(rows.shape[0], 1.0 / rows.shape[0])
        else:
            sample_weights = np.asarray(sample_weights, dtype=float)
            if (sample_weights.shape != (rows.shape[0],) or np.any(sample_weights < 0)
                    or not np.all(np.isfinite(sample_weights)) or sample_weights.sum() <= 0):
                raise ValidationError("sample weights must be a finite nonnegative "
                                      "length-N vector with a positive total")
            sample_weights = sample_weights / sample_weights.sum()
        rows.setflags(write=False)
        sample_weights.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "training_prior", training_prior)
        object.__setattr__(self, "sample_weights", sample_weights)

    @property
    def n_samples(self):
        return self.rows.shape[0]

    @property
    def n_labels(self):
        return self.rows.shape[1]

    @classmethod
    def from_csv(cls, path, training_prior):
        """Read a header line of label names, then one row of floats per sample."""
        with open(path) as fh:
            header = next(csv.reader([fh.readline()]), [])
            try:
                with warnings.catch_warnings():
                    # a file with no rows is reported below, not warned about
                    warnings.simplefilter("ignore", UserWarning)
                    rows = np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise ValidationError(
                    f"malformed batch CSV {path}: {' '.join(str(exc).split())}"
                ) from exc
        if rows.shape[0] == 0:
            raise ValidationError(f"batch CSV {path} has no rows")
        if rows.shape[1] != len(header):
            raise ValidationError(f"batch CSV {path} rows do not match header width")
        return cls(rows, training_prior)

    def to_csv(self, path, labels=None):
        labels = labels or [f"xi_{i}" for i in range(self.n_labels)]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(labels)
            for row in self.rows:
                writer.writerow([repr(float(v)) for v in row])


@dataclass(frozen=True, eq=False)
class LabelChannel:
    """A channel over labels composed with a label map: Pr(omega | X) = A[omega, d(X)].

    Provides the three products EM reads from a channel without forming the
    |Omega| x |X| matrix; C log C is formed at label level. Readers that need
    single entries (the reductions, problem files) use matrix, the dense
    expansion, which is built anew on every access.
    """

    labels: ObservationChannel  # A: |Omega| x |labels|
    label_map: LabelMap

    def __post_init__(self):
        if self.labels.n_elements != self.label_map.n_labels:
            raise DimensionMismatch("labels", self.labels.n_elements, self.label_map.n_labels)

    @property
    def n_observations(self):
        return self.labels.n_observations

    @property
    def n_elements(self):
        return self.label_map.n_elements

    @property
    def observation_names(self):
        return self.labels.observation_names

    @property
    def matrix(self):
        """The |Omega| x |X| expansion A D^T, D the label map; not cached."""
        return self.labels.matrix[:, self.label_map.label_of()]

    def matvec(self, v):
        return self.labels.matvec(self.label_map.d.T @ v)

    def rmatvec(self, v):
        return self.label_map.d @ self.labels.rmatvec(v)

    def xlogx_rmatvec(self, v):
        return self.label_map.d @ self.labels.xlogx_rmatvec(v)


def _soft_problem(features, batch, label_map, apply_correction=True):
    """The soft batch as a channel problem whose observations are the batch rows.

    Row i is observed with Pr(i | X) = r_{i,d(X)} / theta_{d(X)} / c, where
    c = max_l sum_i r_il / theta_l keeps every column sum at most 1. One last
    "row not in the batch" observation with no empirical mass takes the rest
    of each column; it changes neither the posteriors nor the E-step, and the
    log-likelihood is sum_i w_i log sum_l r_il Pr(l) / theta_l minus log c.
    Without the correction the observations are the labels themselves, seen
    through the identity with the batch label marginal as their frequencies.
    """
    if apply_correction:
        rows = batch.rows
        theta = batch.training_prior.probs
        bad = np.flatnonzero(np.any((rows > 0) & (theta <= 0), axis=0))
        if bad.size:
            raise ZeroTrainingPrior(int(bad[0]))
        scaled = np.divide(rows, theta, out=np.zeros_like(rows), where=theta > 0)
        scaled /= scaled.sum(axis=0).max()
        rest = np.maximum(1.0 - scaled.sum(axis=0), 0.0)
        labels = ObservationChannel(np.vstack([scaled, rest]))
        observed = np.append(batch.sample_weights, 0.0)
    else:
        labels = ObservationChannel.identity(batch.n_labels)
        observed = batch.sample_weights @ batch.rows
    return UMaxEntProblem(
        ElementSpace(range(features.n_elements)), features,
        LabelChannel(labels, label_map), EmpiricalObservations(Distribution(observed)),
    )


def soft_e_step(batch, label_map, current, features, apply_correction=True):
    """E-step from soft classifier outputs with the training-prior correction.

    Each row, reweighted by the current model's label marginal over the
    training prior and renormalized, is mapped through
    Pr(X | label) = d(X, label) Pr(X) / Pr(label) and averaged over samples.
    This is e_step on the problem classifier_em_solve solves, so a row whose
    labels own no element is rejected like any observation no element produces.
    """
    problem = _soft_problem(features, batch, label_map, apply_correction)
    return e_step(problem, current)


def classifier_problem(features, batch=None, label_map=None, empirical_xi=None,
                       profile=None, apply_correction=True):
    """The channel problem that classifier outputs define.

    Soft path when a batch is given, hard-label path when empirical label
    frequencies plus a confusion profile are given.
    """
    if (batch is None) == (empirical_xi is None):
        raise ValidationError("provide either a soft batch or hard-label empirical data")
    if label_map is None:
        raise ValidationError("a label map is required")
    if batch is not None:
        return _soft_problem(features, batch, label_map, apply_correction)
    if profile is None:
        raise ValidationError("hard-label path needs a classifier profile")
    return UMaxEntProblem(
        ElementSpace(range(features.n_elements)), features, profile.lift(label_map),
        EmpiricalObservations(empirical_xi),
    )


def classifier_em_solve(features, batch=None, label_map=None, empirical_xi=None,
                        profile=None, config=None, apply_correction=True):
    """EM on classifier_problem's channel problem; returns (Weights, EmTrace)."""
    problem = classifier_problem(features, batch, label_map, empirical_xi, profile,
                                 apply_correction)
    return em_solve(problem, config)
