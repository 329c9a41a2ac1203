"""Building uncertain-MaxEnt problems from black-box classifier outputs.

Both paths are plain channel problems solved by em_solve, on a LabelChannel:
a matrix over labels composed with the label map, so no classifier path
forms an |Omega| x |X| matrix for EM. Hard labels are observed through the
confusion matrix C^T, and soft batch rows through the training-prior
correction (classifier_problem). Only classifier outputs and confusion
statistics enter, never the raw data.
"""

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .em import UMaxEntProblem, em_solve
from .errors import DimensionMismatch, ValidationError, ZeroTrainingPrior
from .model import Distribution, ObservationChannel, is_integer


@dataclass(frozen=True, eq=False)
class LabelMap:
    """Deterministic element-to-label map: labels[X] is the label of element X.

    d is its |X| x |labels| one-hot matrix d(X, label), built once, which
    LabelChannel.matvec applies.
    """

    labels: np.ndarray  # |X| label indices
    d: np.ndarray  # |X| x |labels| one-hot

    def __init__(self, assignment, n_labels):
        for a in assignment:
            if not is_integer(a) or not 0 <= a < n_labels:
                raise ValidationError(f"label map entry {a!r} is not a label in [0, {n_labels})")
        labels = np.array(assignment, dtype=np.intp)
        d = np.zeros((labels.size, n_labels))
        d[np.arange(labels.size), labels] = 1.0
        labels.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "d", d)

    @property
    def n_elements(self):
        return self.d.shape[0]

    @property
    def n_labels(self):
        return self.d.shape[1]


@dataclass(frozen=True, eq=False)
class ClassifierProfile:
    """A classifier's row-stochastic confusion matrix C[true_label, output_label],
    kept as the channel C^T.

    Its rows are checked once, as the columns of C^T (ObservationChannel's
    range and NORMALIZATION_SLACK rules), and a failure names the confusion row.
    """

    channel: ObservationChannel

    def __init__(self, confusion):
        confusion = np.asarray(confusion, dtype=float)
        if confusion.ndim != 2 or confusion.shape[0] != confusion.shape[1]:
            raise ValidationError("confusion matrix must be square")
        try:
            channel = ObservationChannel(confusion.T)
        except ValidationError as exc:
            message = str(exc).replace("channel column", "confusion row")
            raise ValidationError(message.replace("channel ", "confusion ")) from None
        object.__setattr__(self, "channel", channel)

    def lift(self, label_map):
        """Pr(output label | X) = C[d(X), output label]: C^T composed with the label map."""
        return LabelChannel(self.channel, label_map)


@dataclass(frozen=True, eq=False)
class SoftClassifierBatch:
    """Per-sample classifier output distributions plus the training prior.

    rows: N x |labels|, each row a distribution over labels, accepted within
    1e-6 of summing to 1 and divided once by its sum. Every sample weighs
    the same, 1/N.
    """

    rows: np.ndarray
    training_prior: Distribution

    def __init__(self, rows, training_prior):
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise ValidationError("batch must be a non-empty matrix")
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
        if bad.size:
            raise ValidationError(f"batch row {bad[0]} has a non-finite entry")
        if np.any(rows < 0):
            raise ValidationError("batch rows must be nonnegative")
        sums = rows.sum(axis=1)
        bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-6)
        if bad.size:
            raise ValidationError(f"batch row {bad[0]} sums to {sums[bad[0]]}, not 1")
        rows = rows / sums[:, None]
        if len(training_prior) != rows.shape[1]:
            raise DimensionMismatch("labels", rows.shape[1], len(training_prior))
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "training_prior", training_prior)

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


@dataclass(frozen=True, eq=False)
class LabelChannel:
    """A channel over labels composed with a label map: Pr(omega | X) = A[omega, d(X)].

    Provides the three products EM reads from a channel without forming the
    |Omega| x |X| matrix; C log C is formed at label level. rmatvec and
    xlogx_rmatvec gather the label-level product by labels, exactly D u for
    the one-hot D. Readers that need single entries (the reductions) use
    matrix, the dense expansion, which is built anew on every access.
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
    def matrix(self):
        """The |Omega| x |X| expansion A D^T, D the label map; not cached."""
        return self.labels.matrix[:, self.label_map.labels]

    def matvec(self, v):
        return self.labels.matvec(self.label_map.d.T @ v)

    def rmatvec(self, v):
        return self.labels.rmatvec(v)[self.label_map.labels]

    def xlogx_rmatvec(self, v):
        return self.labels.xlogx_rmatvec(v)[self.label_map.labels]


def classifier_problem(features, batch=None, label_map=None, empirical_xi=None,
                       profile=None, apply_correction=True):
    """The channel problem that classifier outputs define, on a LabelChannel.

    Hard labels (empirical label frequencies and a confusion profile) are
    observed through C^T. In a soft batch row i is observed with
    Pr(i | X) = r_{i,d(X)} / theta_{d(X)} / c, where c = max_l sum_i r_il / theta_l
    keeps every column sum at most 1; one last "row not in the batch"
    observation with no empirical mass takes the rest of each column. It
    changes neither the posteriors nor the E-step, and the log-likelihood is
    sum_i w_i log sum_l r_il Pr(l) / theta_l minus log c. Without the
    correction the observations are the labels, seen through the identity
    with the batch label marginal as their frequencies. The soft E-step,
    evaluate(problem, lam).phi_hat, thus reweights each row by the model's
    label marginal over the training prior, renormalizes it, maps it through
    Pr(X | label) = d(X, label) Pr(X) / Pr(label) and averages over samples.
    """
    if (batch is None) == (empirical_xi is None):
        raise ValidationError("provide either a soft batch or hard-label empirical data")
    if label_map is None:
        raise ValidationError("a label map is required")
    if batch is None:
        if profile is None:
            raise ValidationError("hard-label path needs a classifier profile")
        channel, observed = profile.lift(label_map), empirical_xi
    elif apply_correction:
        rows = batch.rows
        theta = batch.training_prior.probs
        bad = np.flatnonzero(np.any((rows > 0) & (theta <= 0), axis=0))
        if bad.size:
            raise ZeroTrainingPrior(int(bad[0]))
        scaled = np.divide(rows, theta, out=np.zeros_like(rows), where=theta > 0)
        scaled /= scaled.sum(axis=0).max()
        rest = np.maximum(1.0 - scaled.sum(axis=0), 0.0)
        channel = LabelChannel(ObservationChannel(np.vstack([scaled, rest])), label_map)
        observed = Distribution(np.append(np.full(batch.n_samples, 1.0 / batch.n_samples), 0.0))
    else:
        channel = LabelChannel(ObservationChannel.identity(batch.n_labels), label_map)
        observed = Distribution(np.full(batch.n_samples, 1.0 / batch.n_samples) @ batch.rows)
    return UMaxEntProblem(features, channel, observed)


def classifier_em_solve(features, batch=None, label_map=None, empirical_xi=None,
                        profile=None, config=None, apply_correction=True):
    """EM on classifier_problem's channel problem; returns (Weights, EmTrace)."""
    problem = classifier_problem(features, batch, label_map, empirical_xi, profile,
                                 apply_correction)
    return em_solve(problem, config)
