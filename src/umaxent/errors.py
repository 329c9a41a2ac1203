"""Exception types shared across the package."""


class UMaxEntError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(UMaxEntError):
    """Two objects disagree on the size of a shared axis."""

    def __init__(self, axis, expected, got):
        self.axis = axis
        self.expected = expected
        self.got = got
        super().__init__(f"dimension mismatch on axis '{axis}': expected {expected}, got {got}")


class ValidationError(UMaxEntError):
    """An input value violates a structural invariant."""


class ZeroMarginal(UMaxEntError):
    """An observation has zero probability under the current model."""

    def __init__(self, index):
        self.index = index
        super().__init__(f"observation {index} has zero marginal probability under the model")


class InfeasibleTarget(UMaxEntError):
    """A target expectation lies outside the per-feature value range."""

    def __init__(self, k, value, lo, hi):
        self.k = k
        super().__init__(
            f"target expectation {value} for feature {k} lies outside [{lo}, {hi}]"
        )


class ZeroTrainingPrior(UMaxEntError):
    """A classifier row puts mass on a label the training prior excludes."""

    def __init__(self, label):
        self.label = label
        super().__init__(f"training prior is zero on label {label} but the row is not")


class PreconditionViolated(UMaxEntError):
    """A verification routine was called outside its stated precondition."""
