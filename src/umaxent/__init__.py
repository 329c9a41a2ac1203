"""Maximum entropy modeling under noisy and partial observations.

Fits log-linear distributions over hidden elements from observation
frequencies filtered through a known channel, via EM with a convex
maximum-entropy dual as the M-step. Deterministic channels reduce to
standard MaxEnt, perfectly-observed-Y channels to latent MaxEnt, and the
classifier bridge builds constraints from black-box classifier outputs.
"""

from .classifier import (
    ClassifierProfile,
    LabelMap,
    SoftClassifierBatch,
    classifier_em_solve,
    classifier_problem,
)
from .dual import (
    SolverConfig,
    SolverResult,
    TargetExpectations,
    dual_objective,
    minimize_dual,
    solve_standard_maxent,
)
from .em import (
    EmConfig,
    EmTrace,
    UMaxEntProblem,
    em_solve,
    evaluate,
    likelihood_decomposition,
)
from .errors import (
    DimensionMismatch,
    InfeasibleTarget,
    PreconditionViolated,
    UMaxEntError,
    ValidationError,
    ZeroMarginal,
    ZeroTrainingPrior,
)
from .harness import SyntheticSpec, dump_json, generate, load_problem
from .model import (
    Distribution,
    FeatureTable,
    ObservationChannel,
    Weights,
    feature_expectation,
    log_linear_distribution,
    log_partition,
    observation_marginal,
)
from .reductions import (
    LatentFactorization,
    has_disjoint_column_supports,
    is_deterministic_channel,
    latent_constraint_rhs,
    verify_latent_reduction,
    verify_maxent_reduction,
)

__version__ = "0.1.0"
