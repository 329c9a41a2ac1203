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
    soft_e_step,
)
from .dual import (
    SolverConfig,
    SolverResult,
    TargetExpectations,
    dual_gradient,
    dual_value,
    minimize_dual,
)
from .em import (
    EmConfig,
    EmTrace,
    UMaxEntProblem,
    constraint_residual,
    e_step,
    em_solve,
    likelihood_decomposition,
    log_likelihood,
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
from .harness import SyntheticSpec, dump_json, generate, load_problem, problem_to_dict
from .model import (
    Distribution,
    ElementSpace,
    EmpiricalObservations,
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
    is_deterministic_channel,
    latent_constraint_rhs,
    solve_standard_maxent,
    verify_latent_reduction,
    verify_maxent_reduction,
)

__version__ = "0.1.0"
