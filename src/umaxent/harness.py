"""Problem-file I/O and synthetic ground-truth generation.

Problem files are JSON with explicit matrices (row-major nested arrays);
every module invariant is re-validated on load. All randomness flows from
a single seed.
"""

import json
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .classifier import ClassifierProfile, LabelMap
from .dual import SolverConfig
from .em import EmConfig, UMaxEntProblem
from .errors import UMaxEntError, ValidationError
from .model import (
    Distribution,
    ElementSpace,
    EmpiricalObservations,
    FeatureTable,
    ObservationChannel,
    Weights,
    feature_expectation,
    log_linear_distribution,
    observation_marginal,
)
from .reductions import LatentFactorization


@dataclass
class LoadedProblem:
    """A parsed problem file: the core problem plus optional blocks."""

    problem: UMaxEntProblem
    em_config: EmConfig
    factorization: LatentFactorization = None
    label_map: LabelMap = None
    profile: ClassifierProfile = None
    training_prior: Distribution = None
    batch_csv: str = None


def problem_to_dict(problem, seed=0):
    doc = {
        "elements": list(problem.space.elements),
        "features": {
            "names": list(problem.features.feature_names),
            "values": problem.features.values.tolist(),
        },
        "channel": {
            "observations": list(problem.channel.observation_names),
            "matrix": problem.channel.matrix.tolist(),
        },
        "seed": seed,
    }
    if problem.empirical.counts is not None:
        doc["empirical"] = {"counts": problem.empirical.counts.tolist()}
    else:
        doc["empirical"] = {"exact": problem.empirical.probs.tolist()}
    return doc


@contextmanager
def _block(name):
    """Re-raise a malformed block's conversion errors as one-line ValidationErrors."""
    try:
        yield
    except KeyError as exc:
        raise ValidationError(f"problem file missing section {exc}") from exc
    except (AttributeError, IndexError, TypeError, ValueError, UMaxEntError) as exc:
        raise ValidationError(f"malformed {name}: {' '.join(str(exc).split())}") from exc


def load_problem(doc):
    """Build a LoadedProblem from a parsed JSON document, re-validating everything."""
    if isinstance(doc, str):
        with open(doc) as fh:
            doc = json.load(fh)
    with _block("elements"):
        space = ElementSpace(doc["elements"])
    with _block("features"):
        features = FeatureTable(doc["features"]["values"], doc["features"].get("names"))
    with _block("channel"):
        channel = ObservationChannel(
            doc["channel"]["matrix"], doc["channel"].get("observations")
        )
    with _block("empirical"):
        emp = doc["empirical"]
        if "counts" in emp:
            empirical = EmpiricalObservations(counts=emp["counts"])
        else:
            empirical = EmpiricalObservations(Distribution(emp["exact"]))
    problem = UMaxEntProblem(space, features, channel, empirical)

    with _block("solver"):
        solver_config = SolverConfig(**doc.get("solver", {}))
    with _block("em"):
        em = dict(doc.get("em", {}))
        if em.get("prior") is not None:
            em["prior"] = Distribution(em["prior"])
            if len(em["prior"]) != space.size:
                raise ValueError(f"prior has {len(em['prior'])} entries, not {space.size}")
        em_config = EmConfig(inner=solver_config, **em)

    factorization = None
    if "latent" in doc:
        with _block("latent"):
            lat = doc["latent"]
            embed = {(int(y), int(z)): int(x) for y, z, x in lat["embed"]}
            factorization = LatentFactorization(lat["y"], lat["z"], embed, space.size)

    label_map = profile = training_prior = None
    batch_csv = None
    if "classifier" in doc:
        with _block("classifier"):
            cls = doc["classifier"]
            label_map = LabelMap.from_assignment(cls["label_map"], len(cls["labels"]))
            if "confusion" in cls:
                profile = ClassifierProfile(cls["confusion"])
            if "training_prior" in cls:
                training_prior = Distribution(cls["training_prior"])
            batch_csv = cls.get("batch_csv")

    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValidationError(f"malformed seed: {seed!r} is not an integer")
    return LoadedProblem(
        problem=problem,
        em_config=em_config,
        factorization=factorization,
        label_map=label_map,
        profile=profile,
        training_prior=training_prior,
        batch_csv=batch_csv,
    )


@dataclass
class SyntheticSpec:
    """Recipe for a synthetic problem with a known log-linear truth.

    The channel is (1 - epsilon) * a random-permutation deterministic
    channel + epsilon * uniform noise; epsilon = 0 gives the deterministic
    reduction regime, epsilon = 1 an uninformative channel.
    """

    n_elements: int
    n_observations: int
    n_features: int
    lambda_range: float = 1.0
    epsilon: float = 0.2
    n_samples: int = None  # None means the exact marginal is recorded
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValidationError("epsilon must lie in [0, 1]")
        if self.n_samples is not None and self.n_samples < 1:
            raise ValidationError("need at least one sample")
        if self.n_observations < self.n_elements:
            raise ValidationError("need at least as many observations as elements")


def generate(spec):
    """Generate (problem document, truth sidecar document) from a spec."""
    rng = np.random.default_rng(spec.seed)
    n, m, k = spec.n_elements, spec.n_observations, spec.n_features

    features = FeatureTable(rng.uniform(-2, 2, size=(k, n)))
    lam_true = Weights(rng.uniform(-spec.lambda_range, spec.lambda_range, size=k))
    truth = log_linear_distribution(lam_true, features)

    assignment = rng.permutation(m)[:n]  # distinct observation per element
    deterministic = np.zeros((m, n))
    deterministic[assignment, np.arange(n)] = 1.0
    matrix = (1 - spec.epsilon) * deterministic + spec.epsilon / m
    channel = ObservationChannel(matrix)

    marginal = observation_marginal(truth, channel)
    if spec.n_samples is None:
        empirical = EmpiricalObservations(marginal)
    else:
        counts = rng.multinomial(spec.n_samples, marginal.probs)
        empirical = EmpiricalObservations(counts=counts)

    problem = UMaxEntProblem(ElementSpace(range(n)), features, channel, empirical)
    doc = problem_to_dict(problem, seed=spec.seed)
    sidecar = {
        "lambda_true": lam_true.lam.tolist(),
        "pr_true": truth.probs.tolist(),
        "feature_expectations_true": feature_expectation(truth, features).tolist(),
        "epsilon": spec.epsilon,
        "seed": spec.seed,
        "exact_marginal": spec.n_samples is None,
    }
    return doc, sidecar


def dump_json(doc, path=None):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
