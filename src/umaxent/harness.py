"""Problem-file I/O and synthetic ground-truth generation.

Problem files are JSON with explicit matrices (row-major nested arrays);
every module invariant is re-validated on load. A file is decoded row by
row: each flat array of decimal-point numbers (a channel, feature or
empirical row) is parsed by orjson straight into a float64 row, so loading a
large channel never holds one Python float per entry. generate draws all its
randomness from the spec's seed and records it as the file's top-level seed.
"""

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from json.decoder import JSONArray
from json.scanner import py_make_scanner

import numpy as np
import orjson

from .classifier import ClassifierProfile, LabelMap
from .dual import SolverConfig
from .em import EmConfig, UMaxEntProblem
from .errors import DimensionMismatch, UMaxEntError, ValidationError
from .model import (
    Distribution,
    FeatureTable,
    ObservationChannel,
    Weights,
    feature_expectation,
    is_integer,
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


def _parse_array(s_and_end, scan_once):
    """The stdlib array parser, except that a flat array of decimal-point numbers
    becomes a float64 row parsed by orjson.

    The text from "[" to the first "]" is tried as a whole array: if it parses,
    it holds no nested array and no unterminated string, so that "]" closes the
    "[". With no string in it, one "." per item proves every item a number with
    a decimal point, which the stdlib makes a float. Any other array (empty, or
    holding a string, object, int, bool, null, exponent-only number such as
    1e-05, or non-finite literal) goes to the stdlib parser, with its types and
    errors. orjson parses floats correctly rounded, as the stdlib does, so the
    row is bit-identical to the stdlib's floats.
    """
    s, end = s_and_end
    close = s.find("]", end)
    if close != -1 and s.find('"', end, close) == -1:
        try:
            items = orjson.loads(s[end - 1:close + 1])
        except orjson.JSONDecodeError:
            items = None
        if items and s.count(".", end, close) == len(items):
            return np.array(items, dtype=float), close + 1
    return JSONArray(s_and_end, scan_once)


class _RowDecoder(json.JSONDecoder):
    """json.JSONDecoder with float rows decoded by _parse_array. The C scanner
    ignores parse_array, so this runs the stdlib's pure-Python scanner."""

    def __init__(self):
        super().__init__()
        self.parse_array = _parse_array
        self.scan_once = py_make_scanner(self)


def _plain(values):
    """Labels and names as the stdlib decoder gives them: a float row as a list."""
    return values.tolist() if isinstance(values, np.ndarray) else values


def _name_list(values, key):
    """A list of names or labels (key in its block) as the stdlib decoder gives
    it; None, an optional list left out, passes. A string is not a list."""
    values = _plain(values)
    if values is not None and not isinstance(values, list):
        raise TypeError(f"{key} {values!r} is not a list")
    return values


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
    """Build a LoadedProblem from a problem file's path (str or os.PathLike) or a
    parsed JSON document, re-validating everything.

    A path is decoded with the stdlib json parser, except that every flat array
    of decimal-point numbers becomes a float64 ndarray parsed by orjson,
    bit-identical to the stdlib's floats; every other value keeps the stdlib's
    types and errors (_parse_array). A file nested too deeply for the decoder's
    recursion is a ValidationError. A dict is used as it is.
    """
    if isinstance(doc, (str, os.PathLike)):
        with open(doc) as fh:
            try:
                doc = json.load(fh, cls=_RowDecoder)
            except RecursionError as exc:
                raise ValidationError(f"problem file {doc} nests too deeply to decode") from exc
    with _block("elements"):
        # the identifiers are checked, then dropped: |X| is features.n_elements
        elements = _name_list(doc["elements"], "elements")
        if len(set(elements)) != len(elements):
            raise ValueError("element identifiers must be unique")
    # feature and observation names, when given, are likewise checked, then dropped
    with _block("features"):
        features = FeatureTable(doc["features"]["values"])
        names = _name_list(doc["features"].get("names"), "names")
        if names is not None and len(names) != features.n_features:
            raise DimensionMismatch("features", features.n_features, len(names))
    with _block("channel"):
        channel = ObservationChannel(doc["channel"]["matrix"])
        names = _name_list(doc["channel"].get("observations"), "observations")
        if names is not None and len(names) != channel.n_observations:
            raise DimensionMismatch("observations", channel.n_observations, len(names))
    with _block("empirical"):
        emp = doc["empirical"]
        if "counts" in emp and "exact" in emp:
            raise ValueError("give either exact or counts, not both")
        if "counts" in emp:
            counts = np.asarray(emp["counts"])
            if counts.ndim != 1 or np.any(counts < 0) or counts.sum() <= 0:
                raise ValueError("counts must be a nonnegative vector with positive total")
            empirical = Distribution(counts / counts.sum())
        else:
            empirical = Distribution(emp["exact"])
    if len(elements) != features.n_elements:
        raise DimensionMismatch("elements", len(elements), features.n_elements)
    problem = UMaxEntProblem(features, channel, empirical)

    with _block("solver"):
        solver_config = SolverConfig(**doc.get("solver", {}))
    with _block("em"):
        em = dict(doc.get("em", {}))
        if em.get("prior") is not None:
            em["prior"] = Distribution(em["prior"])
            if len(em["prior"]) != features.n_elements:
                raise ValueError(
                    f"prior has {len(em['prior'])} entries, not {features.n_elements}")
        em_config = EmConfig(inner=solver_config, **em)

    factorization = None
    if "latent" in doc:
        with _block("latent"):
            lat = doc["latent"]
            embed = {}
            for entry in lat["embed"]:
                y, z, x = entry
                if not all(map(is_integer, entry)):
                    raise ValueError(f"embed entry {_plain(entry)!r} is not three integers")
                embed[y, z] = x
            factorization = LatentFactorization(_name_list(lat["y"], "y"),
                                                _name_list(lat["z"], "z"), embed,
                                                features.n_elements)

    label_map = profile = training_prior = None
    batch_csv = None
    if "classifier" in doc:
        with _block("classifier"):
            cls = doc["classifier"]
            label_map = LabelMap(_plain(cls["label_map"]),
                                 len(_name_list(cls["labels"], "labels")))
            if label_map.n_elements != features.n_elements:
                raise DimensionMismatch("elements", features.n_elements, label_map.n_elements)
            if "confusion" in cls:
                profile = ClassifierProfile(cls["confusion"])
            if "training_prior" in cls:
                training_prior = Distribution(cls["training_prior"])
            batch_csv = cls.get("batch_csv")
            if batch_csv is not None and not isinstance(batch_csv, str):
                raise ValueError(f"batch_csv {batch_csv!r} is not a file name")
            if batch_csv is not None and training_prior is None:
                raise ValueError("a batch_csv needs a training_prior")

    seed = doc.get("seed", 0)
    if not is_integer(seed):
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
        optional = () if self.n_samples is None else ("n_samples",)
        for name in ("n_elements", "n_observations", "n_features", *optional):
            value = getattr(self, name)
            if not is_integer(value) or value < 1:
                raise ValidationError(f"{name} must be an integer of at least 1, not {value!r}")
        if not is_integer(self.seed) or self.seed < 0:
            raise ValidationError(f"seed must be a nonnegative integer, not {self.seed!r}")
        if not (np.isfinite(self.lambda_range) and self.lambda_range >= 0):
            raise ValidationError("lambda_range must be finite and nonnegative, "
                                  f"not {self.lambda_range!r}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValidationError("epsilon must lie in [0, 1]")
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
        empirical = {"exact": marginal.probs.tolist()}
    else:
        empirical = {"counts": rng.multinomial(spec.n_samples, marginal.probs).tolist()}

    doc = {
        "elements": list(range(n)),
        "features": {"names": [f"f{i}" for i in range(k)], "values": features.values.tolist()},
        "channel": {"observations": [f"w{i}" for i in range(m)],
                    "matrix": channel.matrix.tolist()},
        "empirical": empirical,
        "seed": spec.seed,
    }
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
