"""Seeded input generation for the benchmark, independent of umaxent.

Every input is built here from a numpy ``Generator`` and the stdlib and
written as bytes, so two commits of umaxent receive byte-identical
problem JSON, batch CSV and truth sidecars for the same seed.
"""

import hashlib
import json
from pathlib import Path

import numpy as np


def softmax(scores):
    s = scores - scores.max()
    p = np.exp(s)
    return p / p.sum()


def channel_problem(rng, n, m, k, eps, samples=None):
    """A log-linear truth observed through an eps-mixed permutation channel.

    The channel is (1 - eps) * (each element maps to its own observation)
    + eps * uniform noise over the m observations. ``samples=None`` records
    the exact observation marginal; an int draws multinomial counts.
    Returns (problem document, truth sidecar).
    """
    features = rng.uniform(-2.0, 2.0, size=(k, n))
    lam = rng.uniform(-1.0, 1.0, size=k)
    truth = softmax(lam @ features)
    assignment = rng.permutation(m)[:n]
    matrix = np.full((m, n), eps / m)
    matrix[assignment, np.arange(n)] += 1.0 - eps
    marginal = matrix @ truth
    if samples is None:
        empirical = {"exact": (marginal / marginal.sum()).tolist()}
    else:
        empirical = {"counts": rng.multinomial(samples, marginal / marginal.sum()).tolist()}
    doc = {
        "elements": list(range(n)),
        "features": {"names": [f"f{i}" for i in range(k)], "values": features.tolist()},
        "channel": {"observations": [f"w{i}" for i in range(m)], "matrix": matrix.tolist()},
        "empirical": empirical,
    }
    sidecar = {
        "lambda_true": lam.tolist(),
        "feature_expectations_true": (features @ truth).tolist(),
        "epsilon": eps,
        "exact_marginal": samples is None,
    }
    return doc, sidecar


def soft_classifier_problem(rng, sample_rng, n, labels, k, rows, dim, spread):
    """A soft classifier batch over a skewed log-linear truth.

    Elements map round-robin onto labels and features are functions of the
    label, so the label marginal identifies the feature expectations. The
    classifier sees a Gaussian signal per label and reports the exact Bayes
    posterior under a uniform training prior; it is deployed on a truth
    whose label marginal is far from uniform. Every row is distinct.
    Returns (problem document, batch CSV text, truth sidecar).
    """
    assignment = np.arange(n) % labels
    label_features = rng.uniform(-2.0, 2.0, size=(k, labels))
    features = label_features[:, assignment]
    lam = rng.uniform(-1.0, 1.0, size=k)
    truth = softmax(lam @ features)
    label_marginal = np.bincount(assignment, weights=truth, minlength=labels)

    means = rng.normal(0.0, spread, size=(labels, dim))
    drawn = sample_rng.choice(labels, size=rows, p=label_marginal / label_marginal.sum())
    signal = means[drawn] + sample_rng.normal(size=(rows, dim))
    # Bayes posterior under the uniform training prior: softmax of the
    # Gaussian log-likelihoods, computed row by row in log space.
    loglik = -0.5 * ((signal[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    loglik -= loglik.max(axis=1, keepdims=True)
    post = np.exp(loglik)
    post /= post.sum(axis=1, keepdims=True)

    training_prior = [1.0 / labels] * labels
    doc = {
        "elements": list(range(n)),
        "features": {"names": [f"f{i}" for i in range(k)], "values": features.tolist()},
        "channel": {
            "observations": [f"xi_{j}" for j in range(labels)],
            "matrix": (assignment[None, :] == np.arange(labels)[:, None]).astype(float).tolist(),
        },
        "empirical": {"exact": (post.mean(axis=0) / post.mean(axis=0).sum()).tolist()},
        "classifier": {
            "labels": [f"xi_{j}" for j in range(labels)],
            "label_map": assignment.tolist(),
            "training_prior": training_prior,
            "batch_csv": "batch.csv",
        },
    }
    lines = [",".join(f"xi_{j}" for j in range(labels))]
    lines.extend(",".join(repr(float(v)) for v in row) for row in post)
    sidecar = {
        "lambda_true": lam.tolist(),
        "feature_expectations_true": (features @ truth).tolist(),
        "label_marginal_true": label_marginal.tolist(),
    }
    return doc, "\n".join(lines) + "\n", sidecar


def write(path, content):
    """Write a JSON document or text to path; return its sha256 hex digest."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = content if isinstance(content, str) else json.dumps(content, sort_keys=True) + "\n"
    data = text.encode()
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()
