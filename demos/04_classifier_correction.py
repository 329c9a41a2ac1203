"""Use black-box classifier outputs as observations, fixing the prior.

A classifier trained with one label prior silently bakes that prior into
its posterior outputs. When the deployment distribution differs, dividing
the training prior out and multiplying the current model's label marginal
in makes the EM constraints consistent again. This demo compares the
corrected pipeline against an ablation that skips the correction.
"""

import numpy as np

from umaxent import (
    Distribution,
    FeatureTable,
    LabelMap,
    SoftClassifierBatch,
    Weights,
    classifier_em_solve,
    classifier_problem,
    evaluate,
    feature_expectation,
    log_linear_distribution,
)

rng = np.random.default_rng(42)

# Two classes; the true deployment prior is [0.8, 0.2] but the classifier
# was trained on a balanced set.
features = FeatureTable([[1.0, 0.0]])
label_map = LabelMap([0, 1], 2)
lam_true = Weights([np.log(4.0)])
truth = log_linear_distribution(lam_true, features)
training_prior = Distribution([0.5, 0.5])

# The classifier sees one of six raw signals r with Pr(r | X) below, and
# reports the exact Bayes posterior under its (wrong) uniform prior.
raw = np.array([[0.30, 0.25, 0.20, 0.10, 0.10, 0.05],
                [0.05, 0.10, 0.10, 0.20, 0.25, 0.30]])
joint = raw * training_prior.probs[:, None]
posterior_rows = (joint / joint.sum(axis=0)).T

signals = rng.choice(6, size=100_000, p=truth.probs @ raw)
batch = SoftClassifierBatch(posterior_rows[signals], training_prior)

e_truth = feature_expectation(truth, features)
for corrected in (True, False):
    # the E-step targets at the truth, with or without the prior correction
    problem = classifier_problem(features, batch, label_map, apply_correction=corrected)
    phi_hat = evaluate(problem, lam_true).phi_hat
    tag = "corrected  " if corrected else "uncorrected"
    print(f"{tag} constraint residual at the truth: "
          f"{np.abs(phi_hat - e_truth).max():.2e}")

lam, trace = classifier_em_solve(features, batch=batch, label_map=label_map)
recovered = log_linear_distribution(lam, features)
print("\nrecovered Pr(X):", recovered.probs, "| true:", truth.probs)
print("feature expectation error:",
      np.abs(feature_expectation(recovered, features) - e_truth).max())
