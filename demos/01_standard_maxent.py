"""Fit a log-linear distribution to moment constraints.

The solver minimizes the convex dual of the maximum-entropy program:
among all distributions matching the target feature expectations, it
finds the one with the largest entropy, which is always log-linear in
the features.
"""

import numpy as np

from umaxent import (
    Distribution,
    FeatureTable,
    TargetExpectations,
    feature_expectation,
    log_linear_distribution,
    minimize_dual,
)

rng = np.random.default_rng(0)

# Six outcomes, two real-valued features per outcome.
features = FeatureTable(rng.uniform(-2, 2, size=(2, 6)))

# Targets taken from a random reference distribution, so they are feasible.
reference = Distribution(rng.dirichlet(np.ones(6)))
phi_hat = feature_expectation(reference, features)
print("target expectations:", phi_hat)

result = minimize_dual(TargetExpectations(phi_hat), features)
print(f"converged={result.converged} after {result.iterations} iterations, "
      f"|grad|={result.grad_norm:.2e}")

fitted = log_linear_distribution(result.weights, features)
print("weights:", result.weights.lam)
print("fitted distribution:", fitted.probs)
print("moment error:",
      np.abs(feature_expectation(fitted, features) - phi_hat).max())

# The fitted distribution matches the moments but has more entropy than
# the reference that produced them.
h = lambda p: -np.sum(p[p > 0] * np.log(p[p > 0]))
print(f"entropy: fitted {h(fitted.probs):.4f} vs reference {h(reference.probs):.4f}")
