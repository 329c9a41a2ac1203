"""Recover a log-linear model when elements are seen through a noisy channel.

Observations are draws of omega with Pr(omega | X) known; the elements X
themselves are hidden. EM alternates a Bayes posterior E-step with a convex
maximum-entropy M-step, and the log-likelihood trace never decreases.
"""

import numpy as np

from umaxent import (
    SyntheticSpec,
    em_solve,
    feature_expectation,
    generate,
    load_problem,
    log_linear_distribution,
)

# A synthetic problem with known ground truth: 4 hidden elements observed
# through 6 noisy observation symbols (20% uniform noise).
doc, truth = generate(SyntheticSpec(n_elements=4, n_observations=6,
                                    n_features=2, epsilon=0.2, seed=7))
loaded = load_problem(doc)

lam, trace = em_solve(loaded.problem, loaded.em_config)
print(f"converged={trace.converged} ({trace.termination}) "
      f"in {trace.rows[-1].iteration} EM iterations")

print("\niter   loglik         residual")
for row in trace.rows[:: max(1, len(trace.rows) // 10)]:
    print(f"{row.iteration:4d}   {row.loglik:.10f}   {row.residual:.2e}")

logliks = trace.logliks()
print("\nlog-likelihood monotone:", bool(np.all(np.diff(logliks) >= -1e-9)))

recovered = log_linear_distribution(lam, loaded.problem.features)
print("recovered Pr(X):", recovered.probs)
print("true      Pr(X):", np.array(truth["pr_true"]))
e_rec = feature_expectation(recovered, loaded.problem.features)
e_true = np.array(truth["feature_expectations_true"])
print("feature expectation error vs truth:", np.abs(e_rec - e_true).max())
