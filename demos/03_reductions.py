"""Special channels collapse the EM machinery to simpler problems.

A deterministic channel (each observation names one element) makes the
posteriors model-independent, so EM finishes in one M-step and equals the
direct maximum-entropy fit. A channel that reveals only the Y part of
X = (Y, Z) makes the E-step coincide with the latent-MaxEnt constraint
right-hand side for every model.
"""

import numpy as np

from umaxent import (
    Distribution,
    FeatureTable,
    LatentFactorization,
    SyntheticSpec,
    generate,
    has_disjoint_column_supports,
    is_deterministic_channel,
    load_problem,
    verify_latent_reduction,
    verify_maxent_reduction,
)

# --- deterministic channel: no EM needed -------------------------------
doc, truth = generate(SyntheticSpec(n_elements=3, n_observations=5,
                                    n_features=2, epsilon=0.0, seed=3))
loaded = load_problem(doc)
channel = loaded.problem.channel
print("channel deterministic:",
      is_deterministic_channel(channel, Distribution(truth["pr_true"])),
      "| model independent:", has_disjoint_column_supports(channel))

reduction = verify_maxent_reduction(loaded.problem)
print(f"EM vs direct MaxEnt: tv={reduction.tv_distance:.2e}, "
      f"extra gradient term={reduction.extra_term_norm:.2e}, "
      f"EM iterations={reduction.iterations}")

# --- partially observed elements: latent MaxEnt -------------------------
# X = (Y, Z) with Y observed perfectly and Z hidden.
rng = np.random.default_rng(11)
fact = LatentFactorization(
    y_space=["y0", "y1"], z_space=["z0", "z1"],
    embed={(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}, n_elements=4,
)
features = FeatureTable(rng.uniform(-2, 2, size=(2, 4)))
empirical_y = Distribution([0.65, 0.35])

latent = verify_latent_reduction(fact, empirical_y, features)
print(f"latent identity gap over random models: {latent.identity_gap:.2e}")
print(f"converged residual: {latent.residual:.2e}")
