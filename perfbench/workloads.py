"""Workload definitions: which inputs each workload generates and how each op is checked.

A *pass* is a workload's fixed list of ops, in an order drawn from the run
seed; a run repeats whole passes, so the median per op is taken over the same
mix on every run.
``build`` runs in the parent process and never imports umaxent; the worker
only reads the plan it writes. Why each workload exists, and which layer it
loads, is in README.md beside this file.
"""

import numpy as np

import inputs

# Correctness tolerances, fixed per workload. An op passes only if it
# converges (or the CLI exits 0) and its fitted feature expectations lie
# within TOL of the truth; a CLI `check` must also report a standard
# reduction with tv_distance <= TV_TOL.
TOL = {
    "dense-channel": 1e-4,      # exact marginal; errors seen up to 5.9e-6
    "high-noise": 5e-3,         # exact marginal; errors seen up to 7.2e-4
    "classifier-soft": 5e-2,    # 1e4 sampled rows; error of the fixed sample 1.2e-2
    "cli-batch": 5e-2,          # sampled counts; errors seen up to 1.7e-2
}
TV_TOL = 1e-6

# Every problem comes from a fixed generator seed, and the run seed only sets
# the order of the ops in a pass. Which M-steps stall (ROADMAP item 2) is
# decided by rounding, so any change to an input's bytes, even a relabelling
# of elements or a reordering of batch rows, moves the stall count and with
# it the solve time: relabelled dense-channel problems stalled on one seed
# in ten, for ~9 s. Fixed bytes make each run do the same work, so runs
# with different seeds differ only by the machine's noise.

# dense-channel: two exact-marginal problems per pass, generator seeds 0 and 1.
DENSE = dict(n=1000, m=1500, k=5, eps=0.2, problems=2)

# Caps every M-step at 200 dual iterations. A stalled M-step (ROADMAP item 2)
# then costs ~0.15 s instead of the ~7.5 s of the default 10 000, so the
# stall still shows in dual.capped and dual.evals but no longer swings a run.
SOLVER_CAP = {"max_iter": 200}

# high-noise: generator seeds 0-5 at each epsilon. max_em_iter=2000 lets the
# epsilon=0.9 problems, which stop unconverged at the default 500, run to
# convergence (445-684 iterations).
HIGH_NOISE = dict(n=40, m=60, k=4,
                  problems=[(eps, s) for eps in (0.8, 0.9) for s in range(6)],
                  extra={"solver": SOLVER_CAP, "em": {"max_em_iter": 2000}})

# classifier-soft: one classifier and truth (generator seed 0) and one
# sample of rows (generator seed 1); a pass is a single op, so the run seed
# changes nothing. At 1e4 rows the E-step's few rows x labels arrays (0.64 MB
# each) fit in a core's 4 MB L2 cache; at 5e4 rows (3.2 MB each) they spill
# into the L3 that other tenants share, and the spread of solve_s over runs
# was 0.25 of its median, against 0.14 at 1e4 rows in runs interleaved with
# those. The solver cap keeps a stalled M-step from doubling a solve that
# should be all soft_e_step.
CLASSIFIER = dict(n=40, labels=8, k=3, rows=10_000, dim=2, spread=1.5, structure_seed=0,
                  sample_seed=1, extra={"solver": SOLVER_CAP})

# cli-batch: per pass, `check` on two deterministic-channel files
# (generator seeds 0 and 1) and `solve` on one small noisy file (generator
# seed 100), all with sampled counts.
CLI_CHECK = dict(n=400, m=600, k=5, eps=0.0, samples=1_000_000, files=2)
CLI_SOLVE = dict(n=50, m=80, k=5, eps=0.2, samples=100_000, files=1)

NAMES = ("dense-channel", "high-noise", "classifier-soft", "cli-batch")


def _channel(workdir, stem, rng, spec, samples=None, extra=None):
    doc, truth = inputs.channel_problem(rng, spec["n"], spec["m"], spec["k"], spec["eps"],
                                        samples=samples)
    doc.update(extra or {})
    return {
        f"{stem}.json": inputs.write(workdir / f"{stem}.json", doc),
        f"{stem}_truth.json": inputs.write(workdir / f"{stem}_truth.json", truth),
    }


def build(name, seed, workdir):
    """Write the inputs of one pass into workdir; return the plan for the worker."""
    ops, hashes = [], {}
    if name == "dense-channel":
        for i in range(DENSE["problems"]):
            stem = f"dense{i}"
            hashes.update(_channel(workdir, stem, np.random.default_rng(i), DENSE))
            ops.append({"kind": "channel", "stem": stem})
    elif name == "high-noise":
        for eps, gen_seed in HIGH_NOISE["problems"]:
            stem = f"noise{int(eps * 100)}_{gen_seed}"
            hashes.update(_channel(workdir, stem, np.random.default_rng(gen_seed),
                                   dict(HIGH_NOISE, eps=eps), extra=HIGH_NOISE["extra"]))
            ops.append({"kind": "channel", "stem": stem})
    elif name == "classifier-soft":
        c = CLASSIFIER
        doc, csv_text, truth = inputs.soft_classifier_problem(
            np.random.default_rng(c["structure_seed"]), np.random.default_rng(c["sample_seed"]),
            c["n"], c["labels"], c["k"], c["rows"], dim=c["dim"], spread=c["spread"])
        doc.update(c["extra"])
        hashes["soft.json"] = inputs.write(workdir / "soft.json", doc)
        hashes["batch.csv"] = inputs.write(workdir / "batch.csv", csv_text)
        hashes["soft_truth.json"] = inputs.write(workdir / "soft_truth.json", truth)
        ops.append({"kind": "classifier", "stem": "soft", "batch": "batch.csv",
                    "rows": c["rows"]})
    elif name == "cli-batch":
        for i in range(CLI_CHECK["files"]):
            stem = f"check{i}"
            hashes.update(_channel(workdir, stem, np.random.default_rng(i), CLI_CHECK,
                                   samples=CLI_CHECK["samples"]))
            ops.append({"kind": "cli-check", "stem": stem})
        for i in range(CLI_SOLVE["files"]):
            stem = f"solve{i}"
            hashes.update(_channel(workdir, stem, np.random.default_rng(100 + i), CLI_SOLVE,
                                   samples=CLI_SOLVE["samples"]))
            ops.append({"kind": "cli-solve", "stem": stem})
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    ops = [ops[i] for i in np.random.default_rng(seed).permutation(len(ops))]
    return {"workload": name, "seed": seed, "ops": ops, "tol": TOL[name],
            "tv_tol": TV_TOL, "inputs": hashes}
