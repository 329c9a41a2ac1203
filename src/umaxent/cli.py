"""Batch experiment front end.

Subcommands: generate, solve, check, reduce. Every solve mode is one EM run
on a channel problem: umaxent the file's, standard the same problem behind
the disjoint-support precondition, classifier the soft or hard-label one.
Exit codes: 0 success/converged, 1 validation or usage error, 2 not
converged (iteration budget exceeded or EM stalled).
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .classifier import SoftClassifierBatch, classifier_problem
from .em import em_solve
from .errors import UMaxEntError, ValidationError
from .harness import SyntheticSpec, dump_json, generate, load_problem
from .model import (
    Distribution,
    _as_float_array,
    feature_expectation,
    log_linear_distribution,
    observation_marginal,
)
from .reductions import (
    has_disjoint_column_supports,
    induced_empirical_x,
    verify_latent_reduction,
    verify_maxent_reduction,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_MAX_ITER = 2


def _em_config(loaded, args):
    """The file's EM settings with the command-line overrides, re-validated."""
    overrides = {"lambda_tol": args.tol, "max_em_iter": args.max_iter,
                 "init_mode": args.init, "seed": args.seed}
    return dataclasses.replace(
        loaded.em_config, **{k: v for k, v in overrides.items() if v is not None})


def _mode_problem(loaded, args):
    """The channel problem that --mode solves."""
    problem = loaded.problem
    if args.ablate_correction and (args.mode != "classifier" or loaded.batch_csv is None):
        raise ValidationError("--ablate-correction needs --mode classifier on a soft batch")
    if args.mode == "standard":
        induced_empirical_x(problem)  # raises unless the column supports are disjoint
    if args.mode != "classifier":
        return problem
    if loaded.label_map is None:
        raise UMaxEntError("problem file has no classifier block")
    if loaded.batch_csv is None:
        return classifier_problem(problem.features, empirical_xi=problem.empirical,
                                  label_map=loaded.label_map, profile=loaded.profile)
    batch = SoftClassifierBatch.from_csv(Path(args.problem).parent / loaded.batch_csv,
                                         loaded.training_prior)
    return classifier_problem(problem.features, batch=batch, label_map=loaded.label_map,
                              apply_correction=not args.ablate_correction)


def _solve_loaded(loaded, args, config):
    """Run EM on the --mode problem; write <stem>_result.json and <stem>_trace.csv."""
    lam, trace = em_solve(_mode_problem(loaded, args), config)
    last = trace.rows[-1]
    result = {
        "mode": args.mode,
        "lambda": lam.lam.tolist(),
        "pr_x": log_linear_distribution(lam, loaded.problem.features).probs.tolist(),
        "residual": last.residual,
        "loglik": last.loglik,
        "converged": trace.converged,
        "termination": trace.termination,
        "iterations": last.iteration,
    }
    out, stem = Path(args.out), Path(args.problem).stem
    out.mkdir(parents=True, exist_ok=True)
    dump_json(result, out / f"{stem}_result.json")
    trace.to_csv(out / f"{stem}_trace.csv")
    return result


def cmd_generate(args):
    fields = dataclasses.fields(SyntheticSpec)
    doc, sidecar = generate(SyntheticSpec(**{f.name: getattr(args, f.name) for f in fields}))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dump_json(doc, out / f"{args.name}.json")
    dump_json(sidecar, out / f"{args.name}_truth.json")
    print(out / f"{args.name}.json")
    return EXIT_OK


def cmd_solve(args):
    loaded = load_problem(args.problem)
    result = _solve_loaded(loaded, args, _em_config(loaded, args))
    return EXIT_OK if result["converged"] else EXIT_MAX_ITER


def _read_truth(path, n_features):
    """The truth sidecar's feature expectations and exact_marginal flag, checked."""
    try:
        sidecar = json.loads(Path(path).read_text())
    except ValueError as exc:  # a JSONDecodeError, or bytes that are not UTF-8
        raise ValidationError(f"truth sidecar {path} is not JSON: {exc}") from exc
    keys = ("lambda_true", "feature_expectations_true")
    if not isinstance(sidecar, dict) or not set(keys) <= sidecar.keys():
        raise ValidationError("truth sidecar needs lambda_true and feature_expectations_true")
    try:
        lam_true, e_true = (_as_float_array(sidecar[key], f"truth sidecar's {key}", 1)
                            for key in keys)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed truth sidecar: {' '.join(str(exc).split())}") from exc
    if lam_true.shape != (n_features,) or e_true.shape != (n_features,):
        raise ValidationError("truth sidecar does not match the problem")
    exact_marginal = sidecar.get("exact_marginal", False)
    if not isinstance(exact_marginal, bool):
        raise ValidationError("truth sidecar's exact_marginal must be true or false")
    return e_true, exact_marginal


def cmd_check(args):
    loaded = load_problem(args.problem)
    problem = loaded.problem
    e_true, exact_marginal = _read_truth(args.truth, problem.features.n_features)
    config = _em_config(loaded, args)
    result = _solve_loaded(loaded, args, config)
    e_solved = feature_expectation(Distribution(result["pr_x"]), problem.features)
    report = {
        "expectation_error": float(np.abs(e_solved - e_true).max()),
        "residual": result["residual"],
        "converged": result["converged"],
        "exact_marginal": exact_marginal,
    }
    if has_disjoint_column_supports(problem.channel):
        report["standard_reduction"] = dataclasses.asdict(
            verify_maxent_reduction(problem, config)
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    print(dump_json(report, out / f"{Path(args.problem).stem}_check.json"), end="")
    return EXIT_OK if result["converged"] else EXIT_MAX_ITER


def cmd_reduce(args):
    loaded = load_problem(args.problem)
    problem, fact = loaded.problem, loaded.factorization
    config = _em_config(loaded, args)
    disjoint = has_disjoint_column_supports(problem.channel)
    reports = []
    if disjoint:
        reports.append(verify_maxent_reduction(problem, config))
    if fact is not None:
        if disjoint:
            empirical_y = observation_marginal(induced_empirical_x(problem), fact.y_channel())
        else:
            empirical_y = problem.empirical
        reports.append(verify_latent_reduction(
            fact, empirical_y, problem.features, config
        ))
    if not reports:
        print("no applicable reduction for this problem", file=sys.stderr)
        return EXIT_VALIDATION
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = [dataclasses.asdict(r) for r in reports]
    print(dump_json(payload, out / f"{Path(args.problem).stem}_reduce.json"), end="")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="umaxent",
        description="Maximum entropy modeling under noisy and partial observations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tol", type=float, default=None, help="EM stops converged once "
                       "the residual, the log-likelihood gradient, is at most TOL (1e-6)")
        p.add_argument("--max-iter", type=int, default=None)
        p.add_argument("--init", choices=["zero", "random", "prior"], default=None)
        p.add_argument("--out", default=".")

    gen = sub.add_parser("generate", help="emit a synthetic problem plus truth sidecar")
    gen.add_argument("--elements", dest="n_elements", type=int, required=True)
    gen.add_argument("--observations", dest="n_observations", type=int, required=True)
    gen.add_argument("--features", dest="n_features", type=int, required=True)
    gen.add_argument("--lambda-range", type=float, default=1.0)
    gen.add_argument("--epsilon", type=float, default=0.2)
    gen.add_argument("--samples", dest="n_samples", type=int, default=None,
                     help="sample count; omit for the exact marginal")
    gen.add_argument("--name", default="problem")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=".")
    gen.set_defaults(func=cmd_generate)

    def solving(name, func, help_text, *positionals):
        p = sub.add_parser(name, help=help_text)
        for positional in ("problem", *positionals):
            p.add_argument(positional)
        p.add_argument("--mode", choices=["umaxent", "standard", "classifier"], default="umaxent")
        p.add_argument("--ablate-correction", action="store_true",
                       help="classifier mode on a soft batch: no training-prior correction")
        common(p)
        p.set_defaults(func=func)

    solving("solve", cmd_solve, "solve a problem file")
    solving("check", cmd_check, "solve and compare against a truth sidecar", "truth")

    red = sub.add_parser("reduce", help="run the reduction verifiers")
    red.add_argument("problem")
    common(red)
    red.set_defaults(func=cmd_reduce)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_VALIDATION if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (UMaxEntError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
