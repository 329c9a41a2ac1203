"""Batch experiment front end.

Subcommands: generate, solve, check, reduce. Exit codes:
0 success/converged, 1 validation error, 2 iteration budget exceeded.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .classifier import SoftClassifierBatch, classifier_em_solve
from .em import em_solve, log_likelihood
from .errors import UMaxEntError, ValidationError
from .harness import SyntheticSpec, dump_json, generate, load_problem
from .model import (
    Distribution,
    feature_expectation,
    log_linear_distribution,
    observation_marginal,
)
from .reductions import (
    has_disjoint_column_supports,
    induced_empirical_x,
    solve_standard_maxent,
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
    try:
        loaded.em_config = dataclasses.replace(
            loaded.em_config, **{k: v for k, v in overrides.items() if v is not None})
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    return loaded.em_config


def _write_result(out_dir, stem, lam, features, residual, loglik, converged,
                  iterations, mode, trace=None):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dist = log_linear_distribution(lam, features)
    result = {
        "mode": mode,
        "lambda": lam.lam.tolist(),
        "pr_x": dist.probs.tolist(),
        "residual": residual,
        "loglik": loglik,
        "converged": converged,
        "iterations": iterations,
    }
    dump_json(result, out_dir / f"{stem}_result.json")
    if trace is not None:
        trace.to_csv(out_dir / f"{stem}_trace.csv")
    return result


def _solve_loaded(loaded, args):
    """Dispatch on --mode; returns (weights, trace_or_None, result_dict)."""
    problem = loaded.problem
    cfg = _em_config(loaded, args)
    stem = Path(args.problem).stem

    if args.mode == "standard":
        empirical_x = induced_empirical_x(problem)
        res = solve_standard_maxent(empirical_x, problem.features, cfg.inner)
        result = _write_result(
            args.out, stem, res.weights, problem.features,
            res.grad_norm, log_likelihood(problem, res.weights),
            res.converged, res.iterations, "standard",
        )
        return res.converged, result

    if args.mode == "classifier":
        if loaded.label_map is None:
            raise UMaxEntError("problem file has no classifier block")
        if loaded.batch_csv is not None:
            batch_path = Path(args.problem).parent / loaded.batch_csv
            batch = SoftClassifierBatch.from_csv(batch_path, loaded.training_prior)
            lam, trace = classifier_em_solve(
                problem.features, batch=batch, label_map=loaded.label_map,
                config=cfg, apply_correction=not args.ablate_correction,
            )
        else:
            lam, trace = classifier_em_solve(
                problem.features, empirical_xi=problem.empirical.dist,
                label_map=loaded.label_map, profile=loaded.profile, config=cfg,
            )
        last = trace.rows[-1]
        result = _write_result(
            args.out, stem, lam, problem.features, last.residual, last.loglik,
            trace.converged, last.iteration, "classifier", trace,
        )
        return trace.converged, result

    lam, trace = em_solve(problem, cfg)
    last = trace.rows[-1]
    result = _write_result(
        args.out, stem, lam, problem.features, last.residual, last.loglik,
        trace.converged, last.iteration, "umaxent", trace,
    )
    return trace.converged, result


def cmd_generate(args):
    spec = SyntheticSpec(
        n_elements=args.elements,
        n_observations=args.observations,
        n_features=args.features,
        lambda_range=args.lambda_range,
        epsilon=args.epsilon,
        n_samples=args.samples,
        seed=args.seed if args.seed is not None else 0,
    )
    doc, sidecar = generate(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dump_json(doc, out / f"{args.name}.json")
    dump_json(sidecar, out / f"{args.name}_truth.json")
    print(out / f"{args.name}.json")
    return EXIT_OK


def cmd_solve(args):
    loaded = load_problem(args.problem)
    converged, _ = _solve_loaded(loaded, args)
    return EXIT_OK if converged else EXIT_MAX_ITER


def cmd_check(args):
    loaded = load_problem(args.problem)
    with open(args.truth) as fh:
        sidecar = json.load(fh)
    problem = loaded.problem
    if len(sidecar.get("lambda_true", [])) != problem.features.n_features:
        print("truth sidecar does not match the problem", file=sys.stderr)
        return EXIT_VALIDATION

    converged, result = _solve_loaded(loaded, args)
    e_true = np.asarray(sidecar["feature_expectations_true"])
    dist = Distribution(np.asarray(result["pr_x"]))
    e_solved = feature_expectation(dist, problem.features)
    report = {
        "expectation_error": float(np.abs(e_solved - e_true).max()),
        "residual": result["residual"],
        "converged": result["converged"],
        "exact_marginal": bool(sidecar.get("exact_marginal", False)),
    }
    if has_disjoint_column_supports(problem.channel):
        report["standard_reduction"] = dataclasses.asdict(
            verify_maxent_reduction(problem, loaded.em_config)
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dump_json(report, out / f"{Path(args.problem).stem}_check.json")
    print(dump_json(report), end="")
    return EXIT_OK if converged else EXIT_MAX_ITER


def cmd_reduce(args):
    loaded = load_problem(args.problem)
    problem, fact = loaded.problem, loaded.factorization
    disjoint = has_disjoint_column_supports(problem.channel)
    reports = []
    if disjoint:
        reports.append(verify_maxent_reduction(problem, loaded.em_config))
    if fact is not None:
        if disjoint:
            empirical_y = observation_marginal(induced_empirical_x(problem), fact.y_channel())
        else:
            empirical_y = problem.empirical.dist
        reports.append(verify_latent_reduction(
            fact, empirical_y, problem.features, loaded.em_config
        ))
    if not reports:
        print("no applicable reduction for this problem", file=sys.stderr)
        return EXIT_VALIDATION
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = "[\n" + ",\n".join(r.to_json() for r in reports) + "\n]\n"
    (out / f"{Path(args.problem).stem}_reduce.json").write_text(payload)
    print(payload, end="")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="umaxent",
        description="Maximum entropy modeling under noisy and partial observations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--max-iter", type=int, default=None)
        p.add_argument("--init", choices=["zero", "random", "prior"], default=None)
        p.add_argument("--out", default=".")

    gen = sub.add_parser("generate", help="emit a synthetic problem plus truth sidecar")
    gen.add_argument("--elements", type=int, required=True)
    gen.add_argument("--observations", type=int, required=True)
    gen.add_argument("--features", type=int, required=True)
    gen.add_argument("--lambda-range", type=float, default=1.0)
    gen.add_argument("--epsilon", type=float, default=0.2)
    gen.add_argument("--samples", type=int, default=None,
                     help="sample count; omit for the exact marginal")
    gen.add_argument("--name", default="problem")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=".")
    gen.set_defaults(func=cmd_generate)

    slv = sub.add_parser("solve", help="solve a problem file")
    slv.add_argument("problem")
    slv.add_argument("--mode", choices=["umaxent", "standard", "classifier"],
                     default="umaxent")
    slv.add_argument("--ablate-correction", action="store_true")
    common(slv)
    slv.set_defaults(func=cmd_solve)

    chk = sub.add_parser("check", help="solve and compare against a truth sidecar")
    chk.add_argument("problem")
    chk.add_argument("truth")
    chk.add_argument("--mode", choices=["umaxent", "standard", "classifier"],
                     default="umaxent")
    chk.add_argument("--ablate-correction", action="store_true")
    common(chk)
    chk.set_defaults(func=cmd_check)

    red = sub.add_parser("reduce", help="run the reduction verifiers")
    red.add_argument("problem")
    common(red)
    red.set_defaults(func=cmd_reduce)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UMaxEntError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
