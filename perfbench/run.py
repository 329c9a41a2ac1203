"""Time-to-solution benchmark for umaxent.

Generates one workload's inputs from a seed, runs them in a separate worker
process with BLAS threads pinned, checks every op, and prints a report whose
last line is one JSON object. Run from the repository root:

    python3 perfbench/run.py --workload dense-channel --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a run that wraps umaxent's layer boundaries. See README.md here
for what each workload is for.
"""

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (after the BLAS pinning above)

RUN_TIMEOUT_S = 170
END_TO_END = {"solve_s": "s", "solves_per_s": "1/s", "setup_s": "s", "peak_mem_mb": "MB"}
PER_LAYER = {
    "model.calls": "count", "model.self_s": "s",
    "dual.m_steps": "count", "dual.m_step_s": "s", "dual.self_s": "s",
    "dual.inner_iters": "count", "dual.evals": "count", "dual.evals_per_iter": "ratio",
    "dual.capped": "count",
    "em.iters": "count", "em.e_steps": "count", "em.e_step_s": "s", "em.audit_s": "s",
    "em.self_s": "s", "em.alloc_peak_mb": "MB",
    "classifier.e_steps": "count", "classifier.e_step_s": "s", "classifier.rows_per_s": "rows/s",
    "classifier.load_s": "s",
    "reductions.verify_s": "s", "reductions.extra_term_calls": "count",
    "reductions.extra_term_s": "s",
    "harness.load_s": "s", "harness.load_mb_per_s": "MB/s", "harness.write_s": "s",
    "cli.startup_s": "s", "cli.main_s": "s",
    "trace.overhead": "ratio",
}


def tail(values):
    """Highest whole percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    pct = math.floor(100 * (n - 10) / n)
    ordered = sorted(values)
    return pct, ordered[max(0, math.ceil(pct / 100 * n) - 1)]


def source_id():
    """Commit if this is a git checkout; always a hash of src/umaxent/*.py."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "umaxent").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = ""
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip()
    return commit or "not a git checkout", digest.hexdigest()[:16]


def timed(records):
    """The records whose times count: all but the warm-up op."""
    return [r for r in records if not r.get("warmup")]


def end_to_end(result, plan):
    records = timed(result["records"])
    solve = [r["solve_s"] for r in records]
    passed = sum(r["ok"] for r in records)
    cli_rss = [r["cli_rss_mb"] for r in result["records"] if "cli_rss_mb" in r]
    return {
        "solve_s": statistics.median(solve),
        "solves_per_s": passed / sum(r["wall_s"] for r in records),
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "peak_mem_mb": max(cli_rss) if cli_rss else result["peak_rss_mb"],
    }


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(result, plan):
    passes = result["trace"]
    mean = {k: statistics.fmean(p[k] for p in passes)
            for k, v in passes[0].items() if isinstance(v, (int, float))}
    rows = sum(op.get("rows", 0) for op in plan["ops"])
    traced = [t for p in passes for t in p["traced_op_s"]]
    untraced = [t for p in passes for t in p["untraced_op_s"]]
    mean["dual.evals_per_iter"] = _ratio(mean["dual.evals"], mean["dual.inner_iters"])
    mean["classifier.rows_per_s"] = _ratio(rows * mean["classifier.e_steps"],
                                           mean["classifier.e_step_s"])
    mean["harness.load_mb_per_s"] = _ratio(mean["harness.load_bytes"] / 1e6, mean["harness.load_s"])
    mean["trace.overhead"] = statistics.median(traced) / statistics.median(untraced)
    split = {
        "traced_solve_s": sum(traced) / len(passes),
        "untraced_call_s": sum(r["wall_s"] for r in result["records"]) / len(passes),
    }
    return {k: mean[k] for k in PER_LAYER}, split


def report(name, seed, args, plan, result, metrics, split):
    commit, src_hash = source_id()
    records = result["records"]
    failed = [r for r in records if not r["ok"]]
    env = dict(result["env"], nproc=os.cpu_count(), blas_threads=BLAS_THREADS,
               blas_env="OMP_NUM_THREADS OPENBLAS_NUM_THREADS MKL_NUM_THREADS",
               cli="python -m umaxent.cli with PYTHONPATH=src (console script not installed)",
               commit=commit, src_sha256=src_hash)
    print(f"# workload {name}  seed {seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for path, digest in sorted(plan["inputs"].items()):
        print(f"# input {path} sha256 {digest}")
    warm = len(records) - len(timed(records))
    print(f"# ops {len(records)}: {warm} warm-up, then {result['passes']} pass(es) of "
          f"{len(plan['ops'])}; failed {len(failed)}; "
          f"fail_rate {len(failed) / len(records):.4f} ratio")
    errors = [r["err"] for r in records if r["err"] is not None]
    if errors:
        print(f"# max feature expectation error {max(errors):.3g} (tolerance {plan['tol']})")
    for r in failed:
        print(f"# FAILED {r['stem']}: {r['why']}")
    if not args.trace:
        solves = [r["solve_s"] for r in timed(records)]
        found = tail(solves)
        tail_text = (f"{found[1]:.6g} s (p{found[0]} of {len(solves)} ops)" if found
                     else f"n/a ({len(solves)} ops; needs 11 for ten samples beyond a percentile)")
        print(f"# solve_s_tail {tail_text}")
    else:
        absent = result["trace"][0]["absent"]
        print(f"# absent bindings: {', '.join(absent) if absent else 'none'}")
        for key, value in split.items():
            print(f"# split {key} {value:.6g} s per pass")
        for bad in result["trace_errors"]:
            print(f"# TRACE ERROR {json.dumps(bad, sort_keys=True)}")
    units = PER_LAYER if args.trace else END_TO_END
    for key, value in metrics.items():
        print(f"{key} {value:.6g} {units[key]}")


def main():
    ap = argparse.ArgumentParser(description="umaxent time-to-solution benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "umaxent" / "__init__.py").is_file():
        sys.exit(f"error: {ROOT / 'src' / 'umaxent'} not found; run from a umaxent checkout")

    deadline = time.monotonic() + RUN_TIMEOUT_S
    workdir = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    plan = workloads.build(args.workload, args.seed, workdir)
    (workdir / "plan.json").write_text(json.dumps(plan))

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result_path = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--plan", str(workdir / "plan.json"),
           "--out", str(result_path), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # The worker leads its own process group, so a timeout also stops the
    # CLI processes it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"error: worker did not finish within {RUN_TIMEOUT_S} s")
    if code != 0:
        sys.exit(f"error: worker exited with code {code}")
    result = json.loads(result_path.read_text())

    if args.trace:
        metrics, split = per_layer(result, plan)
    else:
        metrics, split = end_to_end(result, plan), None
    report(args.workload, args.seed, args, plan, result, metrics, split)

    failed = sum(not r["ok"] for r in result["records"])
    line = {
        "correct": failed == 0 and not result["trace_errors"],
        "attempted": len(result["records"]),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": (PER_LAYER if args.trace else END_TO_END)[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(line))


if __name__ == "__main__":
    main()
