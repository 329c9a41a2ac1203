"""The measured process: runs one workload's passes through umaxent and records raw timings.

Started by run.py with BLAS threads pinned and ``PYTHONPATH=src``; it writes
its measurements as JSON to the path given by ``--out``. Usage:

    python3 perfbench/worker.py --plan PLAN --out RESULT --seconds S --trace 0|1
"""

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import umaxent
import umaxent.cli
from inputs import softmax
from tracing import COUNT_KEYS, Tracer

CLI_TIMEOUT_S = 120

# Runs `python -m umaxent.cli ARGS` in a forked child and prints the child's
# peak RSS in KiB. Linux folds the parent's peak RSS into a child's
# ru_maxrss when the child is created, so the CLI must be forked from this
# small interpreter, not from the worker, for its own peak to show.
CLI_LAUNCHER = """
import os, sys
pid = os.fork()
if pid == 0:
    try:
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        os.execv(sys.executable, [sys.executable, "-m", "umaxent.cli"] + sys.argv[1:])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
print(usage.ru_maxrss)
sys.exit(os.waitstatus_to_exitcode(status))
"""


def _peak_rss_mb():
    """This process's own peak RSS, from VmHWM (ru_maxrss also counts the parent's)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _direct(_name, fn, *args, **kwargs):
    """Stands in for Tracer.call when nothing is traced."""
    return fn(*args, **kwargs)


def _expectation_error(features, pr_x, truth_path):
    truth = np.asarray(json.loads(Path(truth_path).read_text())["feature_expectations_true"])
    return float(np.abs(features @ pr_x - truth).max())


class Runner:
    """Runs the ops of a plan, untraced or through a Tracer."""

    def __init__(self, plan, workdir):
        self.plan = plan
        self.workdir = Path(workdir)
        self.outdir = self.workdir / "out"
        self.outdir.mkdir(exist_ok=True)

    def _path(self, op, suffix=".json"):
        return str(self.workdir / f"{op['stem']}{suffix}")

    def _argv(self, op):
        if op["kind"] == "cli-check":
            return ["check", self._path(op), self._path(op, "_truth.json"), "--out", str(self.outdir)]
        return ["solve", self._path(op), "--out", str(self.outdir)]

    # One op, untraced: setup through the public loaders, solve, check.
    def run_op(self, op):
        rec = {"stem": op["stem"]}
        t0 = t1 = time.perf_counter()
        try:
            loaded, batch = self.load(op)
            t1 = time.perf_counter()
            if op["kind"].startswith("cli"):
                for suffix in ("_result.json", "_check.json"):
                    (self.outdir / f"{op['stem']}{suffix}").unlink(missing_ok=True)
                proc = subprocess.run(
                    [sys.executable, "-c", CLI_LAUNCHER, *self._argv(op)],
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                    timeout=CLI_TIMEOUT_S)
                t2 = time.perf_counter()
                rec["cli_rss_mb"] = int(proc.stdout) / 1024
                rec["err"], rec["why"] = self._check_cli(op, loaded, proc.returncode)
            else:
                lam, trace = self.solve(op, loaded, batch)
                t2 = time.perf_counter()
                rec["err"], rec["why"] = self._check_api(op, loaded, lam, trace)
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            t2 = time.perf_counter()
            rec["err"], rec["why"] = None, f"raised {type(exc).__name__}: {exc}"
        rec.update(setup_s=t1 - t0, solve_s=t2 - t1, wall_s=time.perf_counter() - t0,
                   ok=rec["why"] is None)
        return rec

    def load(self, op, call=_direct):
        """Input files to validated objects through the public loaders."""
        loaded = call("harness.load_problem", umaxent.load_problem, self._path(op))
        batch = None
        if op["kind"] == "classifier":
            batch = call("classifier.from_csv", umaxent.SoftClassifierBatch.from_csv,
                         self.workdir / op["batch"], loaded.training_prior)
        return loaded, batch

    def solve(self, op, loaded, batch, tracer=None):
        call = tracer.call if tracer else _direct
        if op["kind"] == "classifier":
            return call("classifier.classifier_em_solve", umaxent.classifier_em_solve,
                        loaded.problem.features, batch=batch, label_map=loaded.label_map,
                        config=loaded.em_config)
        return call("em.em_solve", umaxent.em_solve, loaded.problem, loaded.em_config)

    # Checks return (feature expectation error, reason the op failed or None).
    def _check_api(self, op, loaded, lam, trace):
        features = loaded.problem.features.values
        err = _expectation_error(features, softmax(np.asarray(lam.lam) @ features),
                                 self._path(op, "_truth.json"))
        if not trace.converged:
            return err, f"not converged ({trace.termination})"
        return err, self._check_error(err)

    def _check_cli(self, op, loaded, code):
        if code != 0:
            return None, f"exit code {code}"
        result = json.loads((self.outdir / f"{op['stem']}_result.json").read_text())
        err = _expectation_error(loaded.problem.features.values, np.asarray(result["pr_x"]),
                                 self._path(op, "_truth.json"))
        if result["converged"] is not True:
            return err, "result not converged"
        if op["kind"] == "cli-check":
            report = json.loads((self.outdir / f"{op['stem']}_check.json").read_text())
            tv = report["standard_reduction"]["tv_distance"]
            if not tv <= self.plan["tv_tol"]:
                return err, f"standard reduction tv_distance {tv:.3g} > {self.plan['tv_tol']}"
        return err, self._check_error(err)

    def _check_error(self, err):
        if not err <= self.plan["tol"]:
            return f"feature expectation error {err:.3g} > tolerance {self.plan['tol']}"
        return None

    # In-process execution, used by the traced run.
    def run_inprocess(self, op, tracer=None):
        """Load and solve in this process; return the seconds of the solve alone."""
        call = tracer.call if tracer else _direct
        if op["kind"].startswith("cli"):
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = call("cli.main", umaxent.cli.main, self._argv(op))
            if code != 0:
                raise RuntimeError(f"umaxent.cli.main exited {code} on {op['stem']}")
            return time.perf_counter() - t0
        loaded, batch = self.load(op, call)
        t0 = time.perf_counter()
        self.solve(op, loaded, batch, tracer)
        return time.perf_counter() - t0


def _startup_seconds():
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import umaxent.cli"], check=True, timeout=CLI_TIMEOUT_S)
    return time.perf_counter() - t0


def run_traced_pass(runner, ops, first, records):
    """One pass in which every op runs untraced, then twice traced.

    Returns the pass's layer metrics from the first traced execution and a
    list of errors: traced executions that raised, and counts that differ
    between the two traced executions.
    """
    tracer_a, tracer_b = Tracer(), Tracer()
    base, startup, errors = [], 0.0, []
    for i, op in enumerate(ops):
        records.append(runner.run_op(op))
        if op["kind"].startswith("cli"):
            base.append(runner.run_inprocess(op))
            startup += _startup_seconds()
        else:
            base.append(records[-1]["solve_s"])
        # tracemalloc slows small-object-heavy solves about fourfold, so only
        # the pass's first op has its allocation peak measured.
        tracer_b.alloc = i == 0
        for tracer in (tracer_a, tracer_b):
            tracer.op = first + i
            tracer.install()
            if tracer.alloc:
                tracemalloc.start()
            try:
                runner.run_inprocess(op, tracer)
            except Exception as exc:  # reported as a trace error; the run goes on
                errors.append({"op": op["stem"], "raised": f"{type(exc).__name__}: {exc}"})
            finally:
                if tracer.alloc:
                    tracemalloc.stop()
                tracer.uninstall()
    if tracer_a.counts() != tracer_b.counts():
        errors.append({"first run": tracer_a.counts(), "second run": tracer_b.counts()})
    layers = tracer_a.layer_metrics()
    layers.update({
        "cli.startup_s": startup,
        "em.alloc_peak_mb": tracer_b.alloc_peak / 1e6,
        "harness.load_bytes": tracer_a.load_bytes,
        "traced_op_s": tracer_a.op_seconds(),
        "untraced_op_s": base,
        "absent": tracer_a.absent,
    })
    return layers, errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--plan", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    plan = json.loads(Path(args.plan).read_text())
    runner = Runner(plan, Path(args.plan).parent)
    ops = plan["ops"]
    records, passes, trace_errors = [], [], []
    if not args.trace:
        # One op before the clock starts: a process's first solve also pays
        # for cold caches and for growing the heap. It is checked like any
        # other op but left out of the timings.
        records.append(dict(runner.run_op(ops[0]), warmup=True))
    start = time.perf_counter()
    while True:
        if args.trace:
            layers, bad = run_traced_pass(runner, ops, len(records), records)
            passes.append(layers)
            trace_errors.extend(bad)
        else:
            records.extend(runner.run_op(op) for op in ops)
            passes.append(None)
        elapsed = time.perf_counter() - start
        # Whole passes only, so every run measures the same mix of ops; stop
        # where the run length comes closest to the budget.
        if elapsed + elapsed / len(passes) / 2 > args.seconds:
            break

    if args.trace:
        first = {k: passes[0][k] for k in COUNT_KEYS}
        for p in passes[1:]:
            if {k: p[k] for k in COUNT_KEYS} != first:
                trace_errors.append({"first pass": first, "later pass": {k: p[k] for k in COUNT_KEYS}})

    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {
        "records": records,
        "wall_s": time.perf_counter() - start,
        "passes": len(passes),
        "trace": passes if args.trace else None,
        "trace_errors": trace_errors,
        "peak_rss_mb": _peak_rss_mb(),
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "umaxent_file": os.path.relpath(umaxent.__file__),
        },
    }
    Path(args.out).write_text(json.dumps(out))


if __name__ == "__main__":
    main()
