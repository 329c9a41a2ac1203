"""Spans around umaxent's layer boundaries, recorded from outside the program.

``Tracer.install`` replaces the module bindings through which one layer calls
the next (``umaxent.em.minimize_dual`` and so on) with wrappers that record a
span per call, and ``uninstall`` puts the originals back. Spans stay in memory
as flat arrays; ``layer_metrics`` turns them into the per-layer figures.
"""

import importlib
import os
import time
import tracemalloc
from array import array

# (module, attribute, span name). A span name's prefix is its layer.
BINDINGS = [
    ("umaxent.em", "minimize_dual", "dual.minimize_dual"),
    ("umaxent.em", "e_step", "em.e_step"),
    ("umaxent.em", "likelihood_decomposition", "em.likelihood_decomposition"),
    ("umaxent.em", "log_likelihood", "em.log_likelihood"),
    ("umaxent.em", "log_linear_distribution", "model.log_linear_distribution"),
    ("umaxent.em", "feature_expectation", "model.feature_expectation"),
    ("umaxent.dual", "dual_value", "dual.dual_value"),
    ("umaxent.dual", "dual_gradient", "dual.dual_gradient"),
    ("umaxent.dual", "log_partition", "model.log_partition"),
    ("umaxent.dual", "log_linear_distribution", "model.log_linear_distribution"),
    ("umaxent.dual", "feature_expectation", "model.feature_expectation"),
    ("umaxent.classifier", "soft_e_step", "classifier.soft_e_step"),
    ("umaxent.classifier", "em_solve", "em.em_solve"),
    ("umaxent.reductions", "lagrangian_extra_term", "reductions.lagrangian_extra_term"),
    ("umaxent.reductions", "em_solve", "em.em_solve"),
    ("umaxent.cli", "load_problem", "harness.load_problem"),
    ("umaxent.cli", "em_solve", "em.em_solve"),
    ("umaxent.cli", "verify_maxent_reduction", "reductions.verify_maxent_reduction"),
    ("umaxent.cli", "dump_json", "harness.dump_json"),
    ("umaxent.em", "EmTrace.to_csv", "harness.trace_to_csv"),
]

MODEL_SPANS = ("model.log_linear_distribution", "model.feature_expectation", "model.log_partition")
EVAL_SPANS = ("dual.dual_value", "dual.dual_gradient")
AUDIT_SPANS = ("em.likelihood_decomposition", "em.log_likelihood")
WRITE_SPANS = ("harness.dump_json", "harness.trace_to_csv")
SOLVE_SPANS = ("em.em_solve", "classifier.classifier_em_solve", "cli.main")
COUNT_KEYS = ("em.iters", "em.e_steps", "dual.inner_iters", "dual.evals",
              "classifier.e_steps", "reductions.extra_term_calls")


class Tracer:
    """Records spans (name, start, end, parent span, op id) and per-call observations.

    While ``alloc`` is true it also measures the tracemalloc peak inside each
    outermost ``em_solve``; tracemalloc must then be running.
    """

    def __init__(self, alloc=False):
        self.alloc = alloc
        self.names = []
        self._ids = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op_id = array("l")
        self.op = -1
        self.stack = []
        self.em_iters = 0
        self.inner_iters = 0
        self.capped = 0
        self.alloc_peak = 0
        self.load_bytes = 0
        self.absent = []
        self._saved = []
        self._solve_depth = 0
        self._alloc_base = 0

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named name."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op_id.append(self.op)
        self.end.append(0.0)
        self.stack.append(idx)
        solve = name == "em.em_solve"
        if solve:
            self._solve_depth += 1
            if self.alloc and self._solve_depth == 1:
                self._alloc_base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
        self.start.append(time.perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self.stack.pop()
            if solve:
                self._solve_depth -= 1
        if solve:
            rows = result[1].rows
            self.em_iters += len(rows) - 1
            self.inner_iters += sum(r.inner_iterations for r in rows)
            if self.alloc and self._solve_depth == 0:
                peak = tracemalloc.get_traced_memory()[1] - self._alloc_base
                self.alloc_peak = max(self.alloc_peak, peak)
        elif name == "dual.minimize_dual" and not result.converged:
            self.capped += 1
        elif name == "harness.load_problem" and isinstance(args[0], (str, os.PathLike)):
            self.load_bytes += os.path.getsize(args[0])
        return result

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every binding in BINDINGS; names missing at this commit go to absent."""
        for module_name, attr, span in BINDINGS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(span, original))

    def uninstall(self):
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()

    def counts(self):
        """The exact counters, which must repeat between two traced executions."""
        m = self.layer_metrics()
        return {k: m[k] for k in COUNT_KEYS}

    def op_seconds(self):
        """Duration of each op's outermost solve span, in op order."""
        out = {}
        for idx in range(len(self.start)):
            if self.parent[idx] == -1 and self.names[self.name_id[idx]] in SOLVE_SPANS:
                op = self.op_id[idx]
                out[op] = out.get(op, 0.0) + self.end[idx] - self.start[idx]
        return [out[k] for k in sorted(out)]

    def layer_metrics(self):
        """Totals over every recorded span, keyed by per-layer metric name.

        Self time is a span's duration minus the time its child spans cover.
        Inclusive totals count only the outermost span of each name, so a
        recursive call is not counted twice.
        """
        n = len(self.start)
        child = [0.0] * n
        for idx in range(n):
            p = self.parent[idx]
            if p >= 0:
                child[p] += self.end[idx] - self.start[idx]
        counts = [0] * len(self.names)
        total = [0.0] * len(self.names)
        layer_self = {}
        for idx in range(n):
            nid = self.name_id[idx]
            dur = self.end[idx] - self.start[idx]
            counts[nid] += 1
            layer = self.names[nid].split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + dur - child[idx]
            p = self.parent[idx]
            while p >= 0 and self.name_id[p] != nid:
                p = self.parent[p]
            if p < 0:
                total[nid] += dur

        def t(*names):
            return sum(total[self._ids[s]] for s in names if s in self._ids)

        def c(*names):
            return sum(counts[self._ids[s]] for s in names if s in self._ids)

        return {
            "model.calls": c(*MODEL_SPANS),
            "model.self_s": layer_self.get("model", 0.0),
            "dual.m_steps": c("dual.minimize_dual"),
            "dual.m_step_s": t("dual.minimize_dual"),
            "dual.self_s": layer_self.get("dual", 0.0),
            "dual.inner_iters": self.inner_iters,
            "dual.evals": c(*EVAL_SPANS),
            "dual.capped": self.capped,
            "em.iters": self.em_iters,
            "em.e_steps": c("em.e_step"),
            "em.e_step_s": t("em.e_step"),
            "em.audit_s": t(*AUDIT_SPANS),
            "em.self_s": layer_self.get("em", 0.0),
            "classifier.e_steps": c("classifier.soft_e_step"),
            "classifier.e_step_s": t("classifier.soft_e_step"),
            "classifier.load_s": t("classifier.from_csv"),
            "reductions.verify_s": t("reductions.verify_maxent_reduction"),
            "reductions.extra_term_calls": c("reductions.lagrangian_extra_term"),
            "reductions.extra_term_s": t("reductions.lagrangian_extra_term"),
            "harness.load_s": t("harness.load_problem"),
            "harness.write_s": t(*WRITE_SPANS),
            "cli.main_s": t("cli.main"),
        }
