"""Per-layer tracing by wrapping the package's public functions.

A `Tracer` replaces each traced function under every name a caller in the
`conicmtl` package uses for it (for example both `solvers.solve_svm_dual`
and `training.solve_svm_dual`), so calls are seen however they are made.
Each wrapper records a span: its duration adds to the layer's busy time,
and to the child time of the enclosing span, so that a layer's self time
is its busy time minus the busy time of the traced calls it made. Where
the returned value carries a count (solver passes, Monte Carlo samples,
Gram entries), the wrapper records it too.

The tracer is installed only for traced runs and restores every name on
`uninstall`.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict


class LayerStats:
    """Accumulated counts and times of one traced layer."""

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.counts = defaultdict(float)


def _solver_counts(stats, arguments, result):
    stats.counts["passes"] += result.iterations
    stats.counts["cap_hits"] += result.iterations == arguments["max_iter"]
    stats.counts["gap_met"] += result.duality_gap <= arguments["tol"]


def _fit_counts(stats, arguments, result):
    stats.counts["outer_iters"] += (len(result.objective_trace) - 1) // 3
    stats.counts["converged"] += bool(result.converged)


def _gram_counts(stats, arguments, result):
    stats.counts["entries"] += result.size


def _points_counts(stats, arguments, result):
    stats.counts["points"] += result.size


def _sample_counts(stats, arguments, result):
    stats.counts["samples"] += result.samples


# (module, attribute, layer key, count recorder). Functions of the data
# module share one key, so nested data calls are not counted twice.
TRACED = (
    ("kernels", "build_gram_stack", "kernels.build_gram_stack", None),
    ("kernels", "combine", "kernels.combine", None),
    ("kernels", "compute_gram", "kernels.compute_gram", _gram_counts),
    ("solvers", "solve_svm_dual", "solvers.solve_svm_dual", _solver_counts),
    ("solvers", "component_sq_norms", "solvers.component_sq_norms", None),
    ("solvers", "theta_step", "solvers.theta_step", None),
    ("solvers", "lambda_step", "solvers.lambda_step", None),
    ("training", "fit", "training.fit", _fit_counts),
    ("training", "decision_values", "training.decision_values", _points_counts),
    ("training", "weighted_empirical_loss", "training.weighted_empirical_loss", None),
    ("bounds", "bound_report", "bounds.bound_report", None),
    ("bounds", "rademacher_mc", "bounds.rademacher_mc", _sample_counts),
    ("bounds", "estimate_scale_constant", "bounds.estimate_scale_constant", None),
    ("experiments", "cross_validate", "experiments.cross_validate", None),
    ("experiments", "run_experiment", "experiments.run_experiment", None),
    ("verification", "run_verification_suite", "verification.run_verification_suite", None),
    ("data", "load_sparse_text", "data", None),
    ("data", "load_task_directory", "data", None),
    ("data", "build_ovo_tasks", "data", None),
    ("data", "balanced_resample", "data", None),
    ("data", "stratified_split", "data", None),
    ("data", "synth_multitask", "data", None),
    ("data", "synthetic_benchmark", "data", None),
    ("data", "Scaler.fit", "data", None),
    ("data", "Scaler.transform", "data", None),
    ("data", "TaskDataset.subset", "data", None),
)


class Tracer:
    """Installs timing wrappers; `stats` maps a layer key to `LayerStats`."""

    def __init__(self):
        self.stats = defaultdict(LayerStats)
        self._frames = []  # child-time accumulators of the open spans
        self._open = defaultdict(int)  # open spans per layer key
        self._restore = []

    def reset(self):
        self.stats = defaultdict(LayerStats)

    def _wrap(self, fn, key, recorder):
        signature = inspect.signature(fn) if recorder else None
        frames = self._frames
        open_spans = self._open
        tracer = self

        def traced(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            open_spans[key] += 1
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                frames.pop()
                open_spans[key] -= 1
                if frames:
                    frames[-1][0] += elapsed
                stats = tracer.stats[key]
                if open_spans[key] == 0:
                    stats.calls += 1
                    stats.busy_s += elapsed
                stats.self_s += elapsed - frame[0]
            if recorder is not None:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                recorder(stats, call.arguments, result)
            return result

        return traced

    def install(self):
        """Wrap every traced function under each name the package binds it to."""
        package = sys.modules["conicmtl"]
        modules = [m for name, m in list(sys.modules.items()) if name.startswith("conicmtl")]
        for module_name, attribute, key, recorder in TRACED:
            owner = getattr(package, module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                cls = getattr(owner, class_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, self._wrap(original, key, recorder))
                continue
            original = getattr(owner, attribute)
            wrapper = self._wrap(original, key, recorder)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def _patch(self, target, name, original, wrapper):
        setattr(target, name, wrapper)
        self._restore.append((target, name, original))

    def uninstall(self):
        while self._restore:
            target, name, original = self._restore.pop()
            setattr(target, name, original)


def layer_metrics(stats) -> dict:
    """Per-layer metric values of one traced pass, keyed by metric name."""

    def s(key):
        return stats[key] if key in stats else LayerStats()

    def ratio(num, den):
        return num / den if den else 0.0

    solve = s("solvers.solve_svm_dual")
    fit = s("training.fit")
    mc = s("bounds.rademacher_mc")
    gram = s("kernels.compute_gram")
    out = {}
    for key in (
        "kernels.build_gram_stack",
        "kernels.combine",
        "kernels.compute_gram",
        "solvers.solve_svm_dual",
        "solvers.theta_step",
        "solvers.lambda_step",
        "training.fit",
        "training.decision_values",
        "bounds.bound_report",
        "bounds.rademacher_mc",
        "experiments.cross_validate",
    ):
        out[f"{key}.calls"] = s(key).calls
    for key in (
        "kernels.build_gram_stack",
        "kernels.combine",
        "kernels.compute_gram",
        "solvers.solve_svm_dual",
        "solvers.component_sq_norms",
        "solvers.theta_step",
        "solvers.lambda_step",
        "training.fit",
        "training.decision_values",
        "training.weighted_empirical_loss",
        "bounds.bound_report",
        "bounds.rademacher_mc",
        "bounds.estimate_scale_constant",
        "data",
        "experiments.cross_validate",
        "experiments.run_experiment",
        "verification.run_verification_suite",
    ):
        out[f"{key}.busy_s"] = s(key).busy_s
    for key in ("training.fit", "bounds.bound_report", "experiments.cross_validate"):
        out[f"{key}.self_s"] = s(key).self_s
    out["kernels.compute_gram.entries"] = gram.counts["entries"]
    out["solvers.solve_svm_dual.passes"] = solve.counts["passes"]
    out["solvers.solve_svm_dual.us_per_pass"] = 1e6 * ratio(solve.busy_s, solve.counts["passes"])
    out["solvers.solve_svm_dual.cap_hits"] = solve.counts["cap_hits"]
    out["solvers.solve_svm_dual.gap_met_ratio"] = ratio(solve.counts["gap_met"], solve.calls)
    out["training.fit.outer_iters"] = fit.counts["outer_iters"]
    out["training.fit.converged_ratio"] = ratio(fit.counts["converged"], fit.calls)
    out["training.decision_values.points"] = s("training.decision_values").counts["points"]
    out["bounds.rademacher_mc.samples"] = mc.counts["samples"]
    out["bounds.rademacher_mc.us_per_sample"] = 1e6 * ratio(mc.busy_s, mc.counts["samples"])
    return out


def unit_of(name: str) -> str:
    if name.endswith(("_s",)):
        return "s"
    if name.endswith(("_ratio",)):
        return "fraction"
    if ".us_per_" in name:
        return "us"
    return "count"
