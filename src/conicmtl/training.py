"""Block-coordinate training for conic, average, pareto-path and single-task
multiple-kernel models, plus prediction and model (de)serialization.

The trained objective, in separated per-kernel coordinates, is

    F(w, theta, lam) = sum_t lam_t ( sum_m ||w_t^m||^2 / (2 theta_m)
                                     + C * sum_i hinge(margin_t_i) )

with theta on the unit Lp ball and lam in a box under a reciprocal budget.
Each outer iteration runs w-step, theta-step, lambda-step in that order;
every step is an exact (or tolerance-guarded) minimizer of its block, so
the recorded objective trace never increases in conic or average mode.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .bounds import margin_loss
from .data import Scaler, TaskDataset
from .kernels import KernelSpec, combine, expand
from .solvers import DualSolution, component_sq_norms, lambda_step, solve_svm_dual, theta_step
from .util import conjugate_exponent, lp_norm

MODEL_FORMAT_VERSION = 1

MODES = ("conic", "average", "pareto")


@dataclass(frozen=True)
class TrainConfig:
    C: float = 1.0
    p: float = 2.0
    budget: float = 1.0
    r_max: float = 8.0
    mode: str = "conic"
    p_exp: float = 0.5
    use_bias: bool = False
    tol_rel_obj: float = 1e-5
    max_outer_iters: int = 50
    seed: int = 0
    svm_tol: float = 1e-6
    svm_max_iter: int = 100_000

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if not 0 < self.C < np.inf:
            raise ValueError(f"C must be positive and finite, got {self.C}")
        if not self.p >= 1.0:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if not self.budget > 0:
            raise ValueError(f"budget must be positive, got {self.budget}")
        if not 1.0 < self.r_max < np.inf:
            raise ValueError(f"r_max must exceed 1 and be finite, got {self.r_max}")
        if not 0 < self.tol_rel_obj < np.inf:
            raise ValueError(f"tol_rel_obj must be positive and finite, got {self.tol_rel_obj}")
        if self.max_outer_iters < 1:
            raise ValueError(f"max_outer_iters must be positive, got {self.max_outer_iters}")
        if not self.svm_tol > 0:
            raise ValueError(f"svm_tol must be positive, got {self.svm_tol}")
        if self.svm_max_iter < 1:
            raise ValueError(f"svm_max_iter must be positive, got {self.svm_max_iter}")
        if self.mode == "pareto" and not (0.0 < self.p_exp <= 1.0):
            raise ValueError("pareto exponent must lie in (0, 1]")


@dataclass
class MtlModel:
    """Trained state: kernel and task weight arrays (config holds their bounds), duals, trace.

    converged: the outer loop met tol_rel_obj and every accepted w-step met its gap.
    scaler: the standardization applied to the training features, if any.
    """

    config: TrainConfig
    kernel_specs: list
    theta: np.ndarray
    task_weights: np.ndarray
    duals: list
    objective_trace: list
    tasks: list
    converged: bool
    scaler: Scaler | None = None

    def task_index(self, task_id: str) -> int:
        for i, task in enumerate(self.tasks):
            if task.task_id == task_id:
                return i
        raise KeyError(f"unknown task id {task_id!r}")


def pareto_lambda(f, p_exp: float) -> np.ndarray:
    """Task weights that make the Lp-scalarized objective stationary.

    For p > 1:      f_t^(p-1) / sum_s f_s^p
    for p = 1:      all ones
    for 0 < p < 1:  (sum_s f_s^p)^((1-p)/p) / f_t^(1-p)

    The p < 1 branch is scale invariant, always exceeds 1, decreases toward
    1 as p -> 1, and is exactly the reciprocal of the budget-ball solution
    that characterizes these weights.
    """
    f = np.asarray(f, dtype=np.float64)
    if np.any(f <= 0):
        raise ValueError("task objectives must be strictly positive")
    if not p_exp > 0:
        raise ValueError("exponent must be positive")
    if p_exp == 1.0:
        return np.ones_like(f)
    if p_exp > 1.0:
        return f ** (p_exp - 1.0) / float((f**p_exp).sum())
    total = float((f**p_exp).sum()) ** ((1.0 - p_exp) / p_exp)
    return total / f ** (1.0 - p_exp)


def _hinge_total(dual: DualSolution, y: np.ndarray, C: float, use_bias: bool) -> float:
    margins = dual.margins + y * dual.bias if use_bias else dual.margins
    return float(C * np.maximum(0.0, 1.0 - margins).sum())


def _regularizer(comp: np.ndarray, theta: np.ndarray):
    """sum_m comp_m / (2 theta_m) with 0/0 treated as 0, per row of comp."""
    return np.divide(comp, 2.0 * theta, out=np.zeros(comp.shape), where=theta > 0).sum(axis=-1)


def _validate_fit_inputs(tasks, stacks, kernel_specs):
    if len(tasks) == 0:
        raise ValueError("no tasks to train")
    if len(tasks) != len(stacks):
        raise ValueError("tasks and gram stacks must align")
    n_kernels = stacks[0].n_kernels
    if len(kernel_specs) != n_kernels:
        raise ValueError(f"{len(kernel_specs)} kernel specs for gram stacks of {n_kernels} kernels")
    for task, stack in zip(tasks, stacks):
        if stack.n_kernels != n_kernels:
            raise ValueError("all tasks must share the kernel dictionary")
        if stack.n_samples != task.y.size:
            raise ValueError(f"stack size mismatch for task {task.task_id!r}")
        if np.all(task.y == task.y[0]):
            raise ValueError(f"degenerate task {task.task_id!r}: one class only")


def fit(tasks, stacks, config: TrainConfig, kernel_specs) -> MtlModel:
    """Train by block-coordinate descent.

    tasks and stacks are parallel lists (one entry per task). kernel_specs,
    the dictionary the stacks were built with, is carried into the model
    for prediction-time kernel evaluation.
    """
    _validate_fit_inputs(tasks, stacks, kernel_specs)
    T = len(tasks)
    M = stacks[0].n_kernels
    p_star = conjugate_exponent(config.p)
    costs = np.array([s.trace_norm(p_star) for s in stacks])

    if config.mode == "conic":
        if float((costs / config.r_max).sum()) > config.budget * (1.0 + 1e-12):
            raise ValueError(
                "infeasible budget/r_max pair: the task-weight subproblem has no feasible point"
            )

    theta = np.full(M, M ** (-1.0 / config.p))
    lam = np.ones(T)
    if config.mode == "conic":
        # start at the feasible uniform point closest to all-ones, so the
        # first lambda-step descends instead of repairing feasibility
        kappa = float(costs.sum()) / config.budget
        if kappa > 1.0:
            lam = np.full(T, min(kappa, config.r_max))

    duals = [None] * T
    comps = np.zeros((T, M))
    hinges = config.C * np.array([t.y.size for t in tasks], dtype=float)  # w = 0 start, loss l(0) = 1 each
    J = hinges.copy()
    trace = [float((lam * J).sum())]

    converged = False
    solves_converged = True  # every accepted w-step certified its duality gap
    for _ in range(config.max_outer_iters):
        f_prev_iter = trace[-1]

        # w-step: per-task SVM against the combined kernel. The gap
        # tolerance tightens with the current objective so the step can
        # never raise the trace beyond the monotonicity tolerance. It is
        # derived from the unweighted objectives: the solver must behave
        # identically under any common scaling of the task weights.
        tol = min(config.svm_tol, max(1e-13, 1e-11 * float(J.sum()) / T))
        for t, (task, stack) in enumerate(zip(tasks, stacks)):
            K = combine(stack, theta)
            cand = solve_svm_dual(
                K, task.y, config.C, use_bias=config.use_bias, tol=tol, max_iter=config.svm_max_iter,
                alpha0=None if duals[t] is None else duals[t].alpha,
            )
            if duals[t] is None or cand.objective <= J[t]:
                duals[t] = cand
                solves_converged &= cand.converged
                comps[t] = component_sq_norms(cand.alpha, task.y, stack, theta)
                hinges[t] = _hinge_total(cand, task.y, config.C, config.use_bias)
                J[t] = cand.objective
        trace.append(float((lam * J).sum()))

        # theta-step: closed form on u_m = sum_t lam_t ||w_t^m||^2, kept
        # only if it does not lose to the current weights numerically. The
        # sum runs in task order and, like a sum started at +0, has no -0.
        u = (lam[:, None] * comps).cumsum(axis=0)[-1] + 0.0
        if (u > 0).any():
            theta_new = theta_step(u, config.p)
            if _regularizer(u, theta_new) <= _regularizer(u, theta):
                theta = theta_new
        J = _regularizer(comps, theta) + hinges
        trace.append(float((lam * J).sum()))

        # lambda-step (identity in average mode so traces stay comparable)
        if config.mode == "conic":
            lam_new = lambda_step(J, costs, config.budget, config.r_max)
            if float((lam_new * J).sum()) <= trace[-1]:  # trace[-1] is the value at lam
                lam = lam_new
        elif config.mode == "pareto":
            target = pareto_lambda(np.maximum(J, 1e-300), config.p_exp)
            lam = 0.5 * lam + 0.5 * target
        trace.append(float((lam * J).sum()))

        if abs(trace[-1] - f_prev_iter) <= config.tol_rel_obj * max(abs(f_prev_iter), 1e-12):
            converged = True
            break

    # components re-expressed at the final kernel weights, matching the
    # (alpha, theta) pair that prediction uses
    final_duals = [
        replace(d, component_sq_norms=component_sq_norms(d.alpha, task.y, stack, theta))
        for d, task, stack in zip(duals, tasks, stacks)
    ]

    if not np.isfinite(lam).all():  # pareto weights follow J, which can overflow
        raise ValueError(f"task weights must be finite, got {lam}")

    return MtlModel(
        config=config,
        kernel_specs=list(kernel_specs),
        theta=theta,
        task_weights=lam,
        duals=final_duals,
        objective_trace=trace,
        tasks=list(tasks),
        converged=converged and solves_converged,
    )


def decision_values(model: MtlModel, task_id: str, X_test) -> np.ndarray:
    """Kernel-expansion decision values f(x) = sum_i alpha_i y_i k_theta(x_i, x) + bias.

    Only the support vectors (alpha_i != 0) enter, in one kernels.expand pass.
    """
    t = model.task_index(task_id)
    task = model.tasks[t]
    dual = model.duals[t]
    X_test = np.asarray(X_test, dtype=np.float64)
    if X_test.ndim != 2 or X_test.shape[1] != task.X.shape[1]:
        raise ValueError(
            f"test features must be 2-d with {task.X.shape[1]} columns, got {X_test.shape}"
        )
    coef = dual.alpha * task.y
    sv = np.flatnonzero(coef)
    out = expand(model.kernel_specs, model.theta, task.X[sv], coef[sv], X_test)
    if model.config.use_bias:
        out += dual.bias
    return out


def predict(model: MtlModel, task_id: str, X_test):
    """Labels (sign of the decision value, with sign(0) = +1) and decisions."""
    values = decision_values(model, task_id, X_test)
    labels = np.where(values >= 0.0, 1.0, -1.0)
    return labels, values


def weighted_empirical_loss(model: MtlModel, rho: float, stacks) -> float:
    """Weighted ramp-loss average over the training samples.

    (1 / total_count) * sum_t lam_t * sum_i ramp(y_t_i f_t(x_t_i); rho),
    where ramp is 0 above rho, 1 below 0 and linear between. The training
    decision values come from stacks, the tasks' training Gram stacks.
    """
    theta = model.theta
    total = 0.0
    count = 0
    if len(stacks) != len(model.tasks):
        raise ValueError(f"expected one stack per task ({len(model.tasks)}), got {len(stacks)}")
    for lam, task, dual, stack in zip(model.task_weights, model.tasks, model.duals, stacks):
        if stack.grams.shape != (theta.size, task.y.size, task.y.size):
            raise ValueError(f"stack of task {task.task_id!r} has shape {stack.grams.shape}")
        coef = dual.alpha * task.y
        values = np.zeros(task.y.size)
        for m in np.flatnonzero(theta):
            values += theta[m] * (coef @ stack.grams[m])
        if model.config.use_bias:
            values += dual.bias
        total += lam * float(margin_loss(task.y * values, rho).sum())
        count += task.y.size
    return total / count


def task_data_hash(task: TaskDataset) -> str:
    h = hashlib.sha256()
    h.update(task.task_id.encode())
    h.update(np.ascontiguousarray(task.X, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(task.y, dtype="<f8").tobytes())
    return h.hexdigest()


def _hex_vector(values) -> str:
    return " ".join(float(v).hex() for v in np.asarray(values, dtype=float).ravel())


def _unhex_vector(text: str) -> np.ndarray:
    return np.array([float.fromhex(tok) for tok in text.split()], dtype=np.float64)


# the stored TrainConfig fields, in document order: (name, encode, decode)
_CONFIG_KEYS = (
    ("mode", str, str),
    *(
        (name, lambda v: float(v).hex(), float.fromhex)
        for name in ("C", "p", "budget", "r_max", "p_exp", "tol_rel_obj", "svm_tol")
    ),
    ("use_bias", lambda flag: str(int(flag)), lambda text: bool(int(text))),
    *((name, str, int) for name in ("max_outer_iters", "svm_max_iter", "seed")),
)
_DUAL_SCALARS = ("bias", "objective", "duality_gap")  # the floats of a [task] section, in document order


def _config_copies(config: TrainConfig):
    """The ([section], key, value) lines that repeat the config; pareto weights have budget inf."""
    budget = float("inf") if config.mode == "pareto" else config.budget
    return (("theta", "p", config.p), ("lambda", "r_max", config.r_max), ("lambda", "budget", budget))


def save_model(model: MtlModel, path) -> None:
    """Write a versioned text document for the trained model.

    Floats are stored in hex so a save/load round trip reproduces decision
    values bit for bit. Training features are not embedded; per-task sha256
    hashes let load verify the supplied data matches.
    """
    cfg = model.config
    lines = [f"conicmtl-model v{MODEL_FORMAT_VERSION}", "[config]"]
    for name, encode, _ in _CONFIG_KEYS:
        lines.append(f"{name} = {encode(getattr(cfg, name))}")
    lines.append(f"converged = {int(model.converged)}")
    lines.append("[kernels]")
    for spec in model.kernel_specs:
        lines.append(f"spec = {spec.label()}")
    for section, values in (("theta", model.theta), ("lambda", model.task_weights)):
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {float(value).hex()}" for name, key, value in _config_copies(cfg) if name == section)
        lines.append(f"values = {_hex_vector(values)}")
    lines.append("[trace]")
    lines.append(f"values = {_hex_vector(model.objective_trace)}")
    if model.scaler is not None:
        lines.append("[scaler]")
        lines.append(f"mean = {_hex_vector(model.scaler.mean)}")
        lines.append(f"scale = {_hex_vector(model.scaler.scale)}")
    for task, dual in zip(model.tasks, model.duals):
        lines.append(f"[task {task.task_id}]")
        lines.append(f"hash = {task_data_hash(task)}")
        lines.extend(f"{key} = {float(getattr(dual, key)).hex()}" for key in _DUAL_SCALARS)
        lines.append(f"alpha = {_hex_vector(dual.alpha)}")
        lines.append(f"component_sq_norms = {_hex_vector(dual.component_sq_norms)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path, tasks) -> MtlModel:
    """Rebuild a model from its document plus the original training tasks.

    tasks may be any iterable of TaskDataset. Each referenced task must be
    present and hash-identical to what was trained on. Every error names the
    file; a value that is missing or does not decode names its section and key.
    """
    by_id = {t.task_id: t for t in tasks}

    with open(path, "r", encoding="utf-8") as fh:
        content = fh.read().splitlines()
    if not content or not content[0].startswith("conicmtl-model v"):
        raise ValueError(f"{path}: not a model document")
    if content[0] != f"conicmtl-model v{MODEL_FORMAT_VERSION}":
        raise ValueError(f"{path}: unsupported model version header {content[0]!r}")

    sections: dict = {"": {}}  # section name -> {key: text}, in document order; "" holds any line before the first
    labels = []  # the spec lines of [kernels], in order
    section = ""
    for line in map(str.strip, content[1:]):
        if not line:
            continue
        key, _, value = line.partition(" = ")
        if line.startswith("["):
            section = line[1:-1]
            sections[section] = {}
        elif section == "kernels":
            labels.append(value)
        else:
            sections[section][key] = value

    def field(section, key, decode=str, text=None):
        if text is None:
            if key not in sections.get(section, {}):
                raise ValueError(f"{path}: no key {key!r} in section [{section}]")
            text = sections[section][key]
        try:
            return decode(text)
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: [{section}] {key} = {text}: {exc}") from exc

    settings = {name: field("config", name, decode) for name, _, decode in _CONFIG_KEYS}
    try:
        config = TrainConfig(**settings)
    except ValueError as exc:
        raise ValueError(f"{path}: [config]: {exc}") from exc
    converged = field("config", "converged", lambda text: bool(int(text)))
    specs = [field("kernels", "spec", KernelSpec.from_label, label) for label in labels]
    for section, key, value in _config_copies(config):
        if field(section, key, float.fromhex) != value:
            raise ValueError(f"{path}: [{section}] {key} = {field(section, key)} disagrees with [config]")

    theta = field("theta", "values", _unhex_vector)
    if theta.shape != (len(specs),):
        raise ValueError(f"{path}: [theta] has {theta.size} values for {len(specs)} [kernels] specs")
    if not ((theta >= -1e-12).all() and lp_norm(theta, config.p) <= 1.0 + 1e-9):
        raise ValueError(f"{path}: kernel weights {theta.tolist()} must be nonnegative and in the unit L{config.p!r} ball")
    task_sections = [name for name in sections if name.startswith("task ")]
    lam = field("lambda", "values", _unhex_vector)
    if lam.shape != (len(task_sections),):
        raise ValueError(f"{path}: [lambda] has {lam.size} values for {len(task_sections)} tasks")
    if not np.isfinite(lam).all():
        raise ValueError(f"{path}: task weights must be finite, got {lam.tolist()}")
    # path-tracing (pareto) weights are not box constrained
    if config.mode != "pareto" and not ((lam >= 1.0 - 1e-9).all() and (lam <= config.r_max + 1e-9).all()):
        raise ValueError(f"{path}: task weights {lam.tolist()} lie outside the box [1, r_max = {config.r_max!r}]")

    model_tasks, duals = [], []
    for section in task_sections:
        task_id = section[5:]
        if task_id not in by_id:
            raise ValueError(f"{path}: training task {task_id!r} not supplied to load_model")
        task = by_id[task_id]
        if task_data_hash(task) != field(section, "hash"):
            raise ValueError(f"{path}: training data hash mismatch for task {task_id!r}")
        model_tasks.append(task)
        alpha = field(section, "alpha", _unhex_vector)
        comp = field(section, "component_sq_norms", _unhex_vector)
        if alpha.shape != task.y.shape or comp.shape != theta.shape:
            raise ValueError(
                f"{path}: [{section}] has {alpha.size} alpha for {task.y.size} samples and "
                f"{comp.size} component_sq_norms for {theta.size} kernels"
            )
        duals.append(
            DualSolution(
                alpha=alpha,
                component_sq_norms=comp,
                dual_objective=float("nan"),
                iterations=0,
                converged=converged,  # set only if every solve certified
                margins=np.full(alpha.size, np.nan),
                **{key: field(section, key, float.fromhex) for key in _DUAL_SCALARS},
            )
        )

    scaler = None
    if "scaler" in sections:
        scaler = Scaler(field("scaler", "mean", _unhex_vector), field("scaler", "scale", _unhex_vector))

    return MtlModel(
        config=config,
        kernel_specs=specs,
        theta=theta,
        task_weights=lam,
        duals=duals,
        objective_trace=list(field("trace", "values", _unhex_vector)),
        tasks=model_tasks,
        converged=converged,
        scaler=scaler,
    )
