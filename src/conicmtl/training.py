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
from .kernels import KernelSpec, KernelWeights, combine, expand
from .solvers import DualSolution, TaskWeights, component_sq_norms, lambda_step, solve_svm_dual, theta_step
from .util import conjugate_exponent

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
    """Trained state: kernel weights, task weights, per-task duals, trace.

    converged: the outer loop met tol_rel_obj and every accepted w-step met its gap.
    scaler: the standardization applied to the training features, if any.
    """

    config: TrainConfig
    kernel_specs: list
    theta: KernelWeights
    task_weights: TaskWeights
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


def _validate_fit_inputs(tasks, stacks):
    if len(tasks) == 0:
        raise ValueError("no tasks to train")
    if len(tasks) != len(stacks):
        raise ValueError("tasks and gram stacks must align")
    n_kernels = stacks[0].n_kernels
    for task, stack in zip(tasks, stacks):
        if stack.n_kernels != n_kernels:
            raise ValueError("all tasks must share the kernel dictionary")
        if stack.n_samples != task.y.size:
            raise ValueError(f"stack size mismatch for task {task.task_id!r}")
        if np.all(task.y == task.y[0]):
            raise ValueError(f"degenerate task {task.task_id!r}: one class only")


def fit(tasks, stacks, config: TrainConfig, kernel_specs=None) -> MtlModel:
    """Train by block-coordinate descent.

    tasks and stacks are parallel lists (one entry per task). kernel_specs
    is carried into the model for prediction-time kernel evaluation; pass
    the dictionary the stacks were built with.
    """
    _validate_fit_inputs(tasks, stacks)
    T = len(tasks)
    M = stacks[0].n_kernels
    p_star = conjugate_exponent(config.p)
    costs = np.array([s.trace_norm(p_star) for s in stacks])

    if config.mode == "conic":
        if float((costs / config.r_max).sum()) > config.budget * (1.0 + 1e-12):
            raise ValueError(
                "infeasible budget/r_max pair: the task-weight subproblem has no feasible point"
            )

    theta = KernelWeights.uniform(M, config.p)
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
            if _regularizer(u, theta_new.values) <= _regularizer(u, theta.values):
                theta = theta_new
        J = _regularizer(comps, theta.values) + hinges
        trace.append(float((lam * J).sum()))

        # lambda-step (identity in average mode so traces stay comparable)
        if config.mode == "conic":
            lam_new = lambda_step(J, costs, config.budget, config.r_max).values
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

    if config.mode != "pareto":
        weights = TaskWeights(lam, config.r_max, config.budget)  # all ones in average mode
    else:
        # path-tracing weights are not box constrained
        weights = TaskWeights(lam, config.r_max, float("inf"), enforce_box=False)

    return MtlModel(
        config=config,
        kernel_specs=list(kernel_specs) if kernel_specs is not None else [],
        theta=theta,
        task_weights=weights,
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
    if not model.kernel_specs:
        raise ValueError("model carries no kernel specs; cannot evaluate kernels")
    coef = dual.alpha * task.y
    sv = np.flatnonzero(coef)
    out = expand(model.kernel_specs, model.theta.values, task.X[sv], coef[sv], X_test)
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
    theta = model.theta.values
    lam = model.task_weights.values
    total = 0.0
    count = 0
    for t, (task, stack) in enumerate(zip(model.tasks, stacks, strict=True)):
        if stack.grams.shape != (theta.size, task.y.size, task.y.size):
            raise ValueError(f"stack of task {task.task_id!r} has shape {stack.grams.shape}")
        coef = model.duals[t].alpha * task.y
        values = np.zeros(task.y.size)
        for m in np.flatnonzero(theta):
            values += theta[m] * (coef @ stack.grams[m])
        if model.config.use_bias:
            values += model.duals[t].bias
        total += lam[t] * float(margin_loss(task.y * values, rho).sum())
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
    text = text.strip()
    if not text:
        return np.zeros(0)
    return np.array([float.fromhex(tok) for tok in text.split()])


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
    lines.append("[theta]")
    lines.append(f"p = {float(model.theta.p).hex()}")
    lines.append(f"values = {_hex_vector(model.theta.values)}")
    lines.append("[lambda]")
    lines.append(f"r_max = {float(model.task_weights.r_max).hex()}")
    lines.append(f"budget = {float(model.task_weights.budget).hex()}")
    lines.append(f"values = {_hex_vector(model.task_weights.values)}")
    lines.append("[trace]")
    lines.append(f"values = {_hex_vector(model.objective_trace)}")
    if model.scaler is not None:
        lines.append("[scaler]")
        lines.append(f"mean = {_hex_vector(model.scaler.mean)}")
        lines.append(f"scale = {_hex_vector(model.scaler.scale)}")
    for task, dual in zip(model.tasks, model.duals):
        lines.append(f"[task {task.task_id}]")
        lines.append(f"hash = {task_data_hash(task)}")
        lines.append(f"bias = {float(dual.bias).hex()}")
        lines.append(f"objective = {float(dual.objective).hex()}")
        lines.append(f"duality_gap = {float(dual.duality_gap).hex()}")
        lines.append(f"alpha = {_hex_vector(dual.alpha)}")
        lines.append(f"component_sq_norms = {_hex_vector(dual.component_sq_norms)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path, tasks) -> MtlModel:
    """Rebuild a model from its document plus the original training tasks.

    tasks may be any iterable of TaskDataset. Each referenced task must be
    present and hash-identical to what was trained on.
    """
    by_id = {t.task_id: t for t in tasks}

    with open(path, "r", encoding="utf-8") as fh:
        content = fh.read().splitlines()
    if not content or not content[0].startswith("conicmtl-model v"):
        raise ValueError(f"{path}: not a model document")
    version = int(content[0].rsplit("v", 1)[1])
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported model version {version}")

    section = None
    data: dict = {"tasks": [], "kernel_labels": []}
    for line in content[1:]:
        line = line.strip()
        if not line:
            continue
        if line.startswith("["):
            section = line[1:-1]
            if section.startswith("task "):
                data["tasks"].append({"id": section[5:]})
                section = "task"
            elif section != "kernels":
                data[section] = {}
            continue
        key, _, value = line.partition(" = ")
        if section == "task":
            data["tasks"][-1][key] = value
        elif section == "kernels":
            data["kernel_labels"].append(value)
        else:
            data[section][key] = value

    cfg_raw = data["config"]
    config = TrainConfig(**{name: decode(cfg_raw[name]) for name, _, decode in _CONFIG_KEYS})
    specs = [KernelSpec.from_label(label) for label in data["kernel_labels"]]

    theta = KernelWeights(_unhex_vector(data["theta"]["values"]), float.fromhex(data["theta"]["p"]))
    weights = TaskWeights(
        _unhex_vector(data["lambda"]["values"]),
        float.fromhex(data["lambda"]["r_max"]),
        float.fromhex(data["lambda"]["budget"]),
        enforce_box=config.mode != "pareto",  # path-tracing weights may sit outside the box
    )

    model_tasks = []
    duals = []
    for entry in data["tasks"]:
        task_id = entry["id"]
        if task_id not in by_id:
            raise ValueError(f"training task {task_id!r} not supplied to load_model")
        task = by_id[task_id]
        if task_data_hash(task) != entry["hash"]:
            raise ValueError(f"training data hash mismatch for task {task_id!r}")
        model_tasks.append(task)
        alpha = _unhex_vector(entry["alpha"])
        duals.append(
            DualSolution(
                alpha=alpha,
                bias=float.fromhex(entry["bias"]),
                objective=float.fromhex(entry["objective"]),
                component_sq_norms=_unhex_vector(entry["component_sq_norms"]),
                duality_gap=float.fromhex(entry["duality_gap"]),
                dual_objective=float("nan"),
                iterations=0,
                converged=bool(int(cfg_raw["converged"])),  # set only if every solve certified
                margins=np.full(alpha.size, np.nan),
            )
        )

    scaler = None
    if "scaler" in data:
        scaler = Scaler(_unhex_vector(data["scaler"]["mean"]), _unhex_vector(data["scaler"]["scale"]))

    return MtlModel(
        config=config,
        kernel_specs=specs,
        theta=theta,
        task_weights=weights,
        duals=duals,
        objective_trace=list(_unhex_vector(data["trace"]["values"])),
        tasks=model_tasks,
        converged=bool(int(cfg_raw["converged"])),
        scaler=scaler,
    )
