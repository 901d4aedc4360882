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
from dataclasses import dataclass

import numpy as np

from .data import Scaler, TaskDataset
from .kernels import KernelSpec, combine, expand
from .solvers import (
    DualSolution, check_budget, component_sq_norms, lambda_step, quadratic_forms, solve_svm_dual, theta_step,
)
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
            raise ValueError(f"pareto exponent must lie in (0, 1], got {self.p_exp!r}")


@dataclass
class MtlModel:
    """Trained state: kernel and task weight arrays (config holds their bounds), duals, trace.

    component_sq_norms: (T, M), row t holds ||w_t^m||^2 = theta_m^2 (a*y)' G_m (a*y)
    of task t per base kernel at the final theta, so that
    sum_m component_sq_norms[t, m] / theta_m recovers the task's ||w_t||^2.
    converged: the outer loop's stall test met tol_rel_obj, every accepted
    w-step met its gap, and the relative outer duality gap is at most tol_rel_obj.
    scaler: the standardization applied to the training features, if any.
    outer_gap: the relative outer duality gap at exit (see fit); not stored
    in the model document, so a loaded model has NaN.
    """

    config: TrainConfig
    kernel_specs: list
    theta: np.ndarray
    task_weights: np.ndarray
    duals: list
    component_sq_norms: np.ndarray
    objective_trace: list
    tasks: list
    converged: bool
    scaler: Scaler | None = None
    outer_gap: float = float("nan")

    def task_index(self, task_id: str) -> int:
        for i, task in enumerate(self.tasks):
            if task.task_id == task_id:
                return i
        raise KeyError(f"unknown task id {task_id!r}")


def pareto_lambda(f, p_exp: float) -> np.ndarray:
    """Task weights that make the Lp-scalarized objective stationary, for p in (0, 1].

    For p = 1:      all ones
    for 0 < p < 1:  (sum_s f_s^p)^((1-p)/p) / f_t^(1-p)

    The p < 1 branch is scale invariant, always exceeds 1, decreases toward
    1 as p -> 1, and is exactly the reciprocal of the budget-ball solution
    that characterizes these weights.
    """
    f = np.asarray(f, dtype=np.float64)
    if np.any(f <= 0):
        raise ValueError("task objectives must be strictly positive")
    if not 0.0 < p_exp <= 1.0:
        raise ValueError(f"pareto exponent must lie in (0, 1], got {p_exp!r}")
    if p_exp == 1.0:
        return np.ones_like(f)
    total = float((f**p_exp).sum()) ** ((1.0 - p_exp) / p_exp)
    return total / f ** (1.0 - p_exp)


def _regularizer(comp: np.ndarray, theta: np.ndarray):
    """sum_m comp_m / (2 theta_m) with 0/0 treated as 0, per row of comp."""
    return np.divide(comp, 2.0 * theta, out=np.zeros(comp.shape), where=theta > 0).sum(axis=-1)


def _validate_fit_inputs(tasks, stacks, kernel_specs):
    if len(tasks) == 0:
        raise ValueError("no tasks to train")
    if len(tasks) != len(stacks):
        raise ValueError(f"{len(tasks)} tasks and {len(stacks)} gram stacks must align")
    if len({task.task_id for task in tasks}) < len(tasks):  # a model finds each task by its id
        raise ValueError(f"task ids must be unique, got {[task.task_id for task in tasks]}")
    n_kernels = stacks[0].n_kernels
    if len(kernel_specs) != n_kernels:
        raise ValueError(f"{len(kernel_specs)} kernel specs for gram stacks of {n_kernels} kernels")
    for task, stack in zip(tasks, stacks):
        if stack.n_kernels != n_kernels:
            raise ValueError(f"task {task.task_id!r} has {stack.n_kernels} kernels, not the first task's {n_kernels}")
        if stack.task_id != task.task_id or stack.n_samples != task.y.size:
            raise ValueError(f"stack of task {stack.task_id!r} has {stack.n_samples} samples for task {task.task_id!r}")
        if np.all(task.y == task.y[0]):
            raise ValueError(f"degenerate task {task.task_id!r}: one class only")


def _check_init(init: MtlModel, tasks, n_kernels: int):
    """Reject a warm-start model whose kernel count, tasks or sample counts differ from the fit's."""
    if init.theta.size != n_kernels:
        raise ValueError(f"init has {init.theta.size} kernel weights for gram stacks of {n_kernels} kernels")
    if len(init.tasks) != len(tasks):
        raise ValueError(f"init has {len(init.tasks)} tasks for a fit of {len(tasks)}")
    for old, dual, task in zip(init.tasks, init.duals, tasks):
        if old.task_id != task.task_id or dual.alpha.size != task.y.size:
            raise ValueError(
                f"init task {old.task_id!r} of {dual.alpha.size} samples does not match "
                f"task {task.task_id!r} of {task.y.size} samples"
            )


def _relative_outer_gap(primal: float, duals, quads: np.ndarray, lam: np.ndarray, p: float) -> float:
    """(F - D) / |F| for the (w, theta) block at task weights lam.

    D = sum_t lam_t 1'alpha_t - ||v||_{p*} / 2 with v_m = sum_t lam_t quads[t, m]
    is the lam-weighted Lp-norm MKL dual (Kloft, Brefeld, Sonnenburg & Zien,
    JMLR 12, 2011) at the current alphas, a lower bound on every primal value.
    """
    v = lam @ quads
    dual = float(lam @ np.array([d.alpha.sum() for d in duals])) - 0.5 * lp_norm(v, conjugate_exponent(p))
    return (primal - dual) / abs(primal)


def task_costs(stacks, p: float) -> np.ndarray:
    """Each task's budget cost ||tr(G_t)||_{p*}; the budget's one source, so that
    a budget of the summed costs is exactly the total a conic fit tests it against."""
    p_star = conjugate_exponent(p)
    return np.array([s.trace_norm(p_star) for s in stacks])


def fit(tasks, stacks, config: TrainConfig, kernel_specs, init: MtlModel | None = None) -> MtlModel:
    """Train by block-coordinate descent.

    tasks and stacks are parallel lists (one entry per task). kernel_specs,
    the dictionary the stacks were built with, is carried into the model
    for prediction-time kernel evaluation.

    init, a model of the same tasks (ids and sample counts) and kernel
    count, warm-starts the fit: theta is taken from it when p is equal,
    lambda only when both fits are conic with equal budget and r_max, and
    the first w-step starts from each task's alpha scaled by C / init's C
    and clipped into [0, C]. Every other start is the cold one.

    The loop stops on its stall test: the objective moved by at most
    tol_rel_obj of itself over one outer iteration. At exit the model's
    outer_gap is (F - D) / |F|, F the last trace value and D the
    lambda-weighted Lp-MKL dual at the final alphas (_relative_outer_gap);
    converged requires it to be at most tol_rel_obj too. In pareto mode
    lambda follows the objectives, so the gap certifies only the (w, theta)
    block at the final lambda.
    """
    _validate_fit_inputs(tasks, stacks, kernel_specs)
    T = len(tasks)
    M = stacks[0].n_kernels
    costs = task_costs(stacks, config.p)

    theta = np.full(M, M ** (-1.0 / config.p))
    lam = np.ones(T)
    if config.mode == "conic":
        check_budget(costs, config.budget, config.r_max)
        # start at the feasible uniform point closest to all-ones, so the
        # first lambda-step descends instead of repairing feasibility
        kappa = float(costs.sum()) / config.budget
        if kappa > 1.0:
            lam = np.full(T, min(kappa, config.r_max))

    starts = [None] * T  # the first w-step's warm starts
    if init is not None:
        _check_init(init, tasks, M)
        old = init.config
        if old.p == config.p:
            theta = init.theta.copy()
        if config.mode == old.mode == "conic" and (old.budget, old.r_max) == (config.budget, config.r_max):
            lam = init.task_weights.copy()
        # alpha = C_init need not scale to exactly C, hence the clip
        starts = [np.clip(d.alpha * (config.C / old.C), 0.0, config.C) for d in init.duals]

    duals = [None] * T
    comps = np.zeros((T, M))
    hinges = config.C * np.array([t.y.size for t in tasks], dtype=float)  # w = 0 start, loss l(0) = 1 each
    J = hinges.copy()
    trace = [float((lam * J).sum())]

    stalled = False  # the stall test, the loop's stop rule, was met
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
                alpha0=starts[t] if duals[t] is None else duals[t].alpha,
            )
            if duals[t] is None or cand.objective <= J[t]:
                duals[t] = cand
                solves_converged &= cand.converged
                comps[t] = component_sq_norms(cand.alpha, task.y, stack, theta)
                margins = cand.margins + task.y * cand.bias if config.use_bias else cand.margins
                hinges[t] = float(config.C * np.maximum(0.0, 1.0 - margins).sum())
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
            stalled = True
            break

    # components re-expressed at the final kernel weights, matching the
    # (alpha, theta) pair that prediction uses; the same quadratic forms
    # (a zero theta_m's too) give the outer dual value
    quads = np.array([quadratic_forms(d.alpha, task.y, stack) for d, task, stack in zip(duals, tasks, stacks)])

    if not np.isfinite(lam).all():  # pareto weights follow J, which can overflow
        raise ValueError(f"task weights must be finite, got {lam}")
    outer_gap = _relative_outer_gap(trace[-1], duals, quads, lam, config.p)

    return MtlModel(
        config=config,
        kernel_specs=list(kernel_specs),
        theta=theta,
        task_weights=lam,
        duals=duals,
        component_sq_norms=theta**2 * quads,
        objective_trace=trace,
        tasks=list(tasks),
        converged=stalled and solves_converged and outer_gap <= config.tol_rel_obj,
        outer_gap=outer_gap,
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


def stack_decision_values(model: MtlModel, task_id: str, grams) -> np.ndarray:
    """decision_values from Gram values at hand: grams (M, n_t, k), the task's n_t training points by k points."""
    t = model.task_index(task_id)
    coef = model.duals[t].alpha * model.tasks[t].y
    values = np.zeros(grams.shape[2])
    for m in np.flatnonzero(model.theta):
        values += model.theta[m] * (coef @ grams[m])
    if model.config.use_bias:
        values += model.duals[t].bias
    return values


def predict(model: MtlModel, task_id: str, X_test):
    """Labels (sign of the decision value, with sign(0) = +1) and decisions."""
    values = decision_values(model, task_id, X_test)
    labels = np.where(values >= 0.0, 1.0, -1.0)
    return labels, values


def margin_loss(x, rho: float):
    """Ramp loss: 0 above rho, 1 below 0, linear in between."""
    if not rho > 0:
        raise ValueError("rho must be positive")
    return np.clip(1.0 - np.asarray(x, dtype=float) / rho, 0.0, 1.0)


def weighted_empirical_loss(model: MtlModel, rho: float, stacks) -> float:
    """Weighted ramp-loss average over the training samples.

    (1 / total_count) * sum_t lam_t * sum_i margin_loss(y_t_i f_t(x_t_i), rho).
    The training decision values come from stacks, the tasks' training Gram stacks.
    """
    total = 0.0
    if len(stacks) != len(model.tasks):
        raise ValueError(f"expected one stack per task ({len(model.tasks)}), got {len(stacks)}")
    for lam, task, stack in zip(model.task_weights, model.tasks, stacks):
        if stack.task_id != task.task_id or stack.grams.shape != (model.theta.size, task.y.size, task.y.size):
            raise ValueError(f"stack of task {stack.task_id!r} has shape {stack.grams.shape} for task {task.task_id!r}")
        values = stack_decision_values(model, task.task_id, stack.grams)
        total += lam * float(margin_loss(task.y * values, rho).sum())
    return total / sum(task.y.size for task in model.tasks)


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
_SECTIONS = ("config", "kernels", "theta", "lambda", "trace", "scaler")  # and one [task <id>] per task


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
    for task, dual, comp in zip(model.tasks, model.duals, model.component_sq_norms):
        lines.append(f"[task {task.task_id}]")
        lines.append(f"hash = {task_data_hash(task)}")
        lines.extend(f"{key} = {float(getattr(dual, key)).hex()}" for key in _DUAL_SCALARS)
        lines.append(f"alpha = {_hex_vector(dual.alpha)}")
        lines.append(f"component_sq_norms = {_hex_vector(comp)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path, tasks) -> MtlModel:
    """Rebuild a model from its document plus the original training tasks.

    tasks may be any iterable of TaskDataset. Each referenced task must be
    present and hash-identical to what was trained on. Every error names the
    file; a value that is missing or does not decode names its section and key.
    Every line is read or rejected: a line before the first section, an
    unknown section, and a repeated or unknown key are errors.
    """
    by_id = {t.task_id: t for t in tasks}

    with open(path, "r", encoding="utf-8") as fh:
        content = fh.read().splitlines()
    if not content or not content[0].startswith("conicmtl-model v"):
        raise ValueError(f"{path}: not a model document")
    if content[0] != f"conicmtl-model v{MODEL_FORMAT_VERSION}":
        raise ValueError(f"{path}: unsupported model version header {content[0]!r}")

    sections: dict = {}  # section name -> {key: text}, in document order
    labels = []  # the spec lines of [kernels], in order
    section = None
    for lineno, line in enumerate(map(str.strip, content[1:]), start=2):
        if not line:
            continue
        key, _, value = line.partition(" = ")
        if line.startswith("["):
            section = line[1:-1]
            if section not in _SECTIONS and not section.startswith("task "):
                raise ValueError(f"{path}: line {lineno}: unknown section {line}")
            if section in sections:
                raise ValueError(f"{path}: section [{section}] appears more than once")
            sections[section] = {}
        elif section is None:
            raise ValueError(f"{path}: line {lineno}: {line!r} comes before the first section")
        elif section == "kernels" and key == "spec":
            labels.append(value)
        elif key in sections[section]:
            raise ValueError(f"{path}: line {lineno}: key {key!r} appears more than once in [{section}]")
        else:
            sections[section][key] = value
    read = set()  # the (section, key) pairs that field() has decoded

    def field(section, key, decode=str, text=None):
        if text is None:
            if key not in sections.get(section, {}):
                raise ValueError(f"{path}: no key {key!r} in section [{section}]")
            text = sections[section][key]
            read.add((section, key))
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
    comps = np.zeros((len(task_sections), theta.size))
    for t, section in enumerate(task_sections):
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
        comps[t] = comp
        duals.append(
            DualSolution(
                alpha=alpha,
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
    trace = list(field("trace", "values", _unhex_vector))
    for section, keys in sections.items():
        for key in keys:
            if (section, key) not in read:
                raise ValueError(f"{path}: unknown key {key!r} in [{section}]")

    return MtlModel(
        config=config,
        kernel_specs=specs,
        theta=theta,
        task_weights=lam,
        duals=duals,
        component_sq_norms=comps,
        objective_trace=trace,
        tasks=model_tasks,
        converged=converged,
        scaler=scaler,
    )
