"""Experiment harness: resampled runs, grid-search cross-validation,
significance testing and deterministic CSV reporting."""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path

import numpy as np

from . import data as data_io
from .kernels import GramStack, build_gram_stack, default_kernel_dictionary
from .training import TrainConfig, decision_values, fit, stack_decision_values, task_costs
from .util import derive_seed, float_text

RESULT_HEADER = "dataset,fraction,method,seed,mean_accuracy,C,p,a,p_exp,wall_ms,converged"

SYNTH_DEFAULTS = {"T": 4, "N": 60, "d": 6, "sim": 0.7, "noise": 0.5, "seed": 0}
SYNTH_MINIMUMS = {"T": 1, "N": 2, "d": 1, "seed": 0}  # below N = 2 a task holds one class

METHOD_MODES = {
    "Conic": "conic",
    "Average": "average",
    "ParetoPath": "pareto",
    "SingleTask": "average",
}


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str
    fractions: tuple = (0.5,)
    methods: tuple = ("Conic", "Average")
    runs: int = 20
    cv_folds: int = 5
    grid_C: tuple = (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
    grid_p: tuple = (1.0, 4.0 / 3.0, 2.0, 4.0)
    grid_a_frac: tuple = (0.25, 0.5, 0.75, 1.0)
    grid_p_exp: tuple = (0.25, 0.5, 0.75, 1.0)
    r_max: float = 8.0
    use_bias: bool = False
    master_seed: int = 0

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError(f"runs value {self.runs!r} must be >= 1")
        if self.cv_folds < 2:
            raise ValueError(f"cv_folds value {self.cv_folds!r} must be >= 2")
        if not 1.0 < self.r_max < math.inf:
            raise ValueError(f"r_max value {self.r_max!r} must be in (1, inf)")
        for name, values, valid, rule in (
            ("fractions", self.fractions, lambda v: 0.0 < v < 1.0, "in (0, 1)"),
            ("methods", self.methods, lambda v: v in METHOD_MODES, f"one of {', '.join(METHOD_MODES)}"),
            ("grid_C", self.grid_C, lambda v: v > 0.0, "> 0"),
            ("grid_p", self.grid_p, lambda v: v >= 1.0, ">= 1"),
            ("grid_a_frac", self.grid_a_frac, lambda v: v > 0.0, "> 0"),
            ("grid_p_exp", self.grid_p_exp, lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
        ):
            if len(values) == 0:
                raise ValueError(f"{name} must not be empty")
            for value in values:
                if not valid(value):
                    raise ValueError(f"{name} value {value!r} must be {rule}")
        if "Conic" in self.methods and min(self.grid_a_frac) < 1.0 / self.r_max:
            raise ValueError(  # the budget a * sum(costs) cannot cover sum(costs) / r_max
                f"grid_a_frac value {min(self.grid_a_frac)!r} must be >= 1/r_max = {1.0 / self.r_max!r} for Conic"
            )


@dataclass
class ResultRow:
    """One (method, run) outcome; a failed row leaves the result fields None."""

    dataset: str
    fraction: float
    method: str
    seed: int
    wall_ms: float
    converged: str
    mean_accuracy: float | None = None
    C: float | None = None
    p: float | None = None
    a: float | None = None
    p_exp: float | None = None


@dataclass
class ResultTable:
    rows: list = field(default_factory=list)

    def to_csv_text(self, measure_wall: bool = False) -> str:
        out = [RESULT_HEADER]
        for r in self.rows:
            numbers = (r.fraction, r.mean_accuracy, r.C, r.p, r.a, r.p_exp)
            fraction, acc, C, p, a, p_exp = ("" if v is None else float_text(v) for v in numbers)
            wall = str(int(r.wall_ms)) if measure_wall else "0"
            out.append(",".join([r.dataset, fraction, r.method, str(r.seed), acc, C, p, a, p_exp, wall, r.converged]))
        return "\n".join(out) + "\n"


def resolve_dataset(text: str) -> tuple[str, list[data_io.TaskDataset]]:
    """Turn a dataset argument into tasks.

    Accepts "synth:key=value,..." generator specs, the bundled samples
    ("sample:multiclass", "sample:mtl"), a task directory with a manifest,
    or a sparse text file (decomposed one-vs-one when multiclass).
    """
    if text.startswith("synth:"):
        params = dict(SYNTH_DEFAULTS)
        for token in filter(None, text[6:].split(",")):
            key, sep, value = token.partition("=")
            if not sep or key not in SYNTH_DEFAULTS:
                raise ValueError(f"bad synth token {token!r}; expected key=value, key one of {tuple(SYNTH_DEFAULTS)}")
            kind = type(SYNTH_DEFAULTS[key])
            try:
                params[key] = kind(value)
            except ValueError:
                raise ValueError(f"synth {key}={value!r} is not {'an integer' if kind is int else 'a number'}") from None
            if params[key] < SYNTH_MINIMUMS.get(key, -math.inf):
                raise ValueError(f"synth {key}={value} must be at least {SYNTH_MINIMUMS[key]}")
        dataset = data_io.synth_multitask(
            T=params["T"],
            N=params["N"],
            d=params["d"],
            task_similarity=params["sim"],
            noise=params["noise"],
            seed=params["seed"],
        )
        return text.replace(",", ";"), dataset  # keep the CSV dataset column comma-free
    if text == "sample:multiclass":
        X, labels = data_io.load_sparse_text(data_io.sample_multiclass_path())
        return text, data_io.build_ovo_tasks(X, labels)
    if text == "sample:mtl":
        return text, data_io.load_task_directory(data_io.sample_mtl_path())
    path = Path(text)
    if path.is_dir():
        return path.name, data_io.load_task_directory(path)
    if path.is_file():
        X, labels = data_io.load_sparse_text(path)
        if np.unique(labels).size == 2:  # load_sparse_text mapped them to -1/+1
            return path.stem, [data_io.TaskDataset(path.stem, X, labels)]
        return path.stem, data_io.build_ovo_tasks(X, labels)  # which rejects fewer than two classes
    raise FileNotFoundError(f"cannot resolve dataset {text!r}")


def _fold_assignments(task: data_io.TaskDataset, folds: int, seed: int) -> np.ndarray:
    """Per-sample fold ids, stratified by class, shuffled deterministically."""
    rng = np.random.default_rng(seed)
    assignment = np.empty(task.n, dtype=int)
    for sign in (1.0, -1.0):
        members = rng.permutation(np.flatnonzero(task.y == sign))
        if members.size < folds:
            raise ValueError(
                f"fold degeneracy: task {task.task_id!r} has {members.size} samples of one class "
                f"for {folds} folds"
            )
        assignment[members] = np.arange(members.size) % folds
    return assignment


def budget_from_fraction(stacks, p: float, frac: float) -> float:
    return frac * float(task_costs(stacks, p).sum())


def _train_method(method, tasks, stacks, specs, cell, config: ExperimentConfig, init=None):
    """Models for method at one grid cell from _grid_cells: one per task for SingleTask, else one.

    init, models in the same layout, warm-starts each fit from its counterpart (training.fit).
    """
    init = init or [None] * len(tasks)
    C, p, a_frac, p_exp = cell
    base = TrainConfig(
        C=C,
        p=p,
        budget=1.0 if a_frac is None else budget_from_fraction(stacks, p, a_frac),
        r_max=config.r_max,
        mode=METHOD_MODES[method],
        p_exp=1.0 if p_exp is None else p_exp,
        use_bias=config.use_bias,
    )
    if method == "SingleTask":
        return [
            fit([task], [stack], base, kernel_specs=specs, init=old) for task, stack, old in zip(tasks, stacks, init)
        ]
    return [fit(tasks, stacks, base, kernel_specs=specs, init=init[0])]


def _mean_accuracy(models, parts, values):
    """Mean accuracy over the models' tasks on their parts (inputs, y), labelled from values() as predict does."""
    pairs = [(model, task.task_id) for model in models for task in model.tasks]
    return float(np.mean([
        float((np.where(values(model, task_id, inputs) >= 0.0, 1.0, -1.0) == y).mean())
        for (model, task_id), (inputs, y) in zip(pairs, parts, strict=True)
    ]))


def _grid_cells(method, config: ExperimentConfig):
    """Grid points in tie-break order: smaller C, then p, then a, then p_exp."""
    a_grid = config.grid_a_frac if method == "Conic" else (None,)
    pexp_grid = config.grid_p_exp if method == "ParetoPath" else (None,)
    for C in sorted(config.grid_C):
        for p in sorted(config.grid_p):
            for a in sorted(a_grid):
                for pe in sorted(pexp_grid):
                    yield C, p, a, pe


def cross_validate(tasks, stacks, method, config: ExperimentConfig, seed: int, specs):
    """Pick hyperparameters by exhaustive grid search over stratified folds.

    Returns (C, p, a_frac, p_exp). Ties break toward the simpler model:
    smaller C, then smaller p, then smaller a, then smaller p_exp. A grid
    with a single cell is returned without training.

    The fits of one (fold, p, a, p_exp) chain up the ascending C grid: each
    warm-starts from the previous C's models (training.fit's init), the
    first of a chain starts cold. A held-out part is scored from its Gram
    values in the task's training stack (training.stack_decision_values), so
    no kernel is evaluated again. Only the fold scores leave this function.
    """
    cells = list(_grid_cells(method, config))
    if len(cells) == 1:
        return cells[0]
    assignments = [
        _fold_assignments(task, config.cv_folds, derive_seed(seed, "folds", task.task_id))
        for task in tasks
    ]
    folds = []  # (training sub-tasks, their sub-stacks, held-out (cross grams, labels)) per fold
    for k in range(config.cv_folds):
        sub_tasks, sub_stacks, held = [], [], []
        for task, stack, assign in zip(tasks, stacks, assignments):
            tr, te = np.flatnonzero(assign != k), np.flatnonzero(assign == k)
            sub_tasks.append(task.subset(tr))
            sub_stacks.append(GramStack(task_id=stack.task_id, grams=stack.grams[:, tr[:, None], tr]))
            held.append((stack.grams[:, tr[:, None], te], task.y[te]))
        folds.append((sub_tasks, sub_stacks, held))
    best = None
    best_score = -1.0
    chains = {}  # (fold, p, a, p_exp) -> the models of the last C fitted
    for cell in cells:
        fold_scores = []
        for k, (sub_tasks, sub_stacks, held) in enumerate(folds):
            key = (k, *cell[1:])
            models = _train_method(method, sub_tasks, sub_stacks, specs, cell, config, chains.get(key))
            chains[key] = models
            fold_scores.append(_mean_accuracy(models, held, stack_decision_values))
        score = float(np.mean(fold_scores))
        if score > best_score + 1e-12:
            best_score = score
            best = cell
    return best


def run_experiment(config: ExperimentConfig) -> ResultTable:
    """The full protocol: per run, resample, split, cross-validate each
    method, train on the training split and score on the test split.

    Deterministic for a fixed master seed: all randomness is derived from
    (master_seed, fraction, run index, task id) via stable hashing.
    """
    label, dataset = resolve_dataset(config.dataset)
    specs = default_kernel_dictionary()
    table = ResultTable()
    for fraction in config.fractions:
        for run in range(config.runs):
            run_seed = derive_seed(config.master_seed, "run", fraction, run)
            train_tasks, test_tasks, _ = data_io.prepare_run(dataset, fraction, run_seed, balanced=True)
            stacks = [build_gram_stack(t.task_id, t.X, specs) for t in train_tasks]
            for method in config.methods:
                started = time.perf_counter()
                row = ResultRow(dataset=label, fraction=fraction, method=method, seed=run, wall_ms=0.0, converged="")
                try:
                    cell = cross_validate(train_tasks, stacks, method, config, run_seed, specs)
                    models = _train_method(method, train_tasks, stacks, specs, cell, config)
                    row.mean_accuracy = _mean_accuracy(models, [(t.X, t.y) for t in test_tasks], decision_values)
                    row.C, row.p, a_frac, row.p_exp = cell
                    row.a = None if a_frac is None else models[0].config.budget
                    row.converged = "1" if all(model.converged for model in models) else "0"
                except Exception as exc:  # recorded per row, not fatal to the table
                    row.converged = f"error:{type(exc).__name__}"
                row.wall_ms = (time.perf_counter() - started) * 1e3
                table.rows.append(row)
    return table


def write_results_csv(table: ResultTable, path, measure_wall: bool = False) -> None:
    Path(path).write_text(table.to_csv_text(measure_wall=measure_wall), encoding="utf-8")


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz, as in Numerical
    Recipes' betacf): step m applies its even coefficient, then its odd one."""
    tiny = 1e-300  # the floor on |d| and |c| that keeps each division finite

    def floored(v):
        return tiny if abs(v) < tiny else v

    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 / floored(1.0 - qab * x / qap)
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
            d = 1.0 / floored(1.0 + aa * d)
            c = floored(1.0 + aa / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: float) -> float:
    """P(|T_df| >= |t|) via the incomplete beta identity."""
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {df!r}")
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return min(1.0, max(0.0, regularized_incomplete_beta(df / 2.0, 0.5, x)))


def welch_t_test(sample_a, sample_b) -> tuple[float, float]:
    """Welch unequal-variance t statistic and two-sided p-value.

    Degenerate zero-variance inputs: equal means give (0, 1); otherwise a
    tiny variance floor keeps the statistic finite (and the p-value is
    astronomically small, as it should be).
    """
    a = np.asarray(sample_a, dtype=float).ravel()
    b = np.asarray(sample_b, dtype=float).ravel()
    if a.size < 2 or b.size < 2:
        raise ValueError("both samples need at least two values")
    va = float(a.var(ddof=1))
    vb = float(b.var(ddof=1))
    if va == 0.0 and vb == 0.0:
        if a.mean() == b.mean():
            return 0.0, 1.0
        va = vb = 1e-24
    sa, sb = va / a.size, vb / b.size
    t = float((a.mean() - b.mean()) / math.sqrt(sa + sb))
    df = (sa + sb) ** 2 / (
        (sa**2 / (a.size - 1) if sa > 0 else 0.0) + (sb**2 / (b.size - 1) if sb > 0 else 0.0)
    )
    return t, student_t_two_sided_p(t, df)


def paired_t_test(sample_a, sample_b) -> tuple[float, float]:
    """Paired t statistic on per-seed differences, two-sided p-value.

    Useful when runs are paired by seed; requires equal lengths.
    """
    a = np.asarray(sample_a, dtype=float).ravel()
    b = np.asarray(sample_b, dtype=float).ravel()
    if a.size != b.size:
        raise ValueError("paired test needs equally long samples")
    if a.size < 2:
        raise ValueError(f"paired test needs at least two pairs, got {a.size}")
    d = a - b
    vd = float(d.var(ddof=1))
    if vd == 0.0:
        if d.mean() == 0.0:
            return 0.0, 1.0
        vd = 1e-24
    t = float(d.mean() / math.sqrt(vd / d.size))
    return t, student_t_two_sided_p(t, d.size - 1)


def read_results_csv(path) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != RESULT_HEADER.split(","):
            raise ValueError(f"{path}: unexpected results header {reader.fieldnames}")
        return list(reader)


def summarize_results(rows, alpha: float = 0.05, reference: str = "Conic", paired: bool = False) -> str:
    """Plain-text summary per (dataset, fraction): mean accuracy by method,
    the best method highlighted, and a star on methods whose mean is
    statistically significantly worse than the reference method's.

    The default comparison is the unequal-variance two-sample test; paired
    uses the differences at the seeds both methods have ("-" below two).
    Everything is recomputed from the raw per-run rows, so the stars are
    reproducible from the CSV alone. alpha must lie in (0, 1).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    groups: dict = {}
    for row in rows:
        if row["mean_accuracy"] == "":
            continue
        key = (row["dataset"], row["fraction"])
        groups.setdefault(key, {}).setdefault(row["method"], []).append(
            (int(row.get("seed", 0)), float(row["mean_accuracy"]))
        )
    out = StringIO()
    for (dataset, fraction), methods in groups.items():
        by_method = {m: [v for _, v in sorted(pairs)] for m, pairs in methods.items()}
        out.write(f"dataset={dataset} fraction={fraction}\n")
        ref = by_method.get(reference)
        means = {m: float(np.mean(v)) for m, v in by_method.items()}
        best = max(means.values())
        out.write(f"  {'method':<12} {'mean':>8} {'std':>8} {'runs':>5} {'p_vs_' + reference:>12}\n")
        for method, values in sorted(by_method.items()):
            mean = means[method]
            std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
            star = " "
            p_text = "-"
            if ref is not None and method != reference:
                a, b = ref, values
                if paired:  # the runs of the seeds both methods have, in seed order
                    common = {s for s, _ in methods[reference]} & {s for s, _ in methods[method]}
                    a, b = ([v for s, v in sorted(methods[m]) if s in common] for m in (reference, method))
                if len(a) >= 2 and len(b) >= 2:
                    _, p = (paired_t_test if paired else welch_t_test)(a, b)
                    p_text = f"{p:.4f}"
                    if p < alpha and mean < means[reference]:
                        star = "*"
            marker = "<best" if mean == best else ""
            out.write(
                f"  {method:<12} {mean:>8.4f} {std:>8.4f} {len(values):>5} {p_text:>12} {star}{marker}\n"
            )
        out.write("\n")
    return out.getvalue()
