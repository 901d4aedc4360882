"""Generalization-bound terms and their numerical verification.

The distinguishing quantity is the empirical Rademacher complexity of the
weighted-task hypothesis ball. For a fixed sign assignment the supremum
over both the kernel weights (Lp ball) and the task weight ball has a
closed form,

    sup = sqrt( R * || u(sigma) ||_{p*} ),
    u_m(sigma) = sum_t (gamma_t^2 / lam_t) * sigma_t' G_t^m sigma_t,

so enumeration or Monte Carlo over signs is the only source of error.

This complexity and the budget-split scale constant share one sign engine:
blocks of signs (all 2^total patterns, or sign bits read from raw Philox
words keyed on (tag, seed, block)), one contraction to per-task
quadratic-form tables (a GEMM per task and column chunk; a Gram that is
the identity in floating point gives the constant n and stays out of the
GEMM), and one mean and std-error accumulator. Only the reducer differs:
sum the scaled tables over tasks, then the p*-norm; or the p*-norm per
task, then the max over tasks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .solvers import TaskWeights
from .util import conjugate_exponent, derive_seed, lp_norm

EXHAUSTIVE_LIMIT = 20
MC_BLOCK = 4096
CONTRACT_CHUNK = 512


def margin_loss(x, rho: float):
    """Ramp loss: 0 above rho, 1 below 0, linear in between."""
    if not rho > 0:
        raise ValueError("rho must be positive")
    return np.clip(1.0 - np.asarray(x, dtype=float) / rho, 0.0, 1.0)


@dataclass
class RademacherEstimate:
    mean: float
    std_error: float
    samples: int
    exhaustive: bool


@dataclass
class BoundInputs:
    """Everything the bound formulas need besides the loss values."""

    T: int
    N: int
    M: int
    task_weights: TaskWeights
    rho: float
    delta: float
    R: float
    p: float
    traces: np.ndarray  # (T, M) per-task kernel trace vectors

    def __post_init__(self):
        self.traces = np.atleast_2d(np.asarray(self.traces, dtype=float))
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        if not self.R > 0:
            raise ValueError("R must be positive")
        if self.traces.shape != (self.T, self.M):
            raise ValueError(f"traces must have shape (T, M) = ({self.T}, {self.M})")


def _dual_norms(U: np.ndarray, p_star: float) -> np.ndarray:
    """p*-norm of each column of a (M, n) table, negative entries clipped to 0."""
    U = np.maximum(U, 0.0)
    if math.isinf(p_star):
        return U.max(axis=0)
    if p_star == 1.0:
        return U.sum(axis=0)
    return (U**p_star).sum(axis=0) ** (1.0 / p_star)


def _check_inputs(stacks, R: float, samples: int, **per_task) -> int:
    """Argument checks of both estimators; returns the total sample count.

    Each per_task vector must hold one positive finite entry per task.
    """
    if not stacks:
        raise ValueError("stacks must hold at least one task")
    for stack in stacks:
        if stack.n_kernels != stacks[0].n_kernels:
            raise ValueError(
                f"task {stack.task_id!r} has {stack.n_kernels} kernels, "
                f"task {stacks[0].task_id!r} has {stacks[0].n_kernels}"
            )
        if stack.n_samples < 1:
            raise ValueError(f"task {stack.task_id!r} has no samples")
        finite = np.isfinite(stack.grams)
        if np.count_nonzero(finite) < finite.size:
            m = int(np.argmin(finite.all(axis=(1, 2))))
            raise ValueError(f"task {stack.task_id!r} kernel {m} has a non-finite Gram entry")
    for name, values in per_task.items():
        if values.shape != (len(stacks),):
            ids = [s.task_id for s in stacks]
            raise ValueError(f"{name} has shape {values.shape}, expected one entry per task {ids}")
        for stack, value in zip(stacks, values.tolist()):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} of task {stack.task_id!r} must be positive and finite, got {value}")
    if not 0 <= R < math.inf:
        raise ValueError(f"R must be finite and nonnegative, got {R}")
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)):
        raise ValueError(f"samples must be an integer, got {samples!r}")
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    return sum(s.n_samples for s in stacks)


def _sign_block(total: int, n_patterns: int, block: int, tag: str, seed: int, exhaustive: bool) -> np.ndarray:
    """Block `block` of MC_BLOCK sign vectors as a C-contiguous (total, n_block) array of +-1 columns.

    Exhaustive pattern k has sign (bit j of k) for sample j. A random block
    reads raw words of a Philox generator keyed on (tag, seed, block): entry
    k of the block in (sample, sign) C order is bit 31 of 64-bit word k//2
    for even k and bit 63 for odd k, +1 where the bit is set. That is the
    stream of Generator(Philox(key)).integers(0, 2, size=(n_block, total))
    with the default int64 dtype: one 32-bit draw per entry, the low half
    of a word first, and its top bit, since Lemire's method rejects no draw
    for a range of 2.
    """
    start = block * MC_BLOCK
    n_block = min(MC_BLOCK, n_patterns - start)
    # twice each sign bit, 0 or 2, so that one subtraction gives the sign
    if exhaustive:
        index = np.arange(2 * start, 2 * (start + n_block), 2, dtype=np.int64)
        twice = (index[None, :] >> np.arange(total)[:, None]) & 2
    else:
        count = n_block * total
        words = np.random.Philox(key=derive_seed(tag, seed, block)).random_raw(-(-count // 2))
        drawn = np.empty(2 * words.size, dtype=np.uint8)
        drawn[0::2] = (words >> 30) & 2
        drawn[1::2] = (words >> 62) & 2
        twice = drawn[:count].reshape(n_block, total).T
    cols = twice.astype(float, order="C")
    cols -= 1.0
    return cols


def _float_identities(grams: np.ndarray) -> np.ndarray:
    """Mask of the (K, n, n) Grams with unit diagonal and off-diagonal |row| sums at most 2^-56.

    For such a Gram, sigma' G sigma is exactly n for every sign vector
    sigma, whatever the summation order of the GEMM and whether it fuses
    multiply-adds. In (G sigma)_i, the diagonal term is sigma_i = +-1 and
    any sum of off-diagonal terms stays below 2^-55 in magnitude, rounding
    included. A partial sum that holds the diagonal term is therefore
    sigma_i exactly: adding less than 2^-54, half an ulp below 1, to +-1
    rounds back to +-1. So (G sigma)_i = sigma_i, each product
    sigma_i (G sigma)_i is 1.0, and their sum is n exactly.
    """
    K, n, _ = grams.shape
    flat = grams.reshape(K, n * n)
    unit = (flat[:, :: n + 1] == 1.0).all(axis=1)
    off = np.abs(flat)
    off[:, :: n + 1] = 0.0
    return unit & (off.reshape(K, n, n).sum(axis=2) <= 2.0**-56).all(axis=1)


def _contraction_plan(stacks) -> list:
    """Per task (M, n, grams, stacked, keep): all M Grams as (M*n, n), and the K that need the GEMM.

    The Grams that are the identity in floating point (_float_identities;
    only a trace of n can come from a unit diagonal) stay out of stacked.
    keep lists the K kernels, or is None when K = M and stacked is grams.
    """
    plan = []
    for stack in stacks:
        M, n, _ = stack.grams.shape
        grams = stack.grams.reshape(M * n, n)
        keep = None
        if n in stack.traces.tolist():
            identity = stack.traces == n
            identity[identity] = _float_identities(stack.grams[identity])
            if identity.any():
                keep = np.flatnonzero(~identity)
        stacked = grams if keep is None else stack.grams[keep].reshape(-1, n)
        plan.append((M, n, grams, stacked, keep))
    return plan


def _quadforms(cols: np.ndarray, plan) -> list:
    """One (M, n_cols) table of sigma_t' G_t^m sigma_t per task; cols holds the tasks' signs in order.

    Each task makes one GEMM per CONTRACT_CHUNK columns, which bounds the
    size of the product; identity rows hold n. A narrower last chunk
    contracts all M kernels: OpenBLAS rounds a partial tile of columns
    differently for different row counts, while full-width chunks gave
    every row the same bits at every row count tried.
    """
    tables = []
    lo = 0
    n_cols = cols.shape[1]
    full = n_cols - n_cols % CONTRACT_CHUNK
    for M, n, grams, stacked, keep in plan:
        signs = cols[lo : lo + n]
        lo += n
        table = np.empty((M, n_cols)) if keep is None else np.full((M, n_cols), float(n))
        rows = table if keep is None else np.empty((len(keep), n_cols))
        for start in range(0, n_cols, CONTRACT_CHUNK):
            chunk = slice(start, start + CONTRACT_CHUNK)
            part = signs[:, chunk]
            gemm, out = (stacked, rows) if start < full else (grams, table)
            prod = (gemm @ part).reshape(len(out), n, part.shape[1])
            np.einsum("mic,ic->mc", prod, part, out=out[:, chunk])
            del prod  # freed before the next GEMM, whose product then reuses its pages
        if keep is not None:
            table[keep, :full] = rows[:, :full]
        tables.append(table)
    return tables


def _sign_expectation(stacks, samples, tag, seed, exhaustive, reduce) -> RademacherEstimate:
    """Mean and standard error of reduce(per-task quadform tables); one sign block is alive at a time."""
    total = sum(s.n_samples for s in stacks)
    n = 1 << total if exhaustive else samples
    plan = _contraction_plan(stacks)
    acc_sum = acc_sq = 0.0
    for block in range(-(-n // MC_BLOCK)):
        values = reduce(_quadforms(_sign_block(total, n, block, tag, seed, exhaustive), plan))
        acc_sum += float(values.sum())
        if not exhaustive:
            acc_sq += float((values**2).sum())
    mean = acc_sum / n
    var = max(0.0, (acc_sq - n * mean * mean) / max(n - 1, 1))
    std_error = 0.0 if exhaustive else float(np.sqrt(var / n))
    return RademacherEstimate(mean=mean, std_error=std_error, samples=n, exhaustive=exhaustive)


def rademacher_mc(
    stacks,
    task_weights,
    R: float,
    p: float,
    samples: int = 10_000,
    seed: int = 0,
    gamma=None,
    exhaustive_limit: int = EXHAUSTIVE_LIMIT,
) -> RademacherEstimate:
    """Complexity of the weighted-task ball: (2/total) E sqrt(R ||u||_{p*}).

    When the total sample count is at most exhaustive_limit, all 2^total
    sign patterns are enumerated and the result is exact (std_error 0);
    otherwise the Monte Carlo estimate is reproducible from the seed alone.
    """
    if isinstance(task_weights, TaskWeights):
        task_weights = task_weights.values
    lam = np.asarray(task_weights, dtype=float)
    gamma = np.ones(len(stacks)) if gamma is None else np.asarray(gamma, dtype=float)
    total = _check_inputs(stacks, R, samples, task_weights=lam, gamma=gamma)
    scales = gamma**2 / lam
    prefactor = 2.0 / total
    p_star = conjugate_exponent(p)

    def reduce(tables):
        U = sum(scale * table for scale, table in zip(scales, tables))
        return prefactor * np.sqrt(R * _dual_norms(U, p_star))

    return _sign_expectation(stacks, samples, "rademacher", seed, total <= exhaustive_limit, reduce)


def estimate_scale_constant(
    stacks,
    R: float,
    p: float,
    samples: int = 10_000,
    seed: int = 0,
    exhaustive_limit: int = EXHAUSTIVE_LIMIT,
) -> RademacherEstimate:
    """E sqrt(R * max_t ||u_t||_{p*}) at unit task weights.

    This is the constant that turns the budget-split bound into a formula:
    the hypothesis ball concentrates its budget on the best single task,
    and the kernel weights maximize a linear form over the Lp ball.
    """
    total = _check_inputs(stacks, R, samples)
    p_star = conjugate_exponent(p)

    def reduce(tables):
        return np.sqrt(R * np.max([_dual_norms(table, p_star) for table in tables], axis=0))

    return _sign_expectation(stacks, samples, "scale-const", seed, total <= exhaustive_limit, reduce)


def erc_upper_bound_lp(inputs: BoundInputs) -> float:
    """Trace-norm complexity bound (2 sqrt(2 R p*) / (TN)) sqrt(sum_t ||v_t||_{p*} / lam_t).

    For p = 1 the conjugate exponent is infinite and the sqrt(p*) factor
    diverges, so the bound does not apply; it returns nan as a
    not-applicable marker.
    """
    if inputs.p == 1.0:
        return float("nan")
    lam = inputs.task_weights.values
    p_star = conjugate_exponent(inputs.p)
    total = inputs.T * inputs.N
    norms = np.array([lp_norm(v, p_star) for v in inputs.traces])
    return float(2.0 * np.sqrt(2.0 * inputs.R * p_star) / total * np.sqrt((norms / lam).sum()))


@dataclass
class BoundTerms:
    empirical: float
    complexity: float
    weight_range: float
    confidence: float
    total: float
    r_max_given: float
    r_max_used: float
    log_clamped: bool


def bound_rhs_any_lambda(inputs: BoundInputs, emp_loss: float, erc: float) -> BoundTerms:
    """Right-hand side of the bound valid uniformly over task weights.

    emp + (sqrt(2) r / rho) erc
        + sqrt((9 / TN) ln((2 r / T) sum_t 1/lam_t))
        + sqrt(9 ln(1/delta) / (2 TN))

    The uniform argument needs an integer weight cap, so a fractional cap
    is rounded up and both values are reported. Weights on the box
    boundary draw a warning, not an error; a nonpositive log argument
    clamps the third term at zero with a warning.
    """
    lam = inputs.task_weights.values
    r_given = float(inputs.task_weights.r_max)
    r_used = float(np.ceil(r_given))
    if np.any(lam <= 1.0) or np.any(lam >= r_given):
        warnings.warn(
            "task weights on the box boundary: the uniform bound assumes the open box",
            stacklevel=2,
        )
    total = inputs.T * inputs.N
    log_arg = (2.0 * r_used / inputs.T) * float((1.0 / lam).sum())
    clamped = False
    if np.log(log_arg) <= 0.0:
        warnings.warn("weight-range term clamped at zero (log argument <= 1)", stacklevel=2)
        weight_range = 0.0
        clamped = True
    else:
        weight_range = float(np.sqrt(9.0 / total * np.log(log_arg)))
    complexity = float(np.sqrt(2.0) * r_used / inputs.rho * erc)
    confidence = float(np.sqrt(9.0 * np.log(1.0 / inputs.delta) / (2.0 * total)))
    total_value = emp_loss + complexity + weight_range + confidence
    return BoundTerms(
        empirical=float(emp_loss),
        complexity=complexity,
        weight_range=weight_range,
        confidence=confidence,
        total=float(total_value),
        r_max_given=r_given,
        r_max_used=r_used,
        log_clamped=clamped,
    )


def bound_rhs_fixed_lambda(inputs: BoundInputs, emp_loss: float, erc: float) -> float:
    """Right-hand side for a fixed weight vector: emp + (r/rho) erc + confidence."""
    total = inputs.T * inputs.N
    return float(
        emp_loss
        + inputs.task_weights.r_max / inputs.rho * erc
        + np.sqrt(9.0 * np.log(1.0 / inputs.delta) / (2.0 * total))
    )


def model_radius(model) -> float:
    """Tightest weighted ball containing the trained model: sum_t lam_t ||w_t||^2."""
    theta = model.theta.values
    lam = model.task_weights.values
    total = 0.0
    for t, dual in enumerate(model.duals):
        comp = np.asarray(dual.component_sq_norms, dtype=float)
        norm_sq = np.divide(comp, theta, out=np.zeros_like(comp), where=theta > 0).sum()
        total += lam[t] * float(norm_sq)
    return total


@dataclass
class BoundReport:
    values: dict

    def lines(self):
        return [f"{key} {value!r}" for key, value in self.values.items()]

    def csv_header(self) -> str:
        return ",".join(self.values)

    def csv_row(self) -> str:
        return ",".join(repr(value) for value in self.values.values())


def bound_report(
    model,
    test_tasks,
    delta: float = 0.05,
    rho: float = 1.0,
    mc_samples: int = 10_000,
    seed: int = 0,
    stacks=None,
) -> BoundReport:
    """Assemble every bound term for a trained model plus its test error.

    test_tasks pairs with the model's tasks by task_id; pass stacks to
    reuse precomputed training Grams, otherwise they are rebuilt from the
    model's training data.
    """
    from .kernels import build_gram_stack
    from .training import decision_values, weighted_empirical_loss

    sizes = {task.y.size for task in model.tasks}
    if len(sizes) != 1:
        raise ValueError("bound reporting requires all tasks to have the same sample count")
    N = sizes.pop()
    T = len(model.tasks)
    M = len(model.theta.values)
    if stacks is None:
        stacks = [
            build_gram_stack(task.task_id, task.X, model.kernel_specs) for task in model.tasks
        ]

    R = model_radius(model)
    p = model.config.p
    inputs = BoundInputs(
        T=T,
        N=N,
        M=M,
        task_weights=model.task_weights,
        rho=rho,
        delta=delta,
        R=max(R, 1e-300),
        p=p,
        traces=np.vstack([s.traces for s in stacks]),
    )
    emp = weighted_empirical_loss(model, rho, stacks)
    est = rademacher_mc(stacks, model.task_weights, inputs.R, p, samples=mc_samples, seed=seed)
    upper = erc_upper_bound_lp(inputs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        terms = bound_rhs_any_lambda(inputs, emp, est.mean)
    fixed_total = bound_rhs_fixed_lambda(inputs, emp, est.mean)

    if hasattr(test_tasks, "tasks"):
        test_tasks = test_tasks.tasks
    by_id = {t.task_id: t for t in test_tasks}
    errors = []
    for task in model.tasks:
        if task.task_id not in by_id:
            raise ValueError(f"no test split supplied for task {task.task_id!r}")
        test = by_id[task.task_id]
        values = decision_values(model, task.task_id, test.X)
        errors.append(float((test.y * values <= 0.0).mean()))

    return BoundReport(
        values={
            "tasks": T,
            "per_task_samples": N,
            "kernels": M,
            "p": float(p),
            "rho": float(rho),
            "delta": float(delta),
            "r_ball": float(R),
            "r_max": float(terms.r_max_given),
            "r_max_integer": float(terms.r_max_used),
            "empirical_weighted_loss": float(emp),
            "complexity_mc": float(est.mean),
            "complexity_mc_stderr": float(est.std_error),
            "complexity_mc_samples": est.samples,
            "complexity_exhaustive": int(est.exhaustive),
            "complexity_upper_bound": float(upper),
            "term_empirical": float(terms.empirical),
            "term_complexity": float(terms.complexity),
            "term_weight_range": float(terms.weight_range),
            "term_confidence": float(terms.confidence),
            "total_adaptive": float(terms.total),
            "total_fixed": float(fixed_total),
            "test_error": float(np.mean(errors)),
        }
    )
