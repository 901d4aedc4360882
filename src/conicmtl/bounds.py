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
words keyed on (tag, seed, block)), drawn and contracted one chunk at a
time into per-task quadratic-form tables (a GEMM per task, run of kernels
and chunk on views of the Grams; a Gram that is the identity in floating
point gives the constant n and stays out of the GEMM), reduced chunk by
chunk into one block of values, and one mean and std-error accumulator.
Only the reducer differs: sum the scaled tables over tasks, then the
p*-norm; or the p*-norm per task, then the max over tasks.

The blocks are independent, so when BLAS runs one thread per call they
are spread over every usable CPU (_workers). Each thread owns its buffers,
one chunk wide: signs, products, tables and one block of values. Each
block's sum and sum of squares are added into the accumulator in block
order, so the estimate has the same bits at any thread count.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels, training
from .util import conjugate_exponent, derive_seed

EXHAUSTIVE_LIMIT = 20
MC_BLOCK = 4096
CONTRACT_CHUNK = 512


@dataclass
class RademacherEstimate:
    mean: float
    std_error: float
    samples: int
    exhaustive: bool


def _dual_norms(U: np.ndarray, p_star: float) -> np.ndarray:
    """p*-norm of each column of a (M, n) table, negative entries clipped to 0."""
    U = np.maximum(U, 0.0)
    if math.isinf(p_star):
        return U.max(axis=0)
    if p_star == 1.0:
        return U.sum(axis=0)
    return (U**p_star).sum(axis=0) ** (1.0 / p_star)


def _check_inputs(stacks, R: float, samples: int = 1, **per_task) -> int:
    """Argument checks of both estimators and the trace bound; returns the total sample count.

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
    _check_samples(samples)
    return sum(s.n_samples for s in stacks)


def _check_samples(samples) -> None:
    """A sample count is an integer (a bool is not one) of at least 1."""
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)):
        raise ValueError(f"samples must be an integer, got {samples!r}")
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")


def _sign_chunks(cols: np.ndarray, total: int, n_patterns: int, block: int, tag: str, seed: int, exhaustive: bool):
    """Write block `block` of MC_BLOCK sign vectors into the flat buffer cols, CONTRACT_CHUNK columns at a time.

    Yields (first column, C-contiguous (total, width) view of cols) per
    chunk; the next chunk overwrites it. Exhaustive pattern k has sign (bit
    j of k) for sample j. A random block reads raw words of a Philox
    generator keyed on (tag, seed, block): entry k of the block in (sample,
    sign) C order is bit 31 of 64-bit word k//2 for even k and bit 63 for
    odd k, +1 where the bit is set. That is the stream of
    Generator(Philox(key)).integers(0, 2, size=(n_block, total)) with the
    default int64 dtype: one 32-bit draw per entry, the low half of a word
    first, and its top bit, since Lemire's method rejects no draw for a
    range of 2. A full chunk holds an even number of entries, so each chunk
    starts on a word.
    """
    start = block * MC_BLOCK
    n_block = min(MC_BLOCK, n_patterns - start)
    philox = None if exhaustive else np.random.Philox(key=derive_seed(tag, seed, block))
    for at in range(0, n_block, CONTRACT_CHUNK):
        width = min(CONTRACT_CHUNK, n_block - at)
        chunk = cols[: total * width].reshape(total, width)
        if exhaustive:
            index = np.arange(2 * (start + at), 2 * (start + at + width), 2, dtype=np.int64)
            np.subtract((index >> np.arange(total)[:, None]) & 2, 1.0, out=chunk)  # twice each bit, less 1
        else:
            # the entries as little-endian 32-bit halves: a set bit 31 is a negative int32
            halves = philox.random_raw(-(-width * total // 2)).astype("<u8", copy=False).view("<i4")
            np.copysign(1.0, halves[: width * total].reshape(width, total).T, out=chunk)
            np.negative(chunk, out=chunk)
            del halves  # freed before the chunk is contracted and the next one drawn
        yield at, chunk


def _float_identity(gram: np.ndarray) -> bool:
    """Whether the (n, n) Gram has unit diagonal and off-diagonal |row| sums at most 2^-56.

    For such a Gram, sigma' G sigma is exactly n for every sign vector
    sigma, whatever the summation order of the GEMM and whether it fuses
    multiply-adds. In (G sigma)_i, the diagonal term is sigma_i = +-1 and
    any sum of off-diagonal terms stays below 2^-55 in magnitude, rounding
    included. A partial sum that holds the diagonal term is therefore
    sigma_i exactly: adding less than 2^-54, half an ulp below 1, to +-1
    rounds back to +-1. So (G sigma)_i = sigma_i, each product
    sigma_i (G sigma)_i is 1.0, and their sum is n exactly.
    """
    if not (gram.diagonal() == 1.0).all():
        return False
    off = np.abs(gram, order="C")
    np.fill_diagonal(off, 0.0)
    return bool((off.sum(axis=1) <= 2.0**-56).all())


def _contraction_plan(stacks) -> list:
    """Per task (M, n, grams, runs): all M Grams as one (M*n, n) view, and the runs that need the GEMM.

    runs holds (a, b, Grams a..b-1 viewed as ((b-a)*n, n)) per maximal run of
    kernels that are not the identity in floating point (_float_identity,
    tested one Gram at a time; only a trace of n can come from a unit
    diagonal); the default dictionary typically gives two, [0:2] and the
    wider gaussians such as [4:11]. The plan is only read, so threads share it.
    """
    plan = []
    for stack in stacks:
        M, n, _ = stack.grams.shape
        keep = [not (trace == n and _float_identity(gram)) for trace, gram in zip(stack.traces.tolist(), stack.grams)]
        edges = np.flatnonzero(np.diff([0, *keep, 0])).tolist()
        runs = [(a, b, stack.grams[a:b].reshape(-1, n)) for a, b in zip(edges[::2], edges[1::2])]
        plan.append((M, n, stack.grams.reshape(M * n, n), runs))
    return plan


def _chunk_tables(plan, total: int, n_patterns: int, blocks, tag: str, seed: int, exhaustive: bool):
    """Yield (block, first column, per-task (M, width) tables of sigma_t' G_t^m sigma_t) per chunk of the given blocks.

    The buffers belong to the calling thread and are allocated once, one
    chunk wide: the signs, the products and the tables; the next chunk
    overwrites the yielded views. Identity rows hold n. A full chunk makes
    one GEMM per task and run, so the product buffer holds the longest run;
    a narrower last chunk contracts all M kernels, since OpenBLAS rounds a
    partial tile of columns differently for different row counts, while
    full-width chunks gave every row the same bits at every row count tried.
    """
    sizes = [min(MC_BLOCK, n_patterns - block * MC_BLOCK) for block in blocks]
    full = CONTRACT_CHUNK if max(sizes) >= CONTRACT_CHUNK else 0
    narrow = max(size % CONTRACT_CHUNK for size in sizes)
    widest = max(full, narrow)
    cols = np.empty(total * widest)
    longest = [max((b - a for a, b, _ in runs), default=0) for _, _, _, runs in plan]
    prod = np.empty(max(n * max(full * run, narrow * M) for (M, n, _, _), run in zip(plan, longest)))
    tables = [np.full((M, widest), float(n)) for M, n, _, _ in plan]
    for block in blocks:
        for at, chunk in _sign_chunks(cols, total, n_patterns, block, tag, seed, exhaustive):
            width = chunk.shape[1]
            lo = 0
            for (M, n, grams, runs), table in zip(plan, tables):
                signs = chunk[lo : lo + n]
                lo += n
                for a, b, gemm in runs if width == CONTRACT_CHUNK else [(0, M, grams)]:
                    out = prod[: (b - a) * n * width].reshape((b - a) * n, width)
                    np.matmul(gemm, signs, out=out)
                    np.einsum("mic,ic->mc", out.reshape(b - a, n, width), signs, out=table[a:b, :width])
            yield block, at, [table[:, :width] for table in tables]


def _block_values(plan, total: int, n_patterns: int, blocks, tag: str, seed: int, exhaustive: bool, reduce):
    """Yield (block, reduce's values over the block) per given block, reduced one chunk at a time.

    The values of a column do not depend on the chunk's width, except that
    numpy sums a lone column over the kernels pairwise and a wider C-order
    table row by row; a one-column chunk of a wider block is therefore
    reduced as two copies side by side, which gives its column the bits of a
    block-wide reduce.
    """
    values = np.empty(min(MC_BLOCK, n_patterns))
    for block, at, tables in _chunk_tables(plan, total, n_patterns, blocks, tag, seed, exhaustive):
        width = tables[0].shape[1]
        n_block = min(MC_BLOCK, n_patterns - block * MC_BLOCK)
        if width < 2 <= n_block:
            tables = [np.repeat(table, 2, axis=1) for table in tables]  # C order, as a block-wide table
        values[at : at + width] = reduce(tables)[:width]
        if at + width == n_block:
            yield block, values[:n_block]


def _workers() -> int:
    """Threads for the sign blocks: every usable CPU when BLAS runs one thread per call, else 1.

    OpenBLAS takes its thread count from the first of OPENBLAS_NUM_THREADS,
    GOTO_NUM_THREADS and OMP_NUM_THREADS set to a positive number. A GEMM on
    more BLAS threads already spreads over the CPUs, and block threads beside
    it were slower than none.
    """
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            count = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if count > 0:
            return len(os.sched_getaffinity(0)) if count == 1 and hasattr(os, "sched_getaffinity") else 1
    return 1


def _sign_expectation(stacks, samples, tag, seed, exhaustive, reduce) -> RademacherEstimate:
    """Mean and standard error of reduce(per-task quadform tables) over the sign blocks.

    Thread k of W takes blocks k, k + W, ...; the calling thread is thread 0.
    Each block's sum and sum of squares are added up in block order, so the
    result has the same bits at any thread count. An exception in any thread
    stops the others after their current block and is raised here once all
    have ended.
    """
    total = sum(s.n_samples for s in stacks)
    n = 1 << total if exhaustive else samples
    plan = _contraction_plan(stacks)
    n_blocks = -(-n // MC_BLOCK)
    workers = min(_workers(), n_blocks)
    moments = [None] * n_blocks
    errors = []

    def work(first):
        try:
            blocks = range(first, n_blocks, workers)
            for block, values in _block_values(plan, total, n, blocks, tag, seed, exhaustive, reduce):
                moments[block] = (float(values.sum()), float((values**2).sum()))
                if errors:
                    return
        except BaseException as exc:
            errors.append(exc)

    helpers = [threading.Thread(target=work, args=(first,)) for first in range(1, workers)]
    for helper in helpers:
        helper.start()
    work(0)
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
    acc_sum = acc_sq = 0.0
    for block_sum, block_sq in moments:
        acc_sum += block_sum
        acc_sq += block_sq
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


def erc_upper_bound_lp(stacks, task_weights, R: float, p: float) -> float:
    """Trace-norm complexity bound (2 sqrt(2 R p*) / total) sqrt(sum_t ||v_t||_{p*} / lam_t).

    Takes rademacher_mc's arguments, which it dominates; ||v_t||_{p*} is the
    trace-vector norm training.task_costs gives task t, and total is sum_t n_t.
    For p = 1 the conjugate exponent is infinite and the sqrt(p*) factor
    diverges, so the bound does not apply; it returns nan as a not-applicable marker.
    """
    lam = np.asarray(task_weights, dtype=float)
    total = _check_inputs(stacks, R, task_weights=lam)
    if p == 1.0:
        return float("nan")
    p_star = conjugate_exponent(p)
    return float(2.0 * np.sqrt(2.0 * R * p_star) / total * np.sqrt((training.task_costs(stacks, p) / lam).sum()))


def _check_bound_values(r_max: float, rho: float, delta: float) -> None:
    """The checks of the values both bound totals read."""
    if not r_max > 1.0:
        raise ValueError(f"r_max must exceed 1, got {r_max}")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not rho > 0:
        raise ValueError("rho must be positive")


@dataclass
class BoundTerms:
    complexity: float
    weight_range: float
    confidence: float
    total: float
    r_max_used: float


def bound_rhs_any_lambda(
    emp_loss: float, erc: float, *, task_weights, r_max: float, total: int, rho: float, delta: float
) -> BoundTerms:
    """Right-hand side of the bound valid uniformly over task weights.

    emp + (sqrt(2) r / rho) erc
        + sqrt((9 / total) ln((2 r / T) sum_t 1/lam_t))
        + sqrt(9 ln(1/delta) / (2 total))

    total is the sample count TN. The uniform argument needs an integer
    weight cap, so a fractional cap is rounded up and used as r. Weights on
    the box boundary draw a warning, not an error; a nonpositive log
    argument clamps the third term at zero with a warning.
    """
    lam = np.asarray(task_weights, dtype=float)
    if not np.isfinite(lam).all():
        raise ValueError(f"task weights must be finite, got {lam}")
    _check_bound_values(r_max, rho, delta)
    r_used = float(np.ceil(r_max))
    if np.any(lam <= 1.0) or np.any(lam >= r_max):
        warnings.warn(
            "task weights on the box boundary: the uniform bound assumes the open box",
            stacklevel=2,
        )
    log_arg = (2.0 * r_used / lam.size) * float((1.0 / lam).sum())
    if np.log(log_arg) <= 0.0:
        warnings.warn("weight-range term clamped at zero (log argument <= 1)", stacklevel=2)
        weight_range = 0.0
    else:
        weight_range = float(np.sqrt(9.0 / total * np.log(log_arg)))
    complexity = float(np.sqrt(2.0) * r_used / rho * erc)
    confidence = float(np.sqrt(9.0 * np.log(1.0 / delta) / (2.0 * total)))
    return BoundTerms(
        complexity=complexity,
        weight_range=weight_range,
        confidence=confidence,
        total=float(emp_loss + complexity + weight_range + confidence),
        r_max_used=r_used,
    )


def bound_rhs_fixed_lambda(emp_loss: float, erc: float, *, r_max: float, total: int, rho: float, delta: float) -> float:
    """Right-hand side for a fixed weight vector: emp + (r/rho) erc + sqrt(9 ln(1/delta) / (2 total))."""
    _check_bound_values(r_max, rho, delta)
    return float(emp_loss + r_max / rho * erc + np.sqrt(9.0 * np.log(1.0 / delta) / (2.0 * total)))


def model_radius(model) -> float:
    """Tightest weighted ball containing the trained model: sum_t lam_t ||w_t||^2."""
    theta = model.theta
    total = 0.0
    for lam, dual in zip(model.task_weights, model.duals):
        comp = np.asarray(dual.component_sq_norms, dtype=float)
        norm_sq = np.divide(comp, theta, out=np.zeros_like(comp), where=theta > 0).sum()
        total += lam * float(norm_sq)
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

    test_tasks, any iterable of TaskDataset, pairs with the model's tasks
    by task_id; pass stacks to reuse precomputed training Grams, otherwise
    they are rebuilt from the model's training data.
    """
    sizes = {task.y.size for task in model.tasks}
    if len(sizes) != 1:
        raise ValueError("bound reporting requires all tasks to have the same sample count")
    N = sizes.pop()
    T = len(model.tasks)
    r_max = model.config.r_max
    _check_bound_values(r_max, rho, delta)
    _check_samples(mc_samples)
    by_id = {t.task_id: t for t in test_tasks}
    model_ids = [task.task_id for task in model.tasks]
    missing = [task_id for task_id in model_ids if task_id not in by_id]
    unknown = [task_id for task_id in by_id if task_id not in model_ids]
    if missing or unknown:
        raise ValueError(
            f"test tasks must pair with the model's tasks {model_ids}: missing {missing}, not in the model {unknown}"
        )
    if stacks is None:
        stacks = [kernels.build_gram_stack(task.task_id, task.X, model.kernel_specs) for task in model.tasks]

    R = model_radius(model)
    p = model.config.p
    lam = model.task_weights
    radius = max(R, 1e-300)
    emp = training.weighted_empirical_loss(model, rho, stacks)
    est = rademacher_mc(stacks, lam, radius, p, samples=mc_samples, seed=seed)
    upper = erc_upper_bound_lp(stacks, lam, radius, p)
    bound = {"r_max": r_max, "total": T * N, "rho": rho, "delta": delta}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        terms = bound_rhs_any_lambda(emp, est.mean, task_weights=lam, **bound)
    fixed_total = bound_rhs_fixed_lambda(emp, est.mean, **bound)

    errors = []
    for task_id in model_ids:
        test = by_id[task_id]
        values = training.decision_values(model, task_id, test.X)
        errors.append(float((test.y * values <= 0.0).mean()))

    return BoundReport(
        values={
            "tasks": T,
            "per_task_samples": N,
            "kernels": len(model.theta),
            "p": float(p),
            "rho": float(rho),
            "delta": float(delta),
            "r_ball": float(R),
            "r_max": float(r_max),
            "r_max_integer": float(terms.r_max_used),
            "empirical_weighted_loss": float(emp),
            "complexity_mc": float(est.mean),
            "complexity_mc_stderr": float(est.std_error),
            "complexity_mc_samples": est.samples,
            "complexity_exhaustive": int(est.exhaustive),
            "complexity_upper_bound": float(upper),
            "term_empirical": float(emp),
            "term_complexity": float(terms.complexity),
            "term_weight_range": float(terms.weight_range),
            "term_confidence": float(terms.confidence),
            "total_adaptive": float(terms.total),
            "total_fixed": float(fixed_total),
            "test_error": float(np.mean(errors)),
        }
    )
