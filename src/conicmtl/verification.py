"""Numeric verification of the complexity and weighting properties.

Each check builds random small instances, evaluates both sides of a
claimed inequality or monotonicity, and reports pass/fail. The complexity
checks enumerate every sign pattern, so there is no sampling noise; the
path-tracing check evaluates the weight formula on a grid of exponents,
and the fixed-versus-uniform check compares the two bound totals at drawn
loss and complexity values. The suite backs the `radcheck` command.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import bound_rhs_any_lambda, bound_rhs_fixed_lambda, erc_upper_bound_lp, estimate_scale_constant, rademacher_mc
from .kernels import GramStack
from .training import pareto_lambda
from .util import derive_seed


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail}"


_MAX_TOTAL = 12  # T * N stays small enough for exhaustive enumeration


def random_stacks(rng, T=None, N=None, M=None):
    """Random PSD gram stacks small enough for exhaustive enumeration."""
    T = T if T is not None else int(rng.integers(1, 4))
    M = M if M is not None else int(rng.integers(1, 4))
    if N is None:
        N = max(1, _MAX_TOTAL // T // 2)
    stacks = []
    for t in range(T):
        grams = np.empty((M, N, N))
        for m in range(M):
            A = rng.standard_normal((N, N + 2))
            G = A @ A.T / (N + 2)
            grams[m] = 0.5 * (G + G.T)
        stacks.append(GramStack(task_id=f"t{t}", grams=grams))
    return stacks


def check_complexity_monotone_in_task_weights(n_instances=50, seed=0) -> CheckResult:
    violations = 0
    tried = 0
    for k in range(n_instances):
        rng = np.random.default_rng(derive_seed("mono-lam", seed, k))
        stacks = random_stacks(rng)
        T = len(stacks)
        p = float(rng.choice([1.0, 4.0 / 3.0, 2.0, 4.0]))
        lam = rng.uniform(1.0, 3.0, size=T)
        base = rademacher_mc(stacks, lam, R=1.0, p=p).mean
        for t in range(T):
            bumped = lam.copy()
            bumped[t] *= 1.5
            value = rademacher_mc(stacks, bumped, R=1.0, p=p).mean
            tried += 1
            if not value < base:  # kernels are nonzero, so strictly smaller
                violations += 1
    return CheckResult(
        "complexity decreases in each task weight",
        violations == 0,
        f"{tried} perturbations, {violations} violations",
    )


def check_complexity_monotone_in_sign_scales(n_instances=50, seed=0) -> CheckResult:
    violations = 0
    tried = 0
    for k in range(n_instances):
        rng = np.random.default_rng(derive_seed("mono-gam", seed, k))
        stacks = random_stacks(rng)
        T = len(stacks)
        p = float(rng.choice([1.0, 2.0, 4.0]))
        lam = rng.uniform(1.0, 3.0, size=T)
        gamma = rng.uniform(0.5, 2.0, size=T)
        base = rademacher_mc(stacks, lam, R=1.0, p=p, gamma=gamma).mean
        for t in range(T):
            bumped = gamma.copy()
            bumped[t] *= 1.5
            value = rademacher_mc(stacks, lam, R=1.0, p=p, gamma=bumped).mean
            tried += 1
            if value < base:
                violations += 1
    return CheckResult(
        "complexity grows with each sign scale",
        violations == 0,
        f"{tried} perturbations, {violations} violations",
    )


def check_complexity_halves_at_doubled_weights(n_instances=25, seed=0) -> CheckResult:
    worst = 0.0
    for k in range(n_instances):
        rng = np.random.default_rng(derive_seed("homog", seed, k))
        stacks = random_stacks(rng)
        lam = rng.uniform(1.0, 3.0, size=len(stacks))
        p = float(rng.choice([1.0, 2.0, 4.0]))
        a = rademacher_mc(stacks, lam, R=1.0, p=p).mean
        b = rademacher_mc(stacks, 2.0 * lam, R=1.0, p=p).mean
        worst = max(worst, abs(b - a / np.sqrt(2.0)) / a)
    return CheckResult(
        "doubling all task weights divides complexity by sqrt(2)",
        worst <= 1e-13,
        f"worst relative deviation {worst:.2e}",
    )


def check_trace_norm_bound(n_instances=100, seed=0) -> CheckResult:
    violations = 0
    for k in range(n_instances):
        rng = np.random.default_rng(derive_seed("trace-bound", seed, k))
        T = int(rng.integers(1, 4))
        N = int(rng.integers(1, 5))
        M = int(rng.integers(1, 4))
        stacks = random_stacks(rng, T=T, N=N, M=M)
        p = float(rng.choice([4.0 / 3.0, 2.0, 4.0]))
        lam = rng.uniform(1.0, 4.0, size=T)
        R = float(rng.uniform(0.5, 3.0))
        mc = rademacher_mc(stacks, lam, R=R, p=p).mean
        if mc > erc_upper_bound_lp(stacks, lam, R, p) + 1e-12:
            violations += 1
    return CheckResult(
        "trace-norm upper bound dominates exhaustive complexity",
        violations == 0,
        f"{n_instances} instances, {violations} violations",
    )


def check_budget_split_bound(n_instances=50, seed=0) -> CheckResult:
    violations = 0
    for k in range(n_instances):
        rng = np.random.default_rng(derive_seed("split-bound", seed, k))
        stacks = random_stacks(rng)
        T = len(stacks)
        p = float(rng.choice([1.0, 2.0, 4.0]))
        lam = rng.uniform(1.0, 4.0, size=T)
        R = float(rng.uniform(0.5, 2.0))
        total = sum(s.n_samples for s in stacks)
        mc = rademacher_mc(stacks, lam, R=R, p=p).mean
        scale = estimate_scale_constant(stacks, R=R, p=p).mean
        rhs = 2.0 / total * np.sqrt(float((1.0 / lam).sum())) * scale
        if mc > rhs + 1e-12:
            violations += 1
    return CheckResult(
        "budget-split bound dominates exhaustive complexity",
        violations == 0,
        f"{n_instances} instances, {violations} violations",
    )


def check_pareto_weights(n_instances=100, seed=0) -> CheckResult:
    violations = 0
    grid = np.arange(0.1, 0.95, 0.1)
    for k in range(n_instances):
        rng = np.random.default_rng(derive_seed("pareto", seed, k))
        T = int(rng.integers(2, 6))
        f = rng.uniform(0.2, 5.0, size=T)
        if np.any(pareto_lambda(f, 1.0) != 1.0):
            violations += 1
        prev = None
        for p in grid:
            lam = pareto_lambda(f, float(p))
            if np.any(lam <= 1.0):
                violations += 1
            if prev is not None and not np.all(lam < prev):
                violations += 1
            prev = lam
    return CheckResult(
        "path-tracing weights exceed 1 and fall as the exponent grows",
        violations == 0,
        f"{n_instances} weight vectors, {violations} violations",
    )


def check_fixed_below_adaptive(n_instances=25, seed=0) -> CheckResult:
    violations = 0
    for k in range(n_instances):
        rng = np.random.default_rng(derive_seed("fixed-vs-any", seed, k))
        T = int(rng.integers(1, 5))
        lam = rng.uniform(1.2, 3.0, size=T)
        N = int(rng.integers(2, 30))
        bound = {"r_max": 4.0, "total": T * N, "rho": 1.0, "delta": float(rng.uniform(0.01, 0.5))}
        emp = float(rng.uniform(0.0, 0.5))
        erc = float(rng.uniform(1e-3, 0.5))
        adaptive = bound_rhs_any_lambda(emp, erc, task_weights=lam, **bound).total
        fixed = bound_rhs_fixed_lambda(emp, erc, **bound)
        if not fixed < adaptive:
            violations += 1
    return CheckResult(
        "fixed-weights total stays below the uniform total",
        violations == 0,
        f"{n_instances} instances, {violations} violations",
    )


def run_verification_suite(seed: int = 0, n_instances: int = 50) -> list:
    return [
        check_complexity_monotone_in_task_weights(n_instances, seed),
        check_complexity_monotone_in_sign_scales(n_instances, seed),
        check_complexity_halves_at_doubled_weights(max(10, n_instances // 2), seed),
        check_trace_norm_bound(max(n_instances, 50), seed),
        check_budget_split_bound(n_instances, seed),
        check_pareto_weights(max(n_instances, 50), seed),
        check_fixed_below_adaptive(max(10, n_instances // 2), seed),
    ]
