"""Numeric verification of the complexity and weighting properties.

Each check builds random small instances, evaluates both sides of a
claimed inequality or monotonicity, and reports pass/fail. The complexity
checks enumerate every sign pattern, so there is no sampling noise; the
path-tracing check evaluates the weight formula on a grid of exponents,
and the fixed-versus-uniform check compares the two bound totals at drawn
loss and complexity values. The suite backs the `radcheck` command.

Instance k of a check is seeded from (the check's tag, seed, k) alone, so
no check's lines depend on another check, on the instance count or on the
order in which the checks run.
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


def _instances(tag, seed, n_instances):
    """One random generator per instance of a check; instance k is seeded from (tag, seed, k) alone."""
    if isinstance(n_instances, bool) or not isinstance(n_instances, (int, np.integer)) or n_instances < 1:
        raise ValueError(f"n_instances must be a positive integer, got {n_instances!r}")
    return (np.random.default_rng(derive_seed(tag, seed, k)) for k in range(n_instances))


def _tally(name, noun, cases) -> CheckResult:
    """The result of a check from one violation count per case; a bool counts as 0 or 1."""
    counts = [int(case) for case in cases]
    violations = sum(counts)
    return CheckResult(name, violations == 0, f"{len(counts)} {noun}, {violations} violations")


def check_complexity_monotone_in_task_weights(n_instances=50, seed=0) -> CheckResult:
    def perturbations():
        for rng in _instances("mono-lam", seed, n_instances):
            stacks = random_stacks(rng)
            p = float(rng.choice([1.0, 4.0 / 3.0, 2.0, 4.0]))
            lam = rng.uniform(1.0, 3.0, size=len(stacks))
            base = rademacher_mc(stacks, lam, R=1.0, p=p).mean
            for t in range(len(stacks)):
                bumped = lam.copy()
                bumped[t] *= 1.5
                yield not rademacher_mc(stacks, bumped, R=1.0, p=p).mean < base  # kernels are nonzero: strictly smaller
    return _tally("complexity decreases in each task weight", "perturbations", perturbations())


def check_complexity_monotone_in_sign_scales(n_instances=50, seed=0) -> CheckResult:
    def perturbations():
        for rng in _instances("mono-gam", seed, n_instances):
            stacks = random_stacks(rng)
            p = float(rng.choice([1.0, 2.0, 4.0]))
            lam = rng.uniform(1.0, 3.0, size=len(stacks))
            gamma = rng.uniform(0.5, 2.0, size=len(stacks))
            base = rademacher_mc(stacks, lam, R=1.0, p=p, gamma=gamma).mean
            for t in range(len(stacks)):
                bumped = gamma.copy()
                bumped[t] *= 1.5
                yield rademacher_mc(stacks, lam, R=1.0, p=p, gamma=bumped).mean < base
    return _tally("complexity grows with each sign scale", "perturbations", perturbations())


def check_complexity_halves_at_doubled_weights(n_instances=25, seed=0) -> CheckResult:
    worst = 0.0
    for rng in _instances("homog", seed, n_instances):
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
    def violated(rng):
        T = int(rng.integers(1, 4))
        N = int(rng.integers(1, 5))
        M = int(rng.integers(1, 4))
        stacks = random_stacks(rng, T=T, N=N, M=M)
        p = float(rng.choice([4.0 / 3.0, 2.0, 4.0]))
        lam = rng.uniform(1.0, 4.0, size=T)
        R = float(rng.uniform(0.5, 3.0))
        return rademacher_mc(stacks, lam, R=R, p=p).mean > erc_upper_bound_lp(stacks, lam, R, p) + 1e-12
    cases = map(violated, _instances("trace-bound", seed, n_instances))
    return _tally("trace-norm upper bound dominates exhaustive complexity", "instances", cases)


def check_budget_split_bound(n_instances=50, seed=0) -> CheckResult:
    def violated(rng):
        stacks = random_stacks(rng)
        p = float(rng.choice([1.0, 2.0, 4.0]))
        lam = rng.uniform(1.0, 4.0, size=len(stacks))
        R = float(rng.uniform(0.5, 2.0))
        total = sum(s.n_samples for s in stacks)
        mc = rademacher_mc(stacks, lam, R=R, p=p).mean
        scale = estimate_scale_constant(stacks, R=R, p=p).mean
        return mc > 2.0 / total * np.sqrt(float((1.0 / lam).sum())) * scale + 1e-12
    cases = map(violated, _instances("split-bound", seed, n_instances))
    return _tally("budget-split bound dominates exhaustive complexity", "instances", cases)


def check_pareto_weights(n_instances=100, seed=0) -> CheckResult:
    grid = np.arange(0.1, 0.95, 0.1)

    def violations(rng):
        T = int(rng.integers(2, 6))
        f = rng.uniform(0.2, 5.0, size=T)
        at_one = pareto_lambda(f, 1.0)
        path = [pareto_lambda(f, float(p)) for p in grid]
        return (
            int(np.any(at_one != 1.0))
            + sum(bool(np.any(lam <= 1.0)) for lam in path)
            + sum(not np.all(lam < prev) for prev, lam in zip(path, path[1:]))
        )
    cases = map(violations, _instances("pareto", seed, n_instances))
    return _tally("path-tracing weights exceed 1 and fall as the exponent grows", "weight vectors", cases)


def check_fixed_below_adaptive(n_instances=25, seed=0) -> CheckResult:
    def violated(rng):
        T = int(rng.integers(1, 5))
        lam = rng.uniform(1.2, 3.0, size=T)
        N = int(rng.integers(2, 30))
        bound = {"r_max": 4.0, "total": T * N, "rho": 1.0, "delta": float(rng.uniform(0.01, 0.5))}
        emp = float(rng.uniform(0.0, 0.5))
        erc = float(rng.uniform(1e-3, 0.5))
        adaptive = bound_rhs_any_lambda(emp, erc, task_weights=lam, **bound).total
        return not bound_rhs_fixed_lambda(emp, erc, **bound) < adaptive
    cases = map(violated, _instances("fixed-vs-any", seed, n_instances))
    return _tally("fixed-weights total stays below the uniform total", "instances", cases)


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
