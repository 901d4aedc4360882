"""The three block-descent subproblems.

Per task, training alternates between
  w-step:      an SVM dual solve against the combined Gram matrix,
  theta-step:  a closed-form update of the kernel weights on the Lp ball,
  lambda-step: task weights from KKT conditions plus bisection on the
               budget multiplier.

All functions here are pure and deterministic: identical inputs give
identical outputs, bit for bit. Solves for different tasks share no state
and may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import GramStack, KernelWeights
from .util import lp_norm


@dataclass
class DualSolution:
    """Result of one task's SVM dual solve.

    objective is the primal value J = 0.5 ||w||^2 + C * sum hinge, measured
    in the combined-kernel space. component_sq_norms holds ||w^m||^2 per
    base kernel in the separated coordinates (theta_m^2 * quadratic form),
    so that sum_m component_sq_norms[m] / theta_m recovers ||w||^2.
    converged is True when the solve certified duality_gap <= tol.
    """

    alpha: np.ndarray
    bias: float
    objective: float
    component_sq_norms: np.ndarray
    duality_gap: float
    dual_objective: float
    iterations: int
    converged: bool
    margins: np.ndarray


@dataclass(frozen=True)
class TaskWeights:
    """Per-task weights in the box [1, r_max] under sum_t cost_t / w_t <= budget.

    enforce_box=False admits out-of-box values for callers that only use
    the weights descriptively (path-tracing weights, exploratory bound
    evaluations); optimization outputs always stay validated.
    """

    values: np.ndarray
    r_max: float
    budget: float
    enforce_box: bool = True

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.r_max <= 1.0:
            raise ValueError(f"r_max must exceed 1, got {self.r_max}")
        if self.enforce_box and (
            np.any(self.values < 1.0 - 1e-9) or np.any(self.values > self.r_max + 1e-9)
        ):
            raise ValueError("task weights outside the [1, r_max] box")

    @staticmethod
    def ones(n_tasks: int, r_max: float, budget: float) -> "TaskWeights":
        return TaskWeights(np.ones(n_tasks), r_max, budget)


def _optimal_bias(g: np.ndarray, y: np.ndarray, C: float) -> tuple[float, float]:
    """Exact minimizer of the hinge total over the bias, given dual gradient g.

    The per-sample loss is max(0, g_i - y_i b), piecewise linear in b, so
    some breakpoint b = y_i g_i attains the minimum. Returns (bias, loss
    total at the bias). Deterministic: ties resolve to the smallest bias.
    """
    candidates = np.unique(y * g)
    losses = np.maximum(0.0, g[None, :] - np.outer(candidates, y)).sum(axis=1)
    k = int(np.argmin(losses))
    return float(candidates[k]), float(C * losses[k])


def _newton_direction(Q, y, g, r, alpha, C, use_bias):
    """Free-set indices and the Newton (or flat) ascent direction on them.

    A variable at a bound is free unless the reduced gradient r strictly
    pushes it outward; free ones whose component points out are then fixed.
    """
    free = ~(((alpha <= 0.0) & (r < 0.0)) | ((alpha >= C) & (r > 0.0)))
    while True:
        idx = np.flatnonzero(free)
        if idx.size <= int(use_bias):
            # nothing free, or one variable that the equality pins
            return idx, np.zeros(idx.size)
        # Z: orthonormal basis of the feasible directions (y_F' d = 0 with the bias)
        Z = np.linalg.qr(y[idx, None], mode="complete")[0][:, 1:] if use_bias else np.eye(idx.size)
        w, V = np.linalg.eigh(Z.T @ Q[np.ix_(idx, idx)] @ Z)
        top = float(np.abs(w).max())
        if w[0] < -1e-8 * max(1.0, top):
            raise ValueError("kernel matrix is not positive semidefinite")
        rhs = Z.T @ g[idx]
        c = V.T @ rhs
        null = w <= 1e-12 * top
        if np.abs(c[null]).max(initial=0.0) > 1e-9 * max(1.0, float(np.abs(rhs).max())):
            d = Z @ V[:, null] @ c[null]  # flat: the objective rises linearly to the box
        else:
            d = Z @ V[:, ~null] @ (c[~null] / w[~null])
        a = alpha[idx]
        out = ((a <= 0.0) & (d < 0.0)) | ((a >= C) & (d > 0.0))
        if not out.any():
            return idx, d
        if use_bias and np.unique(y[idx[~out]]).size < 2:
            # dropping them all would leave one class, which the equality pins
            out &= np.abs(d) == np.abs(d[out]).max()
        free[idx[out]] = False


def solve_svm_dual(
    K: np.ndarray,
    y: np.ndarray,
    C: float,
    use_bias: bool = False,
    tol: float = 1e-6,
    max_iter: int = 100_000,
    alpha0: np.ndarray | None = None,
) -> DualSolution:
    """Maximize sum(alpha) - 0.5 alpha' (yy' * K) alpha over 0 <= alpha <= C.

    With use_bias the equality constraint sum_i alpha_i y_i = 0 is kept.
    Each iteration is an active-set Newton step: the free block's Newton
    system is solved through its eigendecomposition (a gradient component
    in its null space is followed to the box instead), and the step is cut
    at the nearest bound, which the blocking coordinate snaps onto. alpha0
    warm-starts from a feasible point. The loop stops when the duality gap
    certifies tol, at max_iter, or after n + 1 iterations without a higher
    dual value (rounding then keeps tol out of reach); converged is gap <= tol.
    """
    K = np.asarray(K, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    n = y.size
    if K.shape != (n, n):
        raise ValueError(f"kernel shape {K.shape} does not match {n} labels")
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("labels must be +1 or -1")
    if not C > 0:
        raise ValueError("C must be positive")
    if use_bias and np.all(y == y[0]):
        # the equality constraint pins alpha at zero and the bias escapes
        raise ValueError("degenerate task: only one class present")
    if not np.allclose(K, K.T, atol=1e-10):
        raise ValueError("kernel matrix is not symmetric")
    alpha = np.zeros(n) if alpha0 is None else np.array(alpha0, dtype=np.float64)
    if alpha.shape != (n,) or np.any(alpha < 0.0) or np.any(alpha > C):
        raise ValueError("warm start must be a vector in the box [0, C]")
    if use_bias and abs(float(alpha @ y)) > 1e-9 * C * n:
        raise ValueError("warm start violates sum_i alpha_i y_i = 0")

    Q = K * np.outer(y, y)
    g = 1.0 - Q @ alpha  # gradient of the dual objective

    def gap_terms():
        # dual value, primal value and gap, all O(n) given g
        quad = float(alpha @ (1.0 - g))  # alpha' Q alpha
        dual = float(alpha.sum() - 0.5 * quad)
        if use_bias:
            bias, loss = _optimal_bias(g, y, C)
        else:
            bias, loss = 0.0, float(C * np.maximum(g, 0.0).sum())
        primal = 0.5 * quad + loss
        return dual, primal, primal - dual, bias

    iterations = 0
    best, stalled = -np.inf, 0
    for iterations in range(1, max_iter + 1):
        dual, _, gap, bias = gap_terms()
        if gap <= tol:
            break
        # n + 1 steps without a higher dual value: rounding stops the ascent short of tol
        stalled = stalled + 1 if dual <= best else 0
        best = max(best, dual)
        if stalled > n:
            break
        inside = (alpha > 0.0) & (alpha < C)
        if use_bias and inside.any():
            # the equality multiplier, exact at a free-set optimum
            bias = float(np.mean((y * g)[inside]))
        idx, d = _newton_direction(Q, y, g, g - y * bias, alpha, C, use_bias)
        slope = float(g[idx] @ d)
        if not slope > 0.0:
            break
        # exact line search (1 for a Newton step), cut at the nearest bound
        curvature = float(d @ Q[np.ix_(idx, idx)] @ d)
        a = alpha[idx]
        room = np.divide(np.where(d > 0.0, C, 0.0) - a, d, out=np.full(d.size, np.inf), where=d != 0.0)
        moved = a + min(slope / curvature if curvature > 0.0 else np.inf, float(room.min())) * d
        # the blocking coordinate, and any other within rounding of a bound, lands on it
        snap = 1e-14 * C
        alpha[idx] = np.where(moved <= snap, 0.0, np.where(moved >= C - snap, C, moved))
        g = 1.0 - Q @ alpha

    dual, primal, gap, bias = gap_terms()
    margins = 1.0 - g  # y_i * (decision value without bias)
    return DualSolution(
        alpha=alpha,
        bias=bias,
        objective=primal,
        component_sq_norms=np.zeros(0),
        duality_gap=max(gap, 0.0),
        dual_objective=dual,
        iterations=iterations,
        converged=gap <= tol,
        margins=margins,
    )


def component_sq_norms(
    alpha: np.ndarray, y: np.ndarray, stack: GramStack, weights: KernelWeights
) -> np.ndarray:
    """Per-kernel squared norms ||w^m||^2 = theta_m^2 (a*y)' G_m (a*y).

    These live in the separated coordinates, so dividing by theta_m and
    summing recovers the combined-kernel squared norm. A zero theta_m gives
    a zero component regardless of G_m.
    """
    coef = np.asarray(alpha, dtype=float) * np.asarray(y, dtype=float)
    quad = np.einsum("i,mij,j->m", coef, stack.grams, coef)
    return weights.values**2 * quad


def theta_step(u, p: float) -> KernelWeights:
    """Exact minimizer of sum_m u_m / (2 theta_m) on the unit Lp ball.

    The stationarity condition gives theta_m proportional to u_m^(1/(p+1)),
    scaled so the Lp norm is exactly 1. Zero entries of u receive zero
    weight. Raises when u is all zero (the caller should keep its previous
    weights in that case).
    """
    u = np.asarray(u, dtype=np.float64)
    if np.any(u < 0):
        raise ValueError("weight vector must be nonnegative")
    if not np.any(u > 0):
        raise ValueError("weight vector is all zero")
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    raw = u ** (1.0 / (p + 1.0))
    theta = raw / lp_norm(raw, p)
    return KernelWeights(theta, p)


def _lambda_of_nu(nu: float, J: np.ndarray, c: np.ndarray, r_max: float) -> np.ndarray:
    lam = np.empty_like(J)
    pos = J > 0
    lam[~pos] = r_max
    if nu <= 0:
        lam[pos] = 1.0
    else:
        lam[pos] = np.clip(np.sqrt(nu * c[pos] / J[pos]), 1.0, r_max)
    return lam


def lambda_step(J, c, budget: float, r_max: float) -> TaskWeights:
    """Minimize sum_t lambda_t J_t over the box [1, r_max]^T with
    sum_t c_t / lambda_t <= budget.

    KKT gives lambda_t = clip(sqrt(nu c_t / J_t), 1, r_max) for a
    multiplier nu >= 0; nu is located by doubling then bisection until the
    budget constraint is tight (or nu = 0 when it is slack at the lower
    box corner). Tasks with J_t = 0 cost nothing and take r_max, freeing
    budget for the rest.
    """
    J = np.asarray(J, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if J.shape != c.shape or J.ndim != 1:
        raise ValueError("objective and cost vectors must be 1-d with equal length")
    if np.any(J < 0):
        raise ValueError("task objectives must be nonnegative")
    if np.any(c <= 0):
        raise ValueError("task costs must be positive")
    if r_max <= 1.0:
        raise ValueError("r_max must exceed 1")
    min_use = float((c / r_max).sum())
    if min_use > budget * (1.0 + 1e-12):
        raise ValueError(
            f"infeasible budget: even at r_max the constraint needs {min_use}, budget is {budget}"
        )

    def usage(nu):
        return float((c / _lambda_of_nu(nu, J, c, r_max)).sum())

    if usage(0.0) <= budget:
        lam = _lambda_of_nu(0.0, J, c, r_max)
        return TaskWeights(lam, r_max, budget)

    nu_hi = 1.0
    for _ in range(600):
        if usage(nu_hi) <= budget:
            break
        nu_hi *= 2.0
    else:
        # budget attainable only in the limit; everything at the upper box edge
        return TaskWeights(np.full_like(J, r_max), r_max, budget)

    nu_lo = 0.0
    for _ in range(200):
        mid = 0.5 * (nu_lo + nu_hi)
        residual = usage(mid) - budget
        if abs(residual) < 1e-10:
            nu_hi = mid
            break
        if residual > 0:
            nu_lo = mid
        else:
            nu_hi = mid
        if (nu_hi - nu_lo) < 1e-12 * nu_hi:
            break
    lam = _lambda_of_nu(nu_hi, J, c, r_max)  # feasible end of the bracket
    return TaskWeights(lam, r_max, budget)
