"""The three block-descent subproblems.

Per task, training alternates between
  w-step:      an SVM dual solve against the combined Gram matrix,
  theta-step:  a closed-form update of the kernel weights on the Lp ball,
  lambda-step: task weights from KKT conditions, with the budget
               multiplier found in closed form by a breakpoint search.

All functions here are pure and deterministic: identical inputs give
identical outputs, bit for bit. Solves for different tasks share no state
and may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import GramStack
from .util import lp_norm


@dataclass
class DualSolution:
    """Result of one task's SVM dual solve.

    objective is the primal value J = 0.5 ||w||^2 + C * sum hinge, measured
    in the combined-kernel space. converged is True when the solve
    certified duality_gap <= tol.
    """

    alpha: np.ndarray
    bias: float
    objective: float
    duality_gap: float
    dual_objective: float
    iterations: int
    converged: bool
    margins: np.ndarray


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
    """Free-set indices, the Newton (or flat) ascent direction d on them,
    and its curvature d' Q_FF d on the free block.

    A variable at a bound is free unless the reduced gradient r strictly
    pushes it outward; free ones whose component points out are then fixed.
    """
    free = ~(((alpha <= 0.0) & (r < 0.0)) | ((alpha >= C) & (r > 0.0)))
    while True:
        idx = free.nonzero()[0]
        if idx.size <= int(use_bias):
            # nothing free, or one variable that the equality pins
            return idx, np.zeros(idx.size), 0.0
        Q_FF = Q[idx[:, None], idx]  # the free block, gathered once
        if use_bias:
            # Z: orthonormal basis of the feasible directions (y_F' d = 0)
            Z = np.linalg.qr(y[idx, None], mode="complete")[0][:, 1:]
            H, rhs = Z.T @ Q_FF @ Z, Z.T @ g[idx]
        else:
            H, rhs = Q_FF, g[idx]
        w, V = np.linalg.eigh(H)
        top = float(max(w[-1], -w[0]))  # the largest |w|: eigh sorts w ascending
        if w[0] < -1e-8 * max(1.0, top):
            raise ValueError("kernel matrix is not positive semidefinite")
        c = V.T @ rhs
        if w[0] > 1e-12 * top:  # no null direction: w ascends
            basis, step = V, c / w
        else:
            null = w <= 1e-12 * top
            if np.abs(c[null]).max(initial=0.0) > 1e-9 * max(1.0, float(np.abs(rhs).max())):
                basis, step = V[:, null], c[null]  # flat: the objective rises linearly to the box
            else:
                basis, step = V[:, ~null], c[~null] / w[~null]
        # the basis's memory order fixes the summation order of the product:
        # C order without the bias, with it the Fortran order of a column gather
        d = (Z @ np.asfortranarray(basis) if use_bias else np.ascontiguousarray(basis)) @ step
        a = alpha[idx]
        out = ((a <= 0.0) & (d < 0.0)) | ((a >= C) & (d > 0.0))
        if not out.any():
            return idx, d, float(d @ Q_FF @ d)
        if use_bias and np.unique(y[idx[~out]]).size < 2:
            # dropping them all would leave one class, which the equality pins
            out &= np.abs(d) == np.abs(d[out]).max()
        free[idx[out]] = False


def _symmetric(K: np.ndarray) -> bool:
    """np.allclose(K, K.T, atol=1e-10), written out for finite K; an exactly
    symmetric K, the usual case, is decided by one comparison."""
    return bool((K == K.T).all() or (np.abs(K - K.T) <= 1e-10 + 1e-5 * np.abs(K.T)).all())


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
    if not (np.abs(y) == 1.0).all():
        raise ValueError("labels must be +1 or -1")
    if not 0 < C < np.inf:
        raise ValueError(f"C must be positive and finite, got {C}")
    if use_bias and np.all(y == y[0]):
        # the equality constraint pins alpha at zero and the bias escapes
        raise ValueError("degenerate task: only one class present")
    if not np.isfinite(K).all():
        raise ValueError("kernel matrix K has non-finite entries")
    if not _symmetric(K):
        raise ValueError("kernel matrix is not symmetric")
    alpha = np.zeros(n) if alpha0 is None else np.array(alpha0, dtype=np.float64)
    if alpha.shape != (n,) or not ((alpha >= 0.0).all() and (alpha <= C).all()):  # NaN fails both
        raise ValueError("warm start must be a vector in the box [0, C]")
    if use_bias and abs(float(alpha @ y)) > 1e-9 * C * n:
        raise ValueError("warm start violates sum_i alpha_i y_i = 0")

    Q = K * (y[:, None] * y)  # np.outer(y, y), without its set-up
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
    terms = None  # gap_terms() at the current alpha, once computed
    for iterations in range(1, max_iter + 1):
        terms = dual, _, gap, bias = gap_terms()
        if gap <= tol:
            break
        # n + 1 steps without a higher dual value: rounding stops the ascent short of tol
        stalled = stalled + 1 if dual <= best else 0
        best = max(best, dual)
        if stalled > n:
            break
        # the reduced gradient g - y * bias; without the bias (0.0) it is g up
        # to the sign of a zero, which the sign tests that read r cannot see
        r = g
        if use_bias:
            inside = (alpha > 0.0) & (alpha < C)
            if inside.any():
                # the equality multiplier, exact at a free-set optimum
                bias = float(np.mean((y * g)[inside]))
            r = g - y * bias
        idx, d, curvature = _newton_direction(Q, y, g, r, alpha, C, use_bias)
        slope = float(g[idx] @ d)
        if not slope > 0.0:
            break
        # exact line search (1 for a Newton step), cut at the nearest bound
        a = alpha[idx]
        room = np.divide(np.where(d > 0.0, C, 0.0) - a, d, out=np.full(d.size, np.inf), where=d != 0.0)
        moved = a + min(slope / curvature if curvature > 0.0 else np.inf, float(room.min())) * d
        # the blocking coordinate, and any other within rounding of a bound, lands on it
        snap = 1e-14 * C
        alpha[idx] = np.where(moved <= snap, 0.0, np.where(moved >= C - snap, C, moved))
        g = 1.0 - Q @ alpha
        terms = None

    # every exit but the iteration cap leaves alpha where gap_terms() last saw it
    dual, primal, gap, bias = gap_terms() if terms is None else terms
    margins = 1.0 - g  # y_i * (decision value without bias)
    return DualSolution(
        alpha=alpha,
        bias=bias,
        objective=primal,
        duality_gap=max(gap, 0.0),
        dual_objective=dual,
        iterations=iterations,
        converged=gap <= tol,
        margins=margins,
    )


def component_sq_norms(alpha: np.ndarray, y: np.ndarray, stack: GramStack, theta: np.ndarray) -> np.ndarray:
    """Per-kernel squared norms ||w^m||^2 = theta_m^2 (a*y)' G_m (a*y).

    These live in the separated coordinates, so dividing by theta_m and
    summing recovers the combined-kernel squared norm. A zero theta_m gives
    a zero component regardless of G_m.
    """
    return theta**2 * quadratic_forms(alpha, y, stack)


def quadratic_forms(alpha: np.ndarray, y: np.ndarray, stack: GramStack) -> np.ndarray:
    """Per-kernel quadratic forms (a*y)' G_m (a*y), for every kernel whatever its weight."""
    coef = np.asarray(alpha, dtype=float) * np.asarray(y, dtype=float)
    return np.einsum("i,mij,j->m", coef, stack.grams, coef)


def theta_step(u, p: float) -> np.ndarray:
    """Exact minimizer of sum_m u_m / (2 theta_m) on the unit Lp ball.

    The stationarity condition gives theta_m proportional to u_m^(1/(p+1)),
    scaled so the Lp norm is exactly 1. Zero entries of u receive zero
    weight, except at p = inf, where every theta_m is 1. Raises when u is
    all zero (the caller should keep its previous weights in that case).
    """
    u = np.asarray(u, dtype=np.float64)
    if (u < 0).any():
        raise ValueError(f"weight vector must be nonnegative, got {u.tolist()}")
    if not (u > 0).any():
        raise ValueError("weight vector is all zero")
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    raw = u ** (1.0 / (p + 1.0))
    return raw / lp_norm(raw, p)


def check_budget(c, budget: float, r_max: float) -> None:
    """Raise unless some lambda in [1, r_max]^T meets sum_t c_t / lambda_t <= budget."""
    min_use = float((c / r_max).sum())
    if min_use > budget * (1.0 + 1e-12):
        raise ValueError(f"infeasible budget: even at r_max the constraint needs {min_use}, budget is {budget}")


def lambda_step(J, c, budget: float, r_max: float) -> np.ndarray:
    """Minimize sum_t lambda_t J_t over the box [1, r_max]^T with
    sum_t c_t / lambda_t <= budget.

    KKT gives lambda_t = clip(s / b_t, 1, r_max) with b_t = sqrt(J_t / c_t)
    and s = sqrt(nu) for a multiplier nu >= 0 (0 when the budget is slack at
    the lower box corner). Tasks with J_t = 0 cost nothing and take r_max.
    Between consecutive breakpoints (s = b_t and s = r_max b_t) the usage
    is A + B / s, so the sorted breakpoints bracket the crossing and
    s = B / (budget - A) solves it in closed form. A budget that no
    breakpoint meets is attainable only in the limit, at r_max everywhere.
    """
    J = np.asarray(J, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if J.shape != c.shape or J.ndim != 1 or J.size == 0:
        raise ValueError("objective and cost vectors must be 1-d, non-empty and of equal length")
    for name, values in (("J", J), ("c", c)):
        if not np.isfinite(values).all():
            k = int(np.argmin(np.isfinite(values)))
            raise ValueError(f"{name}[{k}] must be finite, got {values[k]}")
    if (J < 0).any():
        raise ValueError("task objectives must be nonnegative")
    if (c <= 0).any():
        raise ValueError(f"task costs must be positive, got {c.tolist()}")
    if not 1.0 < r_max < np.inf:
        raise ValueError(f"r_max must exceed 1 and be finite, got {r_max}")
    if np.isnan(budget):
        raise ValueError(f"budget must be a number, got {budget}")
    check_budget(c, budget, r_max)

    pos = J > 0
    lam = np.where(pos, 1.0, r_max)
    if float((c / lam).sum()) <= budget:
        return lam

    b = np.sqrt(J[pos] / c[pos])
    points = np.sort(np.concatenate([b, r_max * b]))
    lam_at = np.repeat(lam[None], points.size, axis=0)
    lam_at[:, pos] = (points[:, None] / b).clip(1.0, r_max)
    usage = (c / lam_at).sum(axis=1)
    j = int(np.argmax(usage <= budget))  # row 0 is the lower corner, so j >= 1 when met
    if usage[j] > budget:
        # budget attainable only in the limit; everything at the upper box edge
        return np.full_like(J, r_max)
    # between the bracketing breakpoints lo < hi the usage A + B / s is
    # affine in 1 / s, so s = B / (budget - A) interpolates 1 / s
    lo, hi = float(points[j - 1]), float(points[j])
    w = float(budget - usage[j]) / float(usage[j - 1] - usage[j])
    s = 1.0 / (w / lo + (1.0 - w) / hi)
    lam[pos] = (s / b).clip(1.0, r_max)
    return lam
