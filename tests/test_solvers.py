import numpy as np
import pytest

from conicmtl.kernels import GramStack, KernelSpec, KernelWeights, compute_gram
from conicmtl.solvers import TaskWeights, component_sq_norms, lambda_step, solve_svm_dual, theta_step
from conicmtl.util import lp_norm


# ---------------------------------------------------------------- oracles

def projected_gradient_qp(Q, C, y=None, iters=6000):
    """Independent maximizer of sum(a) - 0.5 a'Qa over the box [0, C]^n,
    optionally restricted to y'a = 0 (projection via bisection on the shift).
    """
    n = Q.shape[0]
    lip = float(np.linalg.eigvalsh(Q).max())
    step = 1.0 / max(lip, 1e-12)
    a = np.zeros(n)

    def project(z):
        if y is None:
            return np.clip(z, 0.0, C)
        lo, hi = -1e3 * (1 + C), 1e3 * (1 + C)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            val = float(y @ np.clip(z + mid * y, 0.0, C))
            if val > 0:
                hi = mid
            else:
                lo = mid
        return np.clip(z + 0.5 * (lo + hi) * y, 0.0, C)

    for _ in range(iters):
        grad = 1.0 - Q @ a
        a = project(a + step * grad)
    return a


def primal_value(K, y, C, alpha, bias=0.0):
    coef = alpha * y
    margins = y * (K @ coef + bias)
    return 0.5 * coef @ K @ coef + C * np.maximum(0.0, 1.0 - margins).sum()


def random_psd(rng, n):
    A = rng.standard_normal((n, n + 2))
    G = A @ A.T / (n + 2)
    return 0.5 * (G + G.T)


# ---------------------------------------------------------------- svm dual

def test_one_point_analytic_solution():
    sol = solve_svm_dual(np.array([[1.0]]), np.array([1.0]), C=2.0)
    assert sol.alpha[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.objective == pytest.approx(0.5, abs=1e-9)
    assert sol.margins[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.duality_gap <= 1e-6


def test_two_point_analytic_solution():
    K = np.array([[1.0, -1.0], [-1.0, 1.0]])
    y = np.array([1.0, -1.0])
    sol = solve_svm_dual(K, y, C=10.0)
    assert sol.alpha.sum() == pytest.approx(1.0, abs=1e-9)
    coef = sol.alpha * y
    decisions = K @ coef
    assert decisions == pytest.approx([1.0, -1.0], abs=1e-9)
    assert sol.objective == pytest.approx(0.5, abs=1e-9)
    oracle = projected_gradient_qp(K * np.outer(y, y), C=10.0)
    assert primal_value(K, y, 10.0, oracle) == pytest.approx(sol.objective, rel=1e-6)


def test_tiny_box_collapses_to_origin():
    rng = np.random.default_rng(0)
    K = random_psd(rng, 6)
    y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    C = 1e-9
    sol = solve_svm_dual(K, y, C=C)
    assert np.all(sol.alpha <= C)
    assert sol.objective == pytest.approx(C * 6, rel=1e-3)


def test_weak_duality_and_gap_on_random_instances():
    rng = np.random.default_rng(1)
    for _ in range(40):
        n = int(rng.integers(2, 25))
        K = random_psd(rng, n)
        y = rng.choice([-1.0, 1.0], size=n)
        if np.all(y == y[0]):
            y[0] = -y[0]
        C = float(rng.uniform(0.1, 5.0))
        sol = solve_svm_dual(K, y, C=C)
        assert sol.dual_objective <= sol.objective + 1e-12
        assert sol.duality_gap <= 1e-6


def test_bias_mode_keeps_equality_constraint_and_matches_oracle():
    rng = np.random.default_rng(2)
    for _ in range(6):
        n = int(rng.integers(4, 13))
        K = random_psd(rng, n)
        y = rng.choice([-1.0, 1.0], size=n)
        if np.all(y == y[0]):
            y[0] = -y[0]
        C = 2.0
        sol = solve_svm_dual(K, y, C=C, use_bias=True)
        assert abs(sol.alpha @ y) <= 1e-9
        assert sol.duality_gap <= 1e-6
        oracle = projected_gradient_qp(K * np.outer(y, y), C=C, y=y, iters=2500)
        dual = oracle.sum() - 0.5 * oracle @ (K * np.outer(y, y)) @ oracle
        assert sol.objective >= dual - 1e-5  # weak duality against the oracle's dual point
        assert sol.objective <= primal_value(K, y, C, oracle, sol.bias) + 1e-4


def test_solver_is_deterministic():
    rng = np.random.default_rng(3)
    K = random_psd(rng, 12)
    y = rng.choice([-1.0, 1.0], size=12)
    y[0] = 1.0
    y[1] = -1.0
    a = solve_svm_dual(K, y, C=1.0)
    b = solve_svm_dual(K, y, C=1.0)
    assert a.alpha.tobytes() == b.alpha.tobytes()
    assert a.objective == b.objective


def test_solver_input_validation():
    with pytest.raises(ValueError, match="one class"):
        solve_svm_dual(np.eye(2), np.array([1.0, 1.0]), C=1.0, use_bias=True)
    with pytest.raises(ValueError, match="labels"):
        solve_svm_dual(np.eye(2), np.array([1.0, 0.5]), C=1.0)
    with pytest.raises(ValueError, match="symmetric"):
        solve_svm_dual(np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([1.0, -1.0]), C=1.0)
    with pytest.raises(ValueError, match="warm start"):
        solve_svm_dual(np.eye(2), np.array([1.0, -1.0]), C=1.0, alpha0=np.array([2.0, 0.0]))
    with pytest.raises(ValueError, match="warm start"):
        solve_svm_dual(np.eye(2), np.array([1.0, -1.0]), C=1.0, use_bias=True, alpha0=np.array([0.5, 0.0]))


@pytest.mark.parametrize("use_bias", [False, True])
def test_solver_rejects_kernel_that_is_not_psd(use_bias):
    rng = np.random.default_rng(8)
    K = random_psd(rng, 6) - 2.0 * np.eye(6)
    y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    with pytest.raises(ValueError, match="positive semidefinite"):
        solve_svm_dual(K, y, C=1.0, use_bias=use_bias)


def test_iteration_cap_is_reported_as_not_converged():
    rng = np.random.default_rng(9)
    K = random_psd(rng, 15)
    y = np.where(np.arange(15) % 2 == 0, 1.0, -1.0)
    capped = solve_svm_dual(K, y, C=1.0, max_iter=1)
    assert capped.iterations == 1
    assert capped.duality_gap > 1e-6
    assert capped.converged is False
    assert solve_svm_dual(K, y, C=1.0).converged is True


@pytest.mark.parametrize("use_bias", [False, True])
def test_rank_deficient_linear_grams_certify_quickly_and_match_oracle(use_bias):
    # linear kernels with fewer features than samples are singular; the
    # solver must follow their flat directions instead of crawling
    rng = np.random.default_rng(10 + use_bias)
    for _ in range(4):
        n = int(rng.integers(12, 31))
        X = rng.standard_normal((n, int(rng.integers(1, 4))))
        K = X @ X.T
        y = rng.choice([-1.0, 1.0], size=n)
        y[:2] = [1.0, -1.0]
        C = float(rng.uniform(0.1, 5.0))
        tol = 1e-9
        sol = solve_svm_dual(K, y, C=C, use_bias=use_bias, tol=tol)
        assert sol.converged and sol.duality_gap <= tol
        assert sol.iterations <= 100
        assert sol.dual_objective <= sol.objective + 1e-12
        Q = K * np.outer(y, y)
        oracle = projected_gradient_qp(Q, C, y=y if use_bias else None, iters=1500)
        assert oracle.sum() - 0.5 * oracle @ Q @ oracle <= sol.dual_objective + 1e-9
        assert sol.objective <= primal_value(K, y, C, oracle, sol.bias) + 1e-4

        again = solve_svm_dual(K, y, C=C, use_bias=use_bias, tol=tol)
        assert again.alpha.tobytes() == sol.alpha.tobytes()

        # a warm start from a perturbed optimum (scaling keeps y'alpha = 0)
        warm = solve_svm_dual(K, y, C=C, use_bias=use_bias, tol=tol, alpha0=0.5 * sol.alpha)
        assert warm.converged and warm.iterations <= 100
        assert abs(warm.objective - sol.objective) <= tol


def test_bias_mode_certifies_singular_and_nearly_constant_kernels():
    # with the equality row the free set must keep both classes, and bound
    # variables are judged against the multiplier of those inside the box
    for seed in range(300):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 25))
        if seed % 2 == 0:
            X = rng.standard_normal((n, int(rng.integers(1, 4))))
            K = X @ X.T
        else:
            X = rng.standard_normal((n, 2))
            K = compute_gram(KernelSpec(kind="gaussian", spread=8.0), X, X)
        y = rng.choice([-1.0, 1.0], size=n)
        y[:2] = [1.0, -1.0]
        C = float(10 ** rng.uniform(-3, 3))
        tol = 1e-10 * C * n  # relative to the scale of the objective
        sol = solve_svm_dual(K, y, C=C, use_bias=True, tol=tol, max_iter=200)
        assert sol.converged, f"seed {seed}: gap {sol.duality_gap} above {tol}"


# ------------------------------------------------------ component norms

def test_component_norms_single_kernel_is_plain_quadratic_form():
    rng = np.random.default_rng(4)
    K = random_psd(rng, 5)
    stack = GramStack(task_id="t", grams=K[None])
    y = rng.choice([-1.0, 1.0], size=5)
    alpha = rng.uniform(0, 1, 5)
    got = component_sq_norms(alpha, y, stack, KernelWeights(np.array([1.0]), p=2.0))
    coef = alpha * y
    assert got[0] == pytest.approx(coef @ K @ coef, rel=1e-12)


def test_component_norms_zero_alpha_and_hand_case():
    grams = np.stack([np.eye(2), np.ones((2, 2))])
    stack = GramStack(task_id="t", grams=grams)
    w = KernelWeights(np.array([0.5, 0.5]), p=1.0)
    zero = component_sq_norms(np.zeros(2), np.array([1.0, -1.0]), stack, w)
    assert np.array_equal(zero, np.zeros(2))
    # alpha*y = (1, -1): quadratic forms are 2 under I and 0 under ones
    got = component_sq_norms(np.array([1.0, 1.0]), np.array([1.0, -1.0]), stack, w)
    assert got == pytest.approx([0.5, 0.0], abs=1e-15)


def test_component_norms_sum_recovers_combined_norm():
    rng = np.random.default_rng(5)
    grams = np.stack([random_psd(rng, 6) for _ in range(3)])
    stack = GramStack(task_id="t", grams=grams)
    theta = KernelWeights(np.array([0.2, 0.5, 0.3]), p=1.0)
    y = rng.choice([-1.0, 1.0], size=6)
    alpha = rng.uniform(0, 2, 6)
    comp = component_sq_norms(alpha, y, stack, theta)
    coef = alpha * y
    K = np.tensordot(theta.values, grams, axes=(0, 0))
    assert (comp / theta.values).sum() == pytest.approx(coef @ K @ coef, rel=1e-12)


# ------------------------------------------------------------ theta step

def test_theta_uniform_under_symmetry():
    w = theta_step(np.ones(4), p=1.0)
    assert w.values == pytest.approx(np.full(4, 0.25), abs=1e-15)


def test_theta_hand_example_and_grid_oracle():
    w = theta_step(np.array([4.0, 1.0]), p=1.0)
    assert w.values == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-12)
    # 2-d grid search over the simplex boundary
    grid = np.linspace(1e-6, 1 - 1e-6, 20001)
    objs = 4.0 / (2 * grid) + 1.0 / (2 * (1 - grid))
    best = objs.min()
    ours = 4.0 / (2 * w.values[0]) + 1.0 / (2 * w.values[1])
    assert ours <= best + 1e-9


def test_theta_all_mass_on_single_active_kernel():
    w = theta_step(np.array([1.0, 0.0]), p=2.0)
    assert np.array_equal(w.values, np.array([1.0, 0.0]))


@pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 2.0, 4.0])
def test_theta_unit_norm_and_beats_random_feasible_points(p):
    rng = np.random.default_rng(int(p * 1000))
    for _ in range(20):
        M = int(rng.integers(1, 6))
        u = rng.uniform(0, 3, M)
        if not np.any(u > 0):
            u[0] = 1.0
        w = theta_step(u, p)
        assert abs(lp_norm(w.values, p) - 1.0) <= 1e-10
        ours = np.divide(u, 2 * w.values, out=np.zeros_like(u), where=w.values > 0).sum()
        pts = rng.uniform(0, 1, size=(1000, M)) + 1e-9
        norms = (pts**p).sum(axis=1) ** (1 / p)
        pts = pts / norms[:, None]
        vals = (u[None, :] / (2 * pts)).sum(axis=1)
        assert ours <= vals.min() + 1e-6


def test_theta_rejects_zero_vector():
    with pytest.raises(ValueError, match="zero"):
        theta_step(np.zeros(3), p=2.0)


# ----------------------------------------------------------- lambda step

def test_lambda_symmetric_tight_budget():
    w = lambda_step(np.array([1.0, 1.0]), np.array([1.0, 1.0]), budget=1.0, r_max=10.0)
    assert w.values == pytest.approx([2.0, 2.0], abs=1e-9)


def test_lambda_asymmetric_kkt_solution():
    J = np.array([1.0, 4.0])
    w = lambda_step(J, np.array([1.0, 1.0]), budget=1.0, r_max=10.0)
    assert w.values == pytest.approx([3.0, 1.5], abs=1e-8)
    assert float(w.values @ J) == pytest.approx(9.0, abs=1e-7)


def test_lambda_slack_budget_returns_ones():
    J = np.array([0.3, 2.0, 1.0])
    c = np.array([1.0, 1.0, 1.0])
    w = lambda_step(J, c, budget=3.5, r_max=8.0)
    assert np.array_equal(w.values, np.ones(3))


def test_lambda_zero_objective_takes_upper_edge():
    w = lambda_step(np.array([0.0, 1.0]), np.array([1.0, 1.0]), budget=1.0, r_max=4.0)
    assert w.values[0] == 4.0
    # remaining budget for the active task: 1 - 1/4 = 0.75 -> lambda = 1/0.75
    assert w.values[1] == pytest.approx(4.0 / 3.0, abs=1e-8)


def test_lambda_errors():
    with pytest.raises(ValueError, match="infeasible"):
        lambda_step(np.array([1.0]), np.array([10.0]), budget=1.0, r_max=2.0)
    with pytest.raises(ValueError, match="nonnegative"):
        lambda_step(np.array([-1.0]), np.array([1.0]), budget=1.0, r_max=2.0)


def test_lambda_constraints_and_grid_oracle_t2():
    rng = np.random.default_rng(6)
    for _ in range(10):
        J = rng.uniform(0.1, 4.0, 2)
        c = rng.uniform(0.5, 2.0, 2)
        r = float(rng.uniform(2.0, 4.0))
        budget = float((c / r).sum() * rng.uniform(1.05, 3.0))
        w = lambda_step(J, c, budget, r)
        assert np.all(w.values >= 1.0 - 1e-9) and np.all(w.values <= r + 1e-9)
        assert float((c / w.values).sum()) <= budget + 1e-9
        grid = np.arange(1.0, r + 1e-9, 1e-3)
        l1, l2 = np.meshgrid(grid, grid, indexing="ij")
        feasible = c[0] / l1 + c[1] / l2 <= budget
        objs = np.where(feasible, J[0] * l1 + J[1] * l2, np.inf)
        assert float(w.values @ J) <= objs.min() + 1e-6


def test_lambda_objective_monotone_in_budget():
    rng = np.random.default_rng(7)
    for _ in range(20):
        T = int(rng.integers(2, 6))
        J = rng.uniform(0.1, 3.0, T)
        c = rng.uniform(0.5, 2.0, T)
        r = 6.0
        lo = float((c / r).sum()) * 1.01
        budgets = np.sort(rng.uniform(lo, float(c.sum()) * 1.5, 4))
        objs = [float(lambda_step(J, c, float(b), r).values @ J) for b in budgets]
        assert all(objs[i + 1] <= objs[i] + 1e-9 for i in range(len(objs) - 1))


def test_task_weights_box_validation():
    with pytest.raises(ValueError, match="box"):
        TaskWeights(np.array([0.5]), r_max=2.0, budget=1.0)
    with pytest.raises(ValueError, match="box"):
        TaskWeights(np.array([3.0]), r_max=2.0, budget=1.0)
