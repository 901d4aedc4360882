import hashlib

import numpy as np
import pytest

from conicmtl import training
from conicmtl.data import prepare_run
from conicmtl.experiments import budget_from_fraction, resolve_dataset
from conicmtl.kernels import GramStack, KernelSpec, build_gram_stack, compute_gram, default_kernel_dictionary
from conicmtl.solvers import _symmetric, component_sq_norms, lambda_step, solve_svm_dual, theta_step
from conicmtl.util import lp_norm


# ---------------------------------------------------------------- oracles

def project_box_equality(z, y, C):
    """Projection of z onto {a in [0, C]^n : y'a = 0} for labels y of +-1 holding both signs.

    It is clip(z + mu y, 0, C) at the root mu of h(mu) = y'clip(z + mu y, 0, C),
    which is nondecreasing and piecewise linear with kinks where z_i + mu y_i
    meets 0 or C. The sorted kinks bracket the root, and h is linear between
    two neighbours (Kiwiel, Math. Prog. 112, 2008).
    """
    kinks = np.unique(np.concatenate([-z * y, (C - z) * y]))
    h = y @ np.clip(z[:, None] + y[:, None] * kinks, 0.0, C)
    k = int(np.argmax(h >= 0.0))
    mu = kinks[k]
    if k > 0 and h[k] > 0.0:
        lo, hi = kinks[k - 1], kinks[k]
        mu = lo - h[k - 1] * (hi - lo) / (h[k] - h[k - 1])
    return np.clip(z + mu * y, 0.0, C)


def projected_gradient_qp(Q, C, y=None, iters=6000):
    """Independent maximizer of sum(a) - 0.5 a'Qa over the box [0, C]^n,
    optionally restricted to y'a = 0 (project_box_equality).
    """
    n = Q.shape[0]
    lip = float(np.linalg.eigvalsh(Q).max())
    step = 1.0 / max(lip, 1e-12)
    a = np.zeros(n)
    for _ in range(iters):
        grad = 1.0 - Q @ a
        z = a + step * grad
        a = np.clip(z, 0.0, C) if y is None else project_box_equality(z, y, C)
    return a


def test_breakpoint_projection_meets_the_equality_as_tightly_as_bisection():
    def bisection_projection(z, y, C):
        lo, hi = -1e3 * (1 + C), 1e3 * (1 + C)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if float(y @ np.clip(z + mid * y, 0.0, C)) > 0:
                hi = mid
            else:
                lo = mid
        return np.clip(z + 0.5 * (lo + hi) * y, 0.0, C)

    rng = np.random.default_rng(12)
    exact, bisected = [], []
    for _ in range(400):
        n = int(rng.integers(2, 31))
        y = rng.choice([-1.0, 1.0], size=n)
        y[:2] = [1.0, -1.0]
        C = float(rng.uniform(0.1, 5.0))
        z = rng.uniform(-C, 2 * C, n) * rng.choice([1e-3, 1.0, 10.0])
        a, b = project_box_equality(z, y, C), bisection_projection(z, y, C)
        assert a.min() >= 0.0 and a.max() <= C
        assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(z).max())  # the same point
        exact.append(abs(y @ a))
        bisected.append(abs(y @ b))
    assert max(exact) <= max(bisected) and np.mean(exact) <= np.mean(bisected)


def primal_value(K, y, C, alpha, bias=0.0):
    coef = alpha * y
    margins = y * (K @ coef + bias)
    return 0.5 * coef @ K @ coef + C * np.maximum(0.0, 1.0 - margins).sum()


def bisection_lambda_step(J, c, budget, r_max):
    """The multiplier search by doubling, then bisection: the reference for
    the closed-form breakpoint step. Returns (lambda, nu).

    It stops once the usage is within 1e-10 of the budget, on either side.
    """

    def lam_of(nu):
        lam = np.full_like(J, r_max)
        pos = J > 0
        lam[pos] = 1.0 if nu <= 0 else np.clip(np.sqrt(nu * c[pos] / J[pos]), 1.0, r_max)
        return lam

    def usage(nu):
        return float((c / lam_of(nu)).sum())

    if usage(0.0) <= budget:
        return lam_of(0.0), 0.0
    nu_hi = 1.0
    for _ in range(600):
        if usage(nu_hi) <= budget:
            break
        nu_hi *= 2.0
    else:
        return np.full_like(J, r_max), np.inf
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
    return lam_of(nu_hi), nu_hi


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
    with pytest.raises(ValueError, match=r"^kernel shape \(3, 3\) does not match 2 labels$"):
        solve_svm_dual(np.eye(3), np.array([1.0, -1.0]), C=1.0)
    with pytest.raises(ValueError, match="one class"):
        solve_svm_dual(np.eye(2), np.array([1.0, 1.0]), C=1.0, use_bias=True)
    with pytest.raises(ValueError, match="labels"):
        solve_svm_dual(np.eye(2), np.array([1.0, 0.5]), C=1.0)
    with pytest.raises(ValueError, match="symmetric"):
        solve_svm_dual(np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([1.0, -1.0]), C=1.0)
    with pytest.raises(ValueError, match="non-finite"):
        solve_svm_dual(np.array([[1.0, 0.5], [0.5, np.nan]]), np.array([1.0, -1.0]), C=1.0)
    with pytest.raises(ValueError, match="warm start"):
        solve_svm_dual(np.eye(2), np.array([1.0, -1.0]), C=1.0, alpha0=np.array([2.0, 0.0]))
    with pytest.raises(ValueError, match=r"warm start must be a vector in the box \[0, C\]"):
        solve_svm_dual(np.eye(3), np.array([1.0, -1.0, 1.0]), C=1.0, alpha0=np.array([np.nan, 0.2, 0.1]))
    with pytest.raises(ValueError, match="warm start"):
        solve_svm_dual(np.eye(2), np.array([1.0, -1.0]), C=1.0, use_bias=True, alpha0=np.array([0.5, 0.0]))


@pytest.mark.parametrize("use_bias", [False, True])
def test_solver_rejects_infinite_kernel_entry(use_bias):
    # symmetric, so it used to reach the eigensolver and fail there
    K = np.array([[1.0, np.inf], [np.inf, 1.0]])
    with pytest.raises(ValueError, match="K has non-finite entries"):
        solve_svm_dual(K, np.array([1.0, -1.0]), C=1.0, use_bias=use_bias)


@pytest.mark.parametrize("C", [np.inf, np.nan, 0.0, -1.0])
def test_solver_rejects_nonfinite_or_nonpositive_C(C):
    with pytest.raises(ValueError, match=f"C must be positive and finite, got {C}"):
        solve_svm_dual(np.eye(2), np.array([1.0, -1.0]), C=C)


def test_symmetry_test_decides_as_allclose():
    # np.allclose(K, K.T, atol=1e-10) accepts |K - K'| <= 1e-10 + 1e-5 |K'|;
    # perturb one entry around that threshold, at both tolerances' scales
    rng = np.random.default_rng(12)
    decisions = set()
    for _ in range(3000):
        n = int(rng.integers(2, 9))
        K = random_psd(rng, n) * 10.0 ** rng.uniform(-12, 4)
        i, j = rng.choice(n, size=2, replace=False)
        threshold = 1e-10 + 1e-5 * abs(K[j, i])
        K[i, j] = K[j, i] + rng.choice([-1.0, 1.0]) * threshold * rng.choice([0.0, 0.5, 0.999999, 1.0, 1.000001, 2.0])
        if rng.random() < 0.1:
            K[tuple(rng.integers(0, n, size=2))] = np.nan
        want = bool(np.allclose(K, K.T, atol=1e-10))
        assert _symmetric(K) == want
        decisions.add(want)
    assert decisions == {False, True}


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
            K = compute_gram([KernelSpec(kind="gaussian", spread=8.0)], X, X)[0]
        y = rng.choice([-1.0, 1.0], size=n)
        y[:2] = [1.0, -1.0]
        C = float(10 ** rng.uniform(-3, 3))
        tol = 1e-10 * C * n  # relative to the scale of the objective
        sol = solve_svm_dual(K, y, C=C, use_bias=True, tol=tol, max_iter=200)
        assert sol.converged, f"seed {seed}: gap {sol.duality_gap} above {tol}"


# ------------------------------------------- recorded warm calls of fit

def recorded_warm_calls(monkeypatch, use_bias, **config):
    """The warm-started solve_svm_dual calls of one Conic fit on sample:mtl
    (balanced halves, seed 7, C=1, p=2, a=0.5), as (arguments, result)
    pairs in call order."""
    _, dataset = resolve_dataset("sample:mtl")
    train, _, _ = prepare_run(dataset, 0.5, 7, True)
    specs = default_kernel_dictionary()
    stacks = [build_gram_stack(t.task_id, t.X, specs) for t in train]
    calls = []

    def recording(K, y, C, **kwargs):
        result = solve_svm_dual(K, y, C, **kwargs)
        calls.append((dict(K=K, y=y, C=C, **kwargs), result))
        return result

    monkeypatch.setattr(training, "solve_svm_dual", recording)
    budget = budget_from_fraction(stacks, 2.0, 0.5)
    cfg = training.TrainConfig(C=1.0, p=2.0, budget=budget, use_bias=use_bias, **config)
    training.fit(train, stacks, cfg, kernel_specs=specs)
    return [(args, result) for args, result in calls if args["alpha0"] is not None]


def result_digest(result) -> str:
    h = hashlib.sha256()
    for values in (result.alpha, result.margins):
        h.update(np.ascontiguousarray(values, dtype="<f8").tobytes())
    scalars = (result.bias, result.objective, result.duality_gap, result.dual_objective)
    h.update(repr((*(float(v).hex() for v in scalars), int(result.iterations), bool(result.converged))).encode())
    return h.hexdigest()


# (use_bias, fit config, index among the fit's warm calls, how the solve ends):
# "gap" certifies the gap; "cap" takes a step at max_iter=1, so the gap terms
# are recomputed after it; "stall" stops on the no-progress rule under a gap
# tolerance that rounding cannot meet (found by instrumenting the loop)
WARM_CALLS = {
    "nobias-gap-1": (False, {}, 1, "gap"),
    "nobias-gap-9": (False, {}, 9, "gap"),
    "nobias-gap-17": (False, {}, 17, "gap"),
    "nobias-cap": (False, {"svm_max_iter": 1}, 3, "cap"),
    "nobias-stall": (False, {"svm_tol": 1e-300}, 7, "stall"),
    "bias-gap-1": (True, {}, 1, "gap"),
    "bias-gap-9": (True, {}, 9, "gap"),
    "bias-gap-17": (True, {}, 17, "gap"),
    "bias-cap": (True, {"svm_max_iter": 1}, 3, "cap"),
    "bias-stall": (True, {"svm_tol": 1e-300}, 16, "stall"),
}

WARM_CALL_DIGESTS = {  # result_digest of each call: the solver must reproduce every bit
    "bias-cap": "aeb3851d362424447d5d7266a8a869544f496945631ea373b979e112e072d410",
    "bias-gap-1": "06b4d81c6b947f8e0a96a3409f57eb95568e5e277e4abd655ec857fb242b887a",
    "bias-gap-17": "f45c33f35a719bce0d4a00e9b50d4ec7f26e239720c227544930c74f9f7c54a9",
    "bias-gap-9": "497ccb87ae4303f3fe9c6781ca3ca4c3710c5d2e32f7e7fbc1465ce2837cb2b8",
    "bias-stall": "02256f6412b7e4d3ba7b13d34569aa27d9570279e54a56c40033aff83b90ed33",
    "nobias-cap": "1344c2267ebfbfbeb4e068190fb6cad8131477e5f4e52281f0db2e04a804661c",
    "nobias-gap-1": "55217443323ffbade55ecc5d8dbec11e8879afe0ae1bbf75927dbbbca3772636",
    "nobias-gap-17": "e9af0ce2f3d29a1ca7d6f8cbff411a2f52b5712fd31813faa191d3893722a250",
    "nobias-gap-9": "a1976fc448e5de16cf8c79944c57134199d1c933bcce30fe43fbd1a68418dca9",
    "nobias-stall": "1408983eb264524c6db265d9ac968891cce7fd85763e15b625779a693ee550e7",
}


@pytest.mark.parametrize("case", sorted(WARM_CALLS))
def test_recorded_warm_calls_are_bit_identical(monkeypatch, case):
    use_bias, config, index, end = WARM_CALLS[case]
    args, result = recorded_warm_calls(monkeypatch, use_bias, **config)[index]
    n = args["y"].size
    if end == "gap":
        assert result.converged
    elif end == "cap":
        assert result.iterations == args["max_iter"] == 1
        assert not np.array_equal(result.alpha, args["alpha0"])  # a step, then the cap
    else:
        assert not result.converged and n < result.iterations < args["max_iter"]
    assert result_digest(result) == WARM_CALL_DIGESTS[case]


# ------------------------------------------------------ component norms

def test_component_norms_single_kernel_is_plain_quadratic_form():
    rng = np.random.default_rng(4)
    K = random_psd(rng, 5)
    stack = GramStack(task_id="t", grams=K[None])
    y = rng.choice([-1.0, 1.0], size=5)
    alpha = rng.uniform(0, 1, 5)
    got = component_sq_norms(alpha, y, stack, np.array([1.0]))
    coef = alpha * y
    assert got[0] == pytest.approx(coef @ K @ coef, rel=1e-12)


def test_component_norms_zero_alpha_and_hand_case():
    grams = np.stack([np.eye(2), np.ones((2, 2))])
    stack = GramStack(task_id="t", grams=grams)
    w = np.array([0.5, 0.5])
    zero = component_sq_norms(np.zeros(2), np.array([1.0, -1.0]), stack, w)
    assert np.array_equal(zero, np.zeros(2))
    # alpha*y = (1, -1): quadratic forms are 2 under I and 0 under ones
    got = component_sq_norms(np.array([1.0, 1.0]), np.array([1.0, -1.0]), stack, w)
    assert got == pytest.approx([0.5, 0.0], abs=1e-15)


def test_component_norms_sum_recovers_combined_norm():
    rng = np.random.default_rng(5)
    grams = np.stack([random_psd(rng, 6) for _ in range(3)])
    stack = GramStack(task_id="t", grams=grams)
    theta = np.array([0.2, 0.5, 0.3])
    y = rng.choice([-1.0, 1.0], size=6)
    alpha = rng.uniform(0, 2, 6)
    comp = component_sq_norms(alpha, y, stack, theta)
    coef = alpha * y
    K = np.tensordot(theta, grams, axes=(0, 0))
    assert (comp / theta).sum() == pytest.approx(coef @ K @ coef, rel=1e-12)


# ------------------------------------------------------------ theta step

def test_theta_uniform_under_symmetry():
    w = theta_step(np.ones(4), p=1.0)
    assert w == pytest.approx(np.full(4, 0.25), abs=1e-15)


def test_theta_hand_example_and_grid_oracle():
    w = theta_step(np.array([4.0, 1.0]), p=1.0)
    assert w == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-12)
    # 2-d grid search over the simplex boundary
    grid = np.linspace(1e-6, 1 - 1e-6, 20001)
    objs = 4.0 / (2 * grid) + 1.0 / (2 * (1 - grid))
    best = objs.min()
    ours = 4.0 / (2 * w[0]) + 1.0 / (2 * w[1])
    assert ours <= best + 1e-9


def test_theta_all_mass_on_single_active_kernel():
    w = theta_step(np.array([1.0, 0.0]), p=2.0)
    assert np.array_equal(w, np.array([1.0, 0.0]))


@pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 2.0, 4.0])
def test_theta_unit_norm_and_beats_random_feasible_points(p):
    rng = np.random.default_rng(int(p * 1000))
    for _ in range(20):
        M = int(rng.integers(1, 6))
        u = rng.uniform(0, 3, M)
        if not np.any(u > 0):
            u[0] = 1.0
        w = theta_step(u, p)
        assert abs(lp_norm(w, p) - 1.0) <= 1e-10
        ours = np.divide(u, 2 * w, out=np.zeros_like(u), where=w > 0).sum()
        pts = rng.uniform(0, 1, size=(1000, M)) + 1e-9
        norms = (pts**p).sum(axis=1) ** (1 / p)
        pts = pts / norms[:, None]
        vals = (u[None, :] / (2 * pts)).sum(axis=1)
        assert ours <= vals.min() + 1e-6


def test_theta_rejects_zero_vector():
    with pytest.raises(ValueError, match="zero"):
        theta_step(np.zeros(3), p=2.0)


@pytest.mark.parametrize(
    "u, p, message",
    [
        ([1.0, -0.5], 2.0, "weight vector must be nonnegative, got [1.0, -0.5]"),
        ([1.0, 0.5], 0.5, "p must be >= 1, got 0.5"),
    ],
)
def test_theta_step_names_a_negative_weight_and_p_below_one(u, p, message):
    with pytest.raises(ValueError) as err:
        theta_step(u, p)
    assert str(err.value) == message


# ----------------------------------------------------------- lambda step

def test_lambda_symmetric_tight_budget():
    w = lambda_step(np.array([1.0, 1.0]), np.array([1.0, 1.0]), budget=1.0, r_max=10.0)
    assert w == pytest.approx([2.0, 2.0], abs=1e-9)


def test_lambda_asymmetric_kkt_solution():
    J = np.array([1.0, 4.0])
    w = lambda_step(J, np.array([1.0, 1.0]), budget=1.0, r_max=10.0)
    assert w == pytest.approx([3.0, 1.5], abs=1e-8)
    assert float(w @ J) == pytest.approx(9.0, abs=1e-7)


def test_lambda_slack_budget_returns_ones():
    J = np.array([0.3, 2.0, 1.0])
    c = np.array([1.0, 1.0, 1.0])
    w = lambda_step(J, c, budget=3.5, r_max=8.0)
    assert np.array_equal(w, np.ones(3))


def test_lambda_zero_objective_takes_upper_edge():
    w = lambda_step(np.array([0.0, 1.0]), np.array([1.0, 1.0]), budget=1.0, r_max=4.0)
    assert w[0] == 4.0
    # remaining budget for the active task: 1 - 1/4 = 0.75 -> lambda = 1/0.75
    assert w[1] == pytest.approx(4.0 / 3.0, abs=1e-8)


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
        assert np.all(w >= 1.0 - 1e-9) and np.all(w <= r + 1e-9)
        assert float((c / w).sum()) <= budget + 1e-9
        grid = np.arange(1.0, r + 1e-9, 1e-3)
        l1, l2 = np.meshgrid(grid, grid, indexing="ij")
        feasible = c[0] / l1 + c[1] / l2 <= budget
        objs = np.where(feasible, J[0] * l1 + J[1] * l2, np.inf)
        assert float(w @ J) <= objs.min() + 1e-6


def test_lambda_objective_monotone_in_budget():
    rng = np.random.default_rng(7)
    for _ in range(20):
        T = int(rng.integers(2, 6))
        J = rng.uniform(0.1, 3.0, T)
        c = rng.uniform(0.5, 2.0, T)
        r = 6.0
        lo = float((c / r).sum()) * 1.01
        budgets = np.sort(rng.uniform(lo, float(c.sum()) * 1.5, 4))
        objs = [float(lambda_step(J, c, float(b), r) @ J) for b in budgets]
        assert all(objs[i + 1] <= objs[i] + 1e-9 for i in range(len(objs) - 1))


def test_lambda_breakpoint_step_matches_bisection_oracle():
    rng = np.random.default_rng(13)
    for _ in range(2500):
        T = int(rng.integers(1, 8))
        J = rng.uniform(0.05, 5.0, T)
        J[rng.random(T) < 0.15] = 0.0
        c = rng.uniform(0.3, 3.0, T)
        r = float(rng.uniform(1.5, 10.0))
        budget = float((c / r).sum()) * float(rng.uniform(1.0, 3.0))
        lam = lambda_step(J, c, budget, r)
        want, nu = bisection_lambda_step(J, c, budget, r)
        assert np.abs(lam - want).max() <= 1e-8 * r
        assert np.all(lam >= 1.0) and np.all(lam <= r)
        assert float((c / lam).sum()) <= budget + 1e-9
        # bisection may stop up to 1e-10 over the budget; the objective that
        # overrun buys is the multiplier times it (to first order)
        overrun = max(float((c / want).sum()) - budget, 0.0)
        theirs = float(want @ J)
        assert float(lam @ J) <= theirs + 1e-9 * abs(theirs) + 2.0 * nu * overrun


def test_lambda_budget_exactly_on_a_breakpoint():
    # breakpoints s = sqrt(J_t / c_t) = 1, 2; at s = 2 the usage is 1/2 + 1
    J, c = np.array([1.0, 4.0]), np.array([1.0, 1.0])
    w = lambda_step(J, c, budget=1.5, r_max=10.0)
    assert w == pytest.approx([2.0, 1.0], rel=1e-14)
    assert w == pytest.approx(bisection_lambda_step(J, c, 1.5, 10.0)[0], abs=1e-8)


def test_lambda_zero_objectives_mixed_with_positive_ones():
    J, c = np.array([0.0, 1.0, 0.0, 4.0]), np.array([1.0, 1.0, 2.0, 1.0])
    w = lambda_step(J, c, budget=1.5, r_max=6.0)
    assert w[[0, 2]].tolist() == [6.0, 6.0]
    # the zero tasks use 1/6 + 2/6 of the budget; the rest is the asymmetric example at budget 1
    assert w[[1, 3]] == pytest.approx([3.0, 1.5], rel=1e-14)
    assert w == pytest.approx(bisection_lambda_step(J, c, 1.5, 6.0)[0], abs=1e-8)


def test_lambda_single_task_spends_the_budget():
    w = lambda_step(np.array([3.0]), np.array([2.0]), budget=0.5, r_max=8.0)
    assert w == pytest.approx([4.0], rel=1e-15)


def test_lambda_budget_met_only_at_the_upper_corner():
    J, c, r = np.array([1.0, 3.0, 0.5]), np.array([1.0, 2.0, 0.5]), 4.0
    corner = float((c / r).sum())
    assert np.array_equal(lambda_step(J, c, corner, r), np.full(3, r))
    # within the feasibility tolerance below the corner: attainable only in the limit
    below = corner * (1.0 - 1e-13)
    assert np.array_equal(lambda_step(J, c, below, r), np.full(3, r))
    assert np.array_equal(bisection_lambda_step(J, c, below, r)[0], np.full(3, r))


def test_lambda_all_zero_objectives_take_the_upper_edge():
    w = lambda_step(np.zeros(3), np.array([1.0, 2.0, 3.0]), budget=1.5, r_max=4.0)
    assert np.array_equal(w, np.full(3, 4.0))


@pytest.mark.parametrize(
    "J, c, budget, r_max, message",
    [
        ([1.0, np.nan], [1.0, 1.0], 1.0, 4.0, "J\\[1\\] must be finite, got nan"),
        ([1.0, np.inf], [1.0, 1.0], 1.0, 4.0, "J\\[1\\] must be finite, got inf"),
        ([1.0, 2.0], [np.nan, 1.0], 1.0, 4.0, "c\\[0\\] must be finite, got nan"),
        ([1.0, 2.0], [1.0, 1.0], np.nan, 4.0, "budget must be a number, got nan"),
        ([1.0, 2.0], [1.0, 1.0], 1.0, np.nan, "r_max must exceed 1 and be finite, got nan"),
        ([], [], 1.0, 4.0, "non-empty"),
        ([1.0, 2.0], [1.0, 0.0], 10.0, 4.0, r"^task costs must be positive, got \[1.0, 0.0\]$"),
        ([1.0, 2.0], [1.0, -1.0], 10.0, 4.0, r"^task costs must be positive, got \[1.0, -1.0\]$"),
    ],
)
def test_lambda_rejects_nonfinite_and_empty_inputs(J, c, budget, r_max, message):
    with pytest.raises(ValueError, match=message):
        lambda_step(np.array(J), np.array(c), budget, r_max)
