"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned in the assertions, not configurable.
"""

import time

import numpy as np
import scipy.optimize

from conicmtl.bounds import BoundInputs, bound_report, erc_upper_bound_lp, rademacher_mc
from conicmtl.data import Scaler, TaskDataset, stratified_split, synth_multitask, synthetic_benchmark
from conicmtl.experiments import RESULT_HEADER
from conicmtl.kernels import build_gram_stack, default_kernel_dictionary
from conicmtl.solvers import lambda_step, solve_svm_dual, theta_step
from conicmtl.training import TrainConfig, fit, pareto_lambda, predict
from conicmtl.util import conjugate_exponent, derive_seed, lp_norm
from conicmtl.verification import (
    check_complexity_monotone_in_sign_scales,
    check_complexity_monotone_in_task_weights,
    random_stacks,
)


def report(n, label):
    print(f"\nACCEPTANCE {n:02d} {label}: PASS")


# ----------------------------------------------------------------- 01 theta

def test_01_theta_step_matches_random_search_oracle():
    started = time.time()
    rng = np.random.default_rng(derive_seed("acc", 1))
    for k in range(200):
        M = int(rng.integers(1, 6))
        p = float(rng.choice([1.0, 4.0 / 3.0, 2.0, 4.0]))
        u = rng.uniform(0.0, 4.0, M)
        if not np.any(u > 0):
            u[0] = 1.0
        w = theta_step(u, p)
        assert abs(lp_norm(w, p) - 1.0) <= 1e-10
        ours = float(np.divide(u, 2 * w, out=np.zeros_like(u), where=w > 0).sum())
        pts = rng.uniform(1e-12, 1.0, size=(100_000, M))
        pts /= ((pts**p).sum(axis=1) ** (1.0 / p))[:, None]
        best = float((u[None, :] / (2.0 * pts)).sum(axis=1).min())
        assert ours <= best + 1e-6
    elapsed = time.time() - started
    assert elapsed < 30.0, f"theta oracle took {elapsed:.1f}s"
    report(1, "theta step beats 1e5-point random-search oracle on 200 instances")


# ---------------------------------------------------------------- 02 lambda

def _lambda_oracle_slsqp(J, c, budget, r):
    T = J.size
    res = scipy.optimize.minimize(
        lambda lam: float(lam @ J),
        x0=np.full(T, min(r, max(1.0, float(c.sum()) / budget))),
        jac=lambda lam: J,
        bounds=[(1.0, r)] * T,
        constraints=[
            {
                "type": "ineq",
                "fun": lambda lam: budget - float((c / lam).sum()),
                "jac": lambda lam: c / lam**2,
            }
        ],
        method="SLSQP",
        options={"maxiter": 400, "ftol": 1e-12},
    )
    return float(res.x @ J)


def test_02_lambda_step_matches_grid_and_nlp_oracles():
    started = time.time()
    rng = np.random.default_rng(derive_seed("acc", 2))
    for k in range(200):
        T = int(rng.integers(1, 6))
        J = rng.uniform(0.05, 5.0, T)
        c = rng.uniform(0.3, 3.0, T)
        r = float(rng.uniform(2.0, 8.0))
        budget = float((c / r).sum()) * float(rng.uniform(1.02, 4.0))
        lam = lambda_step(J, c, budget, r)
        assert np.all(lam >= 1.0 - 1e-9) and np.all(lam <= r + 1e-9)
        assert float((c / lam).sum()) <= budget + 1e-9
        ours = float(lam @ J)
        oracle = _lambda_oracle_slsqp(J, c, budget, r)
        if T <= 2:
            step = 1e-3
            grid = np.arange(1.0, r + 1e-12, step)
            if T == 1:
                feas = c[0] / grid <= budget
                oracle = min(oracle, float((grid[feas] * J[0]).min()))
            else:
                # the objective rises in each coordinate, so for every grid
                # value of lam_1 the best grid lam_2 is the smallest
                # feasible one; this equals the full 2-d grid optimum
                slack = budget - c[0] / grid
                need = np.where(slack > 0, c[1] / np.maximum(slack, 1e-300), np.inf)
                second = 1.0 + np.ceil((np.maximum(need, 1.0) - 1.0) / step - 1e-9) * step
                ok = second <= r + 1e-12
                if ok.any():
                    objs = grid[ok] * J[0] + second[ok] * J[1]
                    oracle = min(oracle, float(objs.min()))
        assert ours <= oracle + 1e-3 * abs(oracle)
    elapsed = time.time() - started
    assert elapsed < 60.0, f"lambda oracle took {elapsed:.1f}s"
    report(2, "lambda step beats grid and SLSQP oracles on 200 instances")


# ------------------------------------------------------------------- 03 svm

def _pg_qp_oracle(Q, C, max_iter=60_000):
    """Accelerated projected gradient for max 1'a - 0.5 a'Qa over [0, C]^n."""
    n = Q.shape[0]
    L = float(np.linalg.eigvalsh(Q).max())
    step = 1.0 / max(L, 1e-12)
    a = np.zeros(n)
    z = a.copy()
    t_acc = 1.0
    for _ in range(max_iter):
        grad = 1.0 - Q @ z
        a_next = np.clip(z + step * grad, 0.0, C)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
        z = a_next + (t_acc - 1.0) / t_next * (a_next - a)
        z = np.clip(z, 0.0, C)
        a, t_acc = a_next, t_next
        g = 1.0 - Q @ a
        gap = float(((C - a) * np.maximum(g, 0.0) + a * np.maximum(-g, 0.0)).sum())
        if gap <= 1e-9 * max(1.0, abs(a.sum())):
            break
    return a


def test_03_svm_solver_matches_projected_gradient_oracle():
    started = time.time()
    rng = np.random.default_rng(derive_seed("acc", 3))
    for k in range(200):
        n = int(rng.integers(2, 41))
        A = rng.standard_normal((n, n + 3))
        K = A @ A.T / (n + 3)
        K = 0.5 * (K + K.T)
        y = rng.choice([-1.0, 1.0], size=n)
        if np.all(y == y[0]):
            y[0] = -y[0]
        C = float(rng.uniform(0.1, 8.0))
        sol = solve_svm_dual(K, y, C=C, tol=1e-6)
        assert sol.duality_gap <= 1e-6
        Q = K * np.outer(y, y)
        a = _pg_qp_oracle(Q, C)
        coef = a * y
        margins = y * (K @ coef)
        oracle_primal = 0.5 * coef @ K @ coef + C * np.maximum(0.0, 1.0 - margins).sum()
        assert abs(sol.objective - oracle_primal) <= 1e-5 * max(1.0, abs(oracle_primal))
    elapsed = time.time() - started
    assert elapsed < 120.0, f"svm oracle took {elapsed:.1f}s"
    report(3, "svm dual gap below 1e-6 and primal matches projected-gradient oracle")


# ------------------------------------------------------------------- 04 bcd

def _random_training_instance(rng, force_slack=False):
    T = int(rng.integers(1, 5))
    N = int(rng.integers(8, 31))
    M = int(rng.integers(1, 4))
    data = synth_multitask(
        T=T, N=N, d=int(rng.integers(2, 6)),
        task_similarity=float(rng.uniform(0.2, 1.0)),
        noise=float(rng.uniform(0.2, 1.0)),
        seed=int(rng.integers(1 << 31)),
    )
    scaler = Scaler().fit(np.vstack([t.X for t in data]))
    tasks = [TaskDataset(t.task_id, scaler.transform(t.X), t.y) for t in data]
    pool = default_kernel_dictionary()
    specs = [pool[i] for i in rng.choice(len(pool), size=M, replace=False)]
    stacks = [build_gram_stack(t.task_id, t.X, specs) for t in tasks]
    p = float(rng.choice([1.0, 4.0 / 3.0, 2.0, 4.0]))
    C = float(rng.choice([0.25, 0.5, 1.0, 2.0, 4.0]))
    r = 8.0
    cost = sum(s.trace_norm(conjugate_exponent(p)) for s in stacks)
    frac = float(rng.uniform(1.0, 1.3)) if force_slack else float(rng.uniform(0.15, 1.1))
    cfg = TrainConfig(C=C, p=p, budget=frac * cost, r_max=r, mode="conic")
    return tasks, stacks, specs, cfg


def _trace_monotone(trace, rel=1e-9):
    trace = np.asarray(trace)
    return bool(np.all(np.diff(trace) <= rel * np.maximum(np.abs(trace[:-1]), 1e-12)))


def test_04_bcd_descends_and_slack_budget_reproduces_average():
    rng = np.random.default_rng(derive_seed("acc", 4))
    for k in range(100):
        tasks, stacks, specs, cfg = _random_training_instance(rng)
        model = fit(tasks, stacks, cfg, kernel_specs=specs)
        assert _trace_monotone(model.objective_trace), f"instance {k} trace rose"
    for k in range(20):
        tasks, stacks, specs, cfg = _random_training_instance(rng, force_slack=True)
        conic = fit(tasks, stacks, cfg, kernel_specs=specs)
        from dataclasses import replace

        avg = fit(tasks, stacks, replace(cfg, mode="average"), kernel_specs=specs)
        assert conic.objective_trace == avg.objective_trace
        assert np.array_equal(conic.theta, avg.theta)
        assert np.array_equal(conic.task_weights, avg.task_weights)
        for dc, da in zip(conic.duals, avg.duals):
            assert dc.alpha.tobytes() == da.alpha.tobytes()
    report(4, "block descent is monotone; slack budget reproduces the unweighted run bit-exactly")


# ------------------------------------------------------ 05 monotonicity

def test_05_exhaustive_complexity_monotonicities():
    lam = check_complexity_monotone_in_task_weights(n_instances=50, seed=derive_seed("acc", 5))
    gam = check_complexity_monotone_in_sign_scales(n_instances=50, seed=derive_seed("acc", 5, 2))
    assert lam.passed, lam.detail
    assert gam.passed, gam.detail
    report(5, "complexity falls in task weights and rises in sign scales, zero violations")


# --------------------------------------------------------- 06 trace bound

def test_06_trace_norm_bound_dominates_exhaustive_complexity():
    rng = np.random.default_rng(derive_seed("acc", 6))
    for k in range(100):
        T = int(rng.integers(1, 4))
        N = int(rng.integers(1, 5))
        M = int(rng.integers(1, 4))
        stacks = random_stacks(rng, T=T, N=N, M=M)
        p = float(rng.choice([4.0 / 3.0, 2.0, 4.0]))
        lam = rng.uniform(1.0, 5.0, T)
        R = float(rng.uniform(0.3, 3.0))
        mc = rademacher_mc(stacks, lam, R=R, p=p).mean
        inputs = BoundInputs(
            T=T, N=N, M=M, task_weights=lam, r_max=float(lam.max()) + 1.0, rho=1.0, delta=0.5, R=R, p=p,
            traces=np.vstack([s.traces for s in stacks]),
        )
        assert mc <= erc_upper_bound_lp(inputs) + 1e-12
    report(6, "trace-norm bound dominates exhaustive complexity on 100 instances")


# -------------------------------------------------------------- 07 pareto

def test_07_pareto_weights_above_one_and_strictly_decreasing():
    rng = np.random.default_rng(derive_seed("acc", 7))
    grid = np.round(np.arange(0.1, 0.95, 0.1), 10)
    violations = 0
    for _ in range(100):
        T = int(rng.integers(2, 7))
        f = rng.uniform(0.02, 20.0, T)
        if np.any(pareto_lambda(f, 1.0) != 1.0):
            violations += 1
        prev = None
        for p in grid:
            lam = pareto_lambda(f, float(p))
            if not np.all(lam > 1.0):
                violations += 1
            if prev is not None and not np.all(lam < prev):
                violations += 1
            prev = lam
    assert violations == 0
    report(7, "path-tracing weights stay above 1, fall strictly in the exponent, equal 1 at p=1")


# --------------------------------------------------------- 08 homogeneity

def test_08_doubling_weights_scales_complexity_by_inverse_root_two():
    rng = np.random.default_rng(derive_seed("acc", 8))
    worst = 0.0
    for k in range(30):
        stacks = random_stacks(rng)
        T = len(stacks)
        lam = rng.uniform(1.0, 4.0, T)
        p = float(rng.choice([1.0, 4.0 / 3.0, 2.0, 4.0]))
        R = float(rng.uniform(0.5, 2.0))
        a = rademacher_mc(stacks, lam, R=R, p=p).mean
        b = rademacher_mc(stacks, 2.0 * lam, R=R, p=p).mean
        worst = max(worst, abs(b - a / np.sqrt(2.0)) / a)
    assert worst <= 1e-13, f"worst relative deviation {worst:.2e}"
    report(8, "doubled weights divide exhaustive complexity by sqrt(2) to float precision")


# -------------------------------------------------- 09 benchmark behavior

def test_09_conic_matches_average_accuracy_and_tightens_bound():
    started = time.time()
    specs = default_kernel_dictionary()
    acc = {"conic": [], "average": []}
    totals = {"conic": [], "average": []}
    for seed in range(20):
        data = synthetic_benchmark(seed)
        train, test = [], []
        for task in data:
            tr, te = stratified_split(task, 1.0 / 3.0, derive_seed("bench", seed, task.task_id))
            train.append(tr)
            test.append(te)
        scaler = Scaler().fit(np.vstack([t.X for t in train]))
        train = [TaskDataset(t.task_id, scaler.transform(t.X), t.y) for t in train]
        test = [TaskDataset(t.task_id, scaler.transform(t.X), t.y) for t in test]
        stacks = [build_gram_stack(t.task_id, t.X, specs) for t in train]
        cost = sum(s.trace_norm(conjugate_exponent(2.0)) for s in stacks)
        for mode, budget in (("conic", 0.5 * cost), ("average", cost)):
            cfg = TrainConfig(C=1.0, p=2.0, budget=budget, r_max=8.0, mode=mode)
            model = fit(train, stacks, cfg, kernel_specs=specs)
            accs = [
                float((predict(model, t.task_id, te.X)[0] == te.y).mean())
                for t, te in zip(train, test)
            ]
            rep = bound_report(model, test, delta=0.05, rho=1.0, mc_samples=2000, seed=seed, stacks=stacks)
            acc[mode].append(float(np.mean(accs)))
            totals[mode].append(rep.values["total_adaptive"])
    mean_conic = float(np.mean(acc["conic"]))
    mean_avg = float(np.mean(acc["average"]))
    assert mean_conic >= mean_avg - 0.005, f"conic {mean_conic:.4f} vs average {mean_avg:.4f}"
    tighter = int(np.sum(np.array(totals["conic"]) <= np.array(totals["average"])))
    assert tighter >= 15, f"bound tighter in only {tighter}/20 seeds"
    elapsed = time.time() - started
    assert elapsed < 600.0, f"benchmark took {elapsed:.1f}s"
    report(9, f"benchmark: accuracy {mean_conic:.4f} vs {mean_avg:.4f}, tighter bound {tighter}/20")


# ------------------------------------------------------------ 10 smoke csv

def test_10_experiment_cli_emits_stable_schema_and_identical_bytes(tmp_path):
    from conicmtl.cli import main

    args = [
        "experiment",
        "--data", "sample:mtl",
        "--runs", "2",
        "--folds", "3",
        "--methods", "Conic,Average",
        "--fractions", "0.5",
        "--grid-C", "0.5,2",
        "--grid-p", "2",
        "--grid-a-frac", "0.5,1",
        "--seed", "11",
    ]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    text = out_a.read_text()
    assert text.splitlines()[0] == RESULT_HEADER
    assert out_a.read_bytes() == out_b.read_bytes()
    rows = text.strip().splitlines()[1:]
    assert len(rows) == 4  # one row per (method, run)
    report(10, "experiment command emits the exact schema, byte-identical across reruns")
