import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conicmtl import training
from conicmtl.data import Scaler, TaskDataset, prepare_run, synth_multitask
from conicmtl.experiments import budget_from_fraction, resolve_dataset
from conicmtl.kernels import (
    EXPAND_BLOCK,
    GramStack,
    KernelSpec,
    build_gram_stack,
    default_kernel_dictionary,
)
from conicmtl.solvers import DualSolution, component_sq_norms, solve_svm_dual
from conicmtl.training import (
    MtlModel,
    TrainConfig,
    decision_values,
    fit,
    load_model,
    pareto_lambda,
    predict,
    save_model,
    weighted_empirical_loss,
)
from conicmtl.util import conjugate_exponent
from test_kernels import EXPANSION_SPECS, brute_force_expansion


def make_tasks(T=3, N=20, d=4, seed=0, noise=0.6, sim=0.7):
    data = synth_multitask(T=T, N=N, d=d, task_similarity=sim, noise=noise, seed=seed)
    scaler = Scaler().fit(np.vstack([t.X for t in data]))
    return [TaskDataset(t.task_id, scaler.transform(t.X), t.y) for t in data]


def make_stacks(tasks, specs):
    return [build_gram_stack(t.task_id, t.X, specs) for t in tasks]


SPECS = default_kernel_dictionary()


def total_cost(stacks, p):
    return float(sum(s.trace_norm(conjugate_exponent(p)) for s in stacks))


def trace_is_monotone(trace, rel=1e-9):
    trace = np.asarray(trace)
    return bool(np.all(np.diff(trace) <= rel * np.maximum(np.abs(trace[:-1]), 1e-12)))


# ------------------------------------------------------------------- fit

def test_average_single_task_single_kernel_reduces_to_plain_svm():
    tasks = make_tasks(T=1, N=16, seed=1)
    spec = [KernelSpec(kind="gaussian", spread=1.0)]
    stacks = make_stacks(tasks, spec)
    cfg = TrainConfig(C=1.5, p=2.0, budget=100.0, r_max=4.0, mode="average")
    model = fit(tasks, stacks, cfg, kernel_specs=spec)
    direct = solve_svm_dual(stacks[0].grams[0], tasks[0].y, C=1.5)
    assert np.allclose(model.duals[0].alpha, direct.alpha, atol=1e-9)
    assert model.theta == pytest.approx([1.0])


def assert_same_fit(a, b):
    assert a.objective_trace == b.objective_trace
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.task_weights, b.task_weights)
    for da, db in zip(a.duals, b.duals):
        assert da.alpha.tobytes() == db.alpha.tobytes()


def test_conic_with_slack_budget_is_bit_identical_to_average():
    tasks = make_tasks(T=3, N=18, seed=2)
    stacks = make_stacks(tasks, SPECS)
    budget = total_cost(stacks, 2.0)  # usage at all-ones weights
    conic = fit(tasks, stacks, TrainConfig(C=1.0, p=2.0, budget=budget, r_max=8.0, mode="conic"), SPECS)
    avg = fit(tasks, stacks, TrainConfig(C=1.0, p=2.0, budget=budget, r_max=8.0, mode="average"), SPECS)
    assert_same_fit(conic, avg)


@pytest.mark.parametrize("p", [2.0, 4 / 3])
@pytest.mark.parametrize("seed", [0, 1])
def test_conic_at_budget_fraction_one_is_bit_identical_to_average_at_ten_tasks(seed, p):
    # numpy sums 8 or more terms pairwise: a budget summed in another order reads kappa = 1 + 2^-52
    tasks = make_tasks(T=10, N=16, d=4, seed=seed)
    stacks = make_stacks(tasks, SPECS)
    budget = budget_from_fraction(stacks, p, 1.0)
    conic = fit(tasks, stacks, TrainConfig(C=1.0, p=p, budget=budget, mode="conic"), SPECS)
    avg = fit(tasks, stacks, TrainConfig(C=1.0, p=p, budget=budget, mode="average"), SPECS)
    assert np.array_equal(conic.task_weights, np.ones(10))
    assert_same_fit(conic, avg)


def test_conic_trace_monotone_and_budget_tight():
    tasks = make_tasks(T=3, N=20, seed=3)
    stacks = make_stacks(tasks, SPECS)
    costs = np.array([s.trace_norm(2.0) for s in stacks])
    cfg = TrainConfig(C=1.0, p=2.0, budget=0.5 * costs.sum(), r_max=8.0, mode="conic")
    model = fit(tasks, stacks, cfg, kernel_specs=SPECS)
    assert trace_is_monotone(model.objective_trace)
    used = float((costs / model.task_weights).sum())
    at_lower_box = np.all(model.task_weights == 1.0)
    assert at_lower_box or used <= cfg.budget + 1e-9
    assert model.converged


def test_first_w_step_identical_across_modes():
    # the per-task solver never sees the task weights
    tasks = make_tasks(T=2, N=14, seed=4)
    stacks = make_stacks(tasks, SPECS)
    budget = 0.4 * total_cost(stacks, 2.0)
    conic = fit(tasks, stacks, TrainConfig(C=1.0, p=2.0, budget=budget, r_max=8.0, mode="conic", max_outer_iters=1), SPECS)
    avg = fit(tasks, stacks, TrainConfig(C=1.0, p=2.0, budget=budget, r_max=8.0, mode="average", max_outer_iters=1), SPECS)
    for dc, da in zip(conic.duals, avg.duals):
        assert dc.alpha.tobytes() == da.alpha.tobytes()


def test_determinism_across_runs():
    tasks = make_tasks(T=2, N=16, seed=5)
    stacks = make_stacks(tasks, SPECS)
    cfg = TrainConfig(C=2.0, p=4.0 / 3.0, budget=0.6 * total_cost(stacks, 4.0 / 3.0), r_max=8.0, mode="conic")
    a = fit(tasks, stacks, cfg, kernel_specs=SPECS)
    b = fit(tasks, stacks, cfg, kernel_specs=SPECS)
    assert a.objective_trace == b.objective_trace
    assert a.theta.tobytes() == b.theta.tobytes()
    assert a.task_weights.tobytes() == b.task_weights.tobytes()


def test_infeasible_budget_pair_raises():
    tasks = make_tasks(T=2, N=10, seed=6)
    stacks = make_stacks(tasks, SPECS)
    with pytest.raises(ValueError, match="infeasible") as err:
        fit(tasks, stacks, TrainConfig(C=1.0, p=2.0, budget=0.5, r_max=2.0, mode="conic"), SPECS)
    needed = float((training.task_costs(stacks, 2.0) / 2.0).sum())
    assert f"needs {needed}, budget is 0.5" in str(err.value)


def test_degenerate_task_raises():
    tasks = make_tasks(T=1, N=10, seed=7)
    bad = TaskDataset("one_class", tasks[0].X, np.ones(10))
    stacks = make_stacks([bad], SPECS)
    with pytest.raises(ValueError, match="degenerate"):
        fit([bad], stacks, TrainConfig(mode="average"), SPECS)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("r_max", 1.0, "r_max must exceed 1 and be finite, got 1.0"),
        ("r_max", float("inf"), "r_max must exceed 1 and be finite, got inf"),
        ("budget", 0.0, "budget must be positive, got 0.0"),
        ("budget", float("nan"), "budget must be positive, got nan"),
        ("p", float("nan"), "p must be >= 1, got nan"),
        ("C", float("inf"), "C must be positive and finite, got inf"),
        ("tol_rel_obj", float("inf"), "tol_rel_obj must be positive and finite, got inf"),
        ("svm_tol", 0.0, "svm_tol must be positive, got 0.0"),
        ("svm_max_iter", 0, "svm_max_iter must be positive, got 0"),
    ],
)
def test_config_rejects_values_that_fail_late_or_never(field, value, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(**{field: value})


def test_non_convergence_is_flagged_not_raised():
    tasks = make_tasks(T=3, N=20, seed=8)
    stacks = make_stacks(tasks, SPECS)
    cfg = TrainConfig(
        C=1.0, p=2.0, budget=0.3 * total_cost(stacks, 2.0), r_max=8.0, mode="conic",
        max_outer_iters=1, tol_rel_obj=1e-12,
    )
    model = fit(tasks, stacks, cfg, kernel_specs=SPECS)
    assert model.converged is False


def test_solver_cap_hit_clears_converged():
    tasks = make_tasks(T=2, N=16, seed=8)
    stacks = make_stacks(tasks, SPECS)
    cfg = TrainConfig(C=1.0, p=2.0, mode="average", svm_max_iter=1)
    model = fit(tasks, stacks, cfg, kernel_specs=SPECS)
    assert model.converged is False
    assert fit(tasks, stacks, replace(cfg, svm_max_iter=100_000), kernel_specs=SPECS).converged is True


def test_stall_test_exit_with_the_gap_above_tolerance_is_not_converged(monkeypatch):
    # kernel weights frozen at the uniform start: the objective stalls within
    # tolerance, but the dual value, which optimizes over theta, stays far below it
    tasks = make_tasks(T=2, N=20, seed=3)
    stacks = make_stacks(tasks, SPECS)
    monkeypatch.setattr(training, "theta_step", lambda u, p: np.full(u.size, u.size ** (-1.0 / p)))
    cfg = TrainConfig(C=1.0, p=2.0, budget=0.5 * total_cost(stacks, 2.0))
    model = fit(tasks, stacks, cfg, kernel_specs=SPECS)
    assert len(model.objective_trace) < 3 * cfg.max_outer_iters + 1  # stopped by the stall test
    assert all(d.converged for d in model.duals)
    assert model.outer_gap > cfg.tol_rel_obj
    assert model.converged is False


# ------------------------------------------------------------- warm starts

def init_model(tasks, specs=SPECS, **config):
    return fit(tasks, make_stacks(tasks, specs), TrainConfig(mode="average", **config), kernel_specs=specs)


@pytest.mark.parametrize(
    "change, message",
    [
        ("kernels", "init has 3 kernel weights for gram stacks of 11 kernels"),
        ("tasks", "init has 1 tasks for a fit of 2"),
        ("task id", "init task 'other' of 16 samples does not match task 'synth0' of 16 samples"),
        ("samples", "init task 'synth1' of 12 samples does not match task 'synth1' of 16 samples"),
    ],
)
def test_fit_rejects_an_init_of_other_tasks_or_kernels(change, message):
    tasks = make_tasks(T=2, N=16, seed=5)
    other = {
        "kernels": lambda: init_model(tasks, SPECS[:3]),
        "tasks": lambda: init_model(tasks[:1]),
        "task id": lambda: init_model([TaskDataset("other", tasks[0].X, tasks[0].y), tasks[1]]),
        "samples": lambda: init_model([tasks[0], tasks[1].subset(np.arange(12))]),
    }[change]()
    with pytest.raises(ValueError, match=re.escape(message)):
        fit(tasks, make_stacks(tasks, SPECS), TrainConfig(mode="average"), kernel_specs=SPECS, init=other)


@pytest.mark.parametrize("mode, use_bias", [("conic", False), ("average", False), ("conic", True)])
def test_warm_fits_up_a_c_grid_are_certified_and_match_the_cold_objectives(mode, use_bias):
    tasks = make_tasks(T=3, N=20, seed=6)
    stacks = make_stacks(tasks, SPECS)
    budget = 0.5 * total_cost(stacks, 2.0) if mode == "conic" else 1.0
    previous = None
    for C in (0.125, 0.5, 2.0, 8.0):
        cfg = TrainConfig(C=C, p=2.0, budget=budget, mode=mode, use_bias=use_bias)
        cold = fit(tasks, stacks, cfg, kernel_specs=SPECS)
        warm = fit(tasks, stacks, cfg, kernel_specs=SPECS, init=previous)
        for model in (cold, warm):
            assert model.converged and 0.0 <= model.outer_gap <= cfg.tol_rel_obj
            assert trace_is_monotone(model.objective_trace)
        f_cold, f_warm = cold.objective_trace[-1], warm.objective_trace[-1]
        assert abs(f_warm - f_cold) <= 2 * cfg.tol_rel_obj * abs(f_cold)
        previous = warm


def test_warm_fit_takes_lambda_only_from_a_conic_init_of_the_same_budget():
    tasks = make_tasks(T=3, N=20, seed=7)
    stacks = make_stacks(tasks, SPECS)
    cfg = TrainConfig(C=0.5, p=2.0, budget=0.4 * total_cost(stacks, 2.0))
    init = fit(tasks, stacks, cfg, kernel_specs=SPECS)
    assert (init.task_weights > 1.0).any()
    hinge_at_zero = 1.0 * np.array([t.y.size for t in tasks])  # trace[0] is the w = 0 objective at the start lambda
    warm = fit(tasks, stacks, replace(cfg, C=1.0), kernel_specs=SPECS, init=init)
    assert warm.objective_trace[0] == float((init.task_weights * hinge_at_zero).sum())
    cold_start = fit(tasks, stacks, replace(cfg, C=1.0), kernel_specs=SPECS).objective_trace[0]
    for other in (replace(cfg, C=1.0, budget=0.6 * total_cost(stacks, 2.0)), replace(cfg, C=1.0, r_max=6.0)):
        start = fit(tasks, stacks, other, kernel_specs=SPECS).objective_trace[0]
        assert fit(tasks, stacks, other, kernel_specs=SPECS, init=init).objective_trace[0] == start
    assert cold_start != warm.objective_trace[0]


# ---------------------------------------------------------- pareto weights

def test_conic_fit_combines_and_solves_once_per_task_and_outer_iteration(monkeypatch):
    # the benchmark's tracer counts the w-step through these two names; a
    # path around them would read as a w-step that never runs
    _, dataset = resolve_dataset("sample:mtl")
    tasks, _, _ = prepare_run(dataset, 0.5, 7, True)
    specs = default_kernel_dictionary()
    stacks = make_stacks(tasks, specs)
    counts = {"combine": 0, "solve_svm_dual": 0}
    for name in counts:

        def counting(*args, _name=name, _original=getattr(training, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(training, name, counting)
    config = TrainConfig(C=1.0, p=2.0, budget=budget_from_fraction(stacks, 2.0, 0.5))
    model = fit(tasks, stacks, config, kernel_specs=specs)
    outer = (len(model.objective_trace) - 1) // 3
    assert outer > 1
    assert counts == {"combine": outer * len(tasks), "solve_svm_dual": outer * len(tasks)}


def test_pareto_lambda_examples():
    assert np.array_equal(pareto_lambda(np.array([0.3, 7.0, 2.0]), 1.0), np.ones(3))
    assert pareto_lambda(np.array([1.0, 1.0]), 0.5) == pytest.approx([2.0, 2.0])
    with pytest.raises(ValueError, match=re.escape("pareto exponent must lie in (0, 1], got 2.0")):
        pareto_lambda(np.array([1.0, 2.0]), 2.0)


@pytest.mark.parametrize("p_exp", [0.0, -0.5, 1.5, float("nan")])
def test_pareto_lambda_and_pareto_config_reject_an_exponent_outside_zero_one(p_exp):
    message = re.escape(f"pareto exponent must lie in (0, 1], got {p_exp!r}")
    with pytest.raises(ValueError, match=message):
        pareto_lambda(np.array([1.0, 2.0]), p_exp)
    with pytest.raises(ValueError, match=message):
        TrainConfig(mode="pareto", p_exp=p_exp)


def test_pareto_lambda_rejects_nonpositive():
    with pytest.raises(ValueError, match="positive"):
        pareto_lambda(np.array([1.0, 0.0]), 0.5)


def test_pareto_lambda_exceeds_one_and_decreases_in_exponent():
    rng = np.random.default_rng(9)
    grid = np.arange(0.1, 0.95, 0.1)
    for _ in range(100):
        f = rng.uniform(0.05, 10.0, size=int(rng.integers(2, 6)))
        prev = None
        for p in grid:
            lam = pareto_lambda(f, float(p))
            assert np.all(lam > 1.0)
            if prev is not None:
                assert np.all(lam < prev)
            prev = lam


def test_pareto_mode_trains_and_reports_weights_above_one():
    tasks = make_tasks(T=3, N=16, seed=10)
    stacks = make_stacks(tasks, SPECS)
    cfg = TrainConfig(C=1.0, p=2.0, budget=1.0, r_max=8.0, mode="pareto", p_exp=0.5)
    model = fit(tasks, stacks, cfg, kernel_specs=SPECS)
    assert np.all(model.task_weights > 1.0)


# ------------------------------------------------------------- prediction

def test_predict_two_point_model():
    X = np.array([[1.0], [-1.0]])
    task = TaskDataset("t", X, np.array([1.0, -1.0]))
    spec = [KernelSpec(kind="linear")]
    stacks = make_stacks([task], spec)
    model = fit([task], stacks, TrainConfig(C=10.0, mode="average"), spec)
    labels, values = predict(model, "t", X)
    assert labels[0] == 1.0 and labels[1] == -1.0
    assert values == pytest.approx([1.0, -1.0], abs=1e-6)


def test_predict_zero_model_gives_positive_labels():
    tasks = make_tasks(T=1, N=12, seed=11)
    stacks = make_stacks(tasks, SPECS)
    model = fit(tasks, stacks, TrainConfig(mode="average"), kernel_specs=SPECS)
    model.duals[0].alpha[:] = 0.0
    labels, values = predict(model, tasks[0].task_id, tasks[0].X)
    assert np.array_equal(values, np.zeros(12))
    assert np.all(labels == 1.0)  # sign(0) resolves to +1


def test_decision_values_scale_with_kernel_weights_labels_do_not():
    tasks = make_tasks(T=1, N=14, seed=12)
    stacks = make_stacks(tasks, SPECS)
    model = fit(tasks, stacks, TrainConfig(C=1.0, mode="average"), SPECS)
    labels, values = predict(model, tasks[0].task_id, tasks[0].X)
    kappa = 3.0
    model.theta = model.theta * kappa
    labels2, values2 = predict(model, tasks[0].task_id, tasks[0].X)
    assert values2 == pytest.approx(kappa * values, rel=1e-12)
    assert np.array_equal(labels, labels2)


def handmade_model(specs, theta, alpha, bias=0.0, use_bias=False, d=4, seed=0):
    """One-task model with the given duals, for prediction tests that need no training."""
    rng = np.random.default_rng(seed)
    n = alpha.size
    task = TaskDataset("t", rng.standard_normal((n, d)), np.where(np.arange(n) % 2 == 0, 1.0, -1.0))
    dual = DualSolution(
        alpha=alpha, bias=bias, objective=0.0, duality_gap=0.0, dual_objective=0.0, iterations=0,
        converged=True, margins=np.zeros(n),
    )
    return MtlModel(
        config=TrainConfig(use_bias=use_bias), kernel_specs=specs, theta=theta, task_weights=np.ones(1),
        duals=[dual], component_sq_norms=np.zeros((1, len(specs))), objective_trace=[0.0],
        tasks=[task], converged=True,
    )


def brute_force_decisions(model, X_test):
    """sum_m theta_m (alpha*y) @ k_m(X_train, X_test) over every training row, plus the bias."""
    task, dual = model.tasks[0], model.duals[0]
    out = brute_force_expansion(model.kernel_specs, model.theta, task.X, dual.alpha * task.y, X_test)
    return out + (dual.bias if model.config.use_bias else 0.0)


@pytest.mark.parametrize("use_bias", [False, True])
def test_decision_values_match_all_row_expansion_across_blocks(use_bias):
    rng = np.random.default_rng(40)
    alpha = np.where(rng.random(30) < 0.5, 0.0, rng.uniform(0.1, 2.0, 30))
    theta = np.array([0.3, 0.4, 0.0, 0.2, 0.5, 0.0, 0.1])
    model = handmade_model(EXPANSION_SPECS, theta, alpha, bias=-0.3, use_bias=use_bias)
    X_test = rng.standard_normal((2 * EXPAND_BLOCK + 1, 4))
    want = brute_force_decisions(model, X_test)
    got = decision_values(model, "t", X_test)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_decision_values_without_support_vectors_is_the_bias():
    model = handmade_model(EXPANSION_SPECS, np.full(len(EXPANSION_SPECS), 0.3), np.zeros(12), bias=0.25, use_bias=True)
    X_test = np.random.default_rng(41).standard_normal((7, 4))
    assert np.array_equal(decision_values(model, "t", X_test), np.full(7, 0.25))


@pytest.mark.parametrize("alpha", [np.zeros(8), np.ones(8)])
def test_decision_values_reject_bad_test_features(alpha):
    model = handmade_model(EXPANSION_SPECS, np.full(len(EXPANSION_SPECS), 0.3), alpha)
    for bad in (np.ones(4), np.ones((3, 5)), np.ones((2, 3, 4))):
        with pytest.raises(ValueError, match="test features must be 2-d"):
            decision_values(model, "t", bad)
    with pytest.raises(ValueError, match="non-finite"):
        decision_values(model, "t", np.array([[0.0, np.nan, 0.0, 0.0]]))


def test_decision_values_memory_is_bounded_by_the_column_block():
    # every one of 160 training points a support vector, 20,000 test points:
    # one full cross Gram alone would take 25.6 MB, a 2048-column block of
    # one 2.6 MB; fresh temporaries per kernel and block peaked at 15 MB
    rng = np.random.default_rng(42)
    model = handmade_model(SPECS, np.full(len(SPECS), len(SPECS) ** -0.5), rng.uniform(0.1, 1.0, 160), d=10)
    X_test = rng.standard_normal((20_000, 10))
    tracemalloc.start()
    try:
        decision_values(model, "t", X_test)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_predict_unknown_task_raises():
    tasks = make_tasks(T=1, N=10, seed=13)
    stacks = make_stacks(tasks, SPECS)
    model = fit(tasks, stacks, TrainConfig(mode="average"), SPECS)
    with pytest.raises(KeyError):
        predict(model, "nope", tasks[0].X)


# ------------------------------------------------------------ empirical loss

def test_weighted_empirical_loss_zero_when_margins_clear():
    X = np.array([[1.0], [-1.0]])
    task = TaskDataset("t", X, np.array([1.0, -1.0]))
    spec = [KernelSpec(kind="linear")]
    stacks = make_stacks([task], spec)
    model = fit([task], stacks, TrainConfig(C=10.0, mode="average"), spec)
    assert weighted_empirical_loss(model, rho=1.0, stacks=stacks) == pytest.approx(0.0, abs=1e-6)


def test_weighted_empirical_loss_all_zero_decisions_gives_one():
    tasks = make_tasks(T=2, N=10, seed=14)
    stacks = make_stacks(tasks, SPECS)
    model = fit(tasks, stacks, TrainConfig(C=1e-12, mode="average", max_outer_iters=1), SPECS)
    assert weighted_empirical_loss(model, rho=1.0, stacks=stacks) == pytest.approx(1.0, abs=1e-6)


def test_weighted_empirical_loss_matches_brute_force_ramp():
    tasks = make_tasks(T=2, N=16, seed=20)
    stacks = make_stacks(tasks, SPECS)
    cfg = TrainConfig(C=1.0, p=2.0, budget=0.5 * total_cost(stacks, 2.0), mode="conic", use_bias=True)
    model = fit(tasks, stacks, cfg, kernel_specs=SPECS)
    loss = weighted_empirical_loss(model, rho=0.5, stacks=stacks)
    ramp_total = 0.0
    for lam, task, dual in zip(model.task_weights, tasks, model.duals):
        values = brute_force_expansion(SPECS, model.theta, task.X, dual.alpha * task.y, task.X)
        ramp_total += lam * np.clip(1.0 - task.y * (values + dual.bias) / 0.5, 0.0, 1.0).sum()
    assert loss == pytest.approx(ramp_total / 32, rel=1e-12)


def test_weighted_empirical_loss_rejects_bad_rho_and_misaligned_stacks():
    tasks = make_tasks(T=2, N=10, seed=21)
    stacks = make_stacks(tasks, SPECS)
    model = fit(tasks, stacks, TrainConfig(mode="average"), SPECS)
    with pytest.raises(ValueError, match="rho must be positive"):
        weighted_empirical_loss(model, 0.0, stacks)
    with pytest.raises(ValueError, match=r"expected one stack per task \(2\), got 1"):
        weighted_empirical_loss(model, 1.0, stacks[:1])
    with pytest.raises(ValueError, match=f"stack of task {tasks[0].task_id!r} has shape"):
        weighted_empirical_loss(model, 1.0, make_stacks(tasks[:1], SPECS[:3]) + stacks[1:])


# -------------------------------------------------------------- single task

def test_single_task_concentrates_weight_on_informative_kernel(monkeypatch):
    rng = np.random.default_rng(16)
    X_signal = np.zeros((24, 4))
    X_signal[:12, 0] = 1.0
    X_signal[12:, 0] = -1.0
    X_noise = rng.standard_normal((24, 3))
    y = np.concatenate([np.ones(12), -np.ones(12)])
    task = TaskDataset("t", np.hstack([X_signal[:, :1], X_noise]), y)

    informative = task.X.copy()
    informative[:, 1:] = 0.0
    noise_only = task.X.copy()
    noise_only[:, 0] = 0.0
    from conicmtl.kernels import compute_gram

    spec = KernelSpec(kind="gaussian", spread=1.0)
    grams = np.stack([
        compute_gram([spec], informative, informative)[0],
        compute_gram([spec], noise_only, noise_only)[0],
    ])
    stack = GramStack(task_id="t", grams=grams)
    solves, starts = [], []

    def recording_solve(*args, **kwargs):
        starts.append(kwargs.get("alpha0"))
        solves.append(solve_svm_dual(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(training, "solve_svm_dual", recording_solve)
    model = fit([task], [stack], TrainConfig(C=1.0, p=2.0, mode="average"), kernel_specs=[spec, spec])
    assert model.theta[0] > model.theta[1]
    # every w-step certifies its (tight) gap well inside the iteration cap
    assert solves and all(s.converged for s in solves)
    assert max(s.iterations for s in solves) <= 20
    assert model.converged
    # each w-step after the first warm-starts from the previous dual point
    assert starts[0] is None and len(solves) > 1
    for prev, start in zip(solves, starts[1:]):
        assert start.tobytes() == prev.alpha.tobytes()


# ------------------------------------------------------------ serialization

def test_save_load_roundtrip_is_bit_exact(tmp_path):
    tasks = make_tasks(T=2, N=14, seed=17)
    stacks = make_stacks(tasks, SPECS)
    cfg = TrainConfig(C=1.0, p=2.0, budget=0.5 * total_cost(stacks, 2.0), r_max=8.0, mode="conic")
    model = fit(tasks, stacks, cfg, kernel_specs=SPECS)
    probe = np.vstack([t.X for t in tasks])[:9]
    before = {t.task_id: predict(model, t.task_id, probe)[1] for t in tasks}

    path = tmp_path / "model.txt"
    save_model(model, path)
    assert path.read_text().startswith("conicmtl-model v1")
    loaded = load_model(path, tasks)
    for t in tasks:
        after = predict(loaded, t.task_id, probe)[1]
        assert after.tobytes() == before[t.task_id].tobytes()
    assert loaded.objective_trace == model.objective_trace
    assert loaded.converged is model.converged
    assert all(d.converged is model.converged for d in loaded.duals)


def test_save_load_keeps_every_config_field(tmp_path):
    tasks = make_tasks(T=2, N=12, seed=18)
    stacks = make_stacks(tasks, SPECS)
    cfg = TrainConfig(
        C=0.75, p=4.0 / 3.0, budget=0.6 * total_cost(stacks, 4.0 / 3.0), r_max=5.5, mode="conic", p_exp=0.3,
        use_bias=True, tol_rel_obj=1e-6, max_outer_iters=7, seed=5, svm_tol=1e-7, svm_max_iter=500,
    )
    model = fit(tasks, stacks, cfg, kernel_specs=SPECS)
    path = tmp_path / "model.txt"
    save_model(model, path)
    assert load_model(path, tasks).config == cfg


def test_bias_model_roundtrip_is_bit_exact_past_a_block_boundary(tmp_path):
    tasks = make_tasks(T=2, N=20, seed=22)
    stacks = make_stacks(tasks, SPECS)
    cfg = TrainConfig(C=1.0, p=2.0, budget=0.5 * total_cost(stacks, 2.0), mode="conic", use_bias=True)
    model = fit(tasks, stacks, cfg, kernel_specs=SPECS)
    path = tmp_path / "bias.txt"
    save_model(model, path)
    loaded = load_model(path, tasks)
    probe = np.random.default_rng(23).standard_normal((EXPAND_BLOCK + 1, tasks[0].X.shape[1]))
    for t in tasks:
        assert loaded.duals[model.task_index(t.task_id)].bias == model.duals[model.task_index(t.task_id)].bias
        assert decision_values(loaded, t.task_id, probe).tobytes() == decision_values(model, t.task_id, probe).tobytes()


def test_pareto_model_roundtrips_despite_out_of_box_weights(tmp_path):
    tasks = make_tasks(T=3, N=12, seed=19)
    stacks = make_stacks(tasks, SPECS)
    cfg = TrainConfig(C=1.0, p=2.0, mode="pareto", p_exp=0.3)
    model = fit(tasks, stacks, cfg, kernel_specs=SPECS)
    assert np.any(model.task_weights > 1.0)
    path = tmp_path / "pareto.txt"
    save_model(model, path)
    loaded = load_model(path, tasks)
    assert np.array_equal(loaded.task_weights, model.task_weights)
    probe = tasks[0].X[:5]
    assert np.array_equal(
        predict(loaded, tasks[0].task_id, probe)[1], predict(model, tasks[0].task_id, probe)[1]
    )


def test_load_rejects_tampered_training_data(tmp_path):
    tasks = make_tasks(T=1, N=10, seed=18)
    stacks = make_stacks(tasks, SPECS)
    model = fit(tasks, stacks, TrainConfig(mode="average"), SPECS)
    path = tmp_path / "model.txt"
    save_model(model, path)
    tampered = TaskDataset(tasks[0].task_id, tasks[0].X + 1e-9, tasks[0].y)
    assert load_error(path, [tampered]) == f"{path}: training data hash mismatch for task 'synth0'"
    missing = f"{path}: training task 'synth0' not supplied to load_model"
    assert load_error(path, [TaskDataset("other", tasks[0].X, tasks[0].y)]) == missing


def saved_model(tmp_path, mode="conic"):
    """A two-task model fit at p = 2, r_max = 8, budget = 40 and saved; (model, tasks, path)."""
    tasks = make_tasks(T=2, N=12, seed=24)
    cfg = TrainConfig(C=1.0, p=2.0, budget=40.0, r_max=8.0, mode=mode, p_exp=0.3)
    model = fit(tasks, make_stacks(tasks, SPECS), cfg, kernel_specs=SPECS)
    path = tmp_path / f"{mode}.txt"
    save_model(model, path)
    return model, tasks, path


def rewrite(path, section, key, value):
    """Set `key = value` in [section] of a model document; None drops the line, or with key None the section."""
    lines = path.read_text(encoding="utf-8").splitlines()
    start = lines.index(f"[{section}]")
    end = next((i for i in range(start + 1, len(lines)) if lines[i].startswith("[")), len(lines))
    if key is None:
        del lines[start:end]
    else:
        i = next(i for i in range(start + 1, end) if lines[i].startswith(f"{key} = "))
        lines[i : i + 1] = [] if value is None else [f"{key} = {value}"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def hex_text(values):
    return " ".join(float(v).hex() for v in values)


def load_error(path, tasks):
    with pytest.raises(ValueError) as info:
        load_model(path, tasks)
    message = str(info.value)
    assert message.startswith(f"{path}: ")
    return message


@pytest.mark.parametrize("header", ["conicmtl-model vx", "conicmtl-model v2", "conicmtl-model v"])
def test_load_names_the_file_and_a_bad_version_header(tmp_path, header):
    _, tasks, path = saved_model(tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join([header] + lines[1:]) + "\n", encoding="utf-8")
    assert load_error(path, tasks) == f"{path}: unsupported model version header {header!r}"


@pytest.mark.parametrize("mode", ["conic", "average", "pareto"])
def test_document_writes_theta_p_and_lambda_r_max_and_budget_from_the_config(tmp_path, mode):
    _, _, path = saved_model(tmp_path, mode)
    lines = path.read_text(encoding="utf-8").splitlines()
    theta, lam = lines.index("[theta]"), lines.index("[lambda]")
    assert lines[theta + 1] == "p = 0x1.0000000000000p+1"
    assert lines[theta + 2].startswith("values = ") and theta + 3 == lam
    budget = "inf" if mode == "pareto" else "0x1.4000000000000p+5"
    assert lines[lam + 1 : lam + 3] == ["r_max = 0x1.0000000000000p+3", f"budget = {budget}"]
    assert lines[lam + 3].startswith("values = ") and lines[lam + 4] == "[trace]"


@pytest.mark.parametrize(
    "section, change, message",
    [
        ("theta", lambda v: np.concatenate([[-0.25], v[1:]]), r"kernel weights \[-0\.25, .*\] must be nonnegative"),
        ("theta", lambda v: 1.5 * v, r"kernel weights \[.*\] must be nonnegative and in the unit L2\.0 ball"),
        ("theta", lambda v: v[:-1], r"\[theta\] has 10 values for 11 \[kernels\] specs"),
        ("lambda", lambda v: np.array([np.nan, v[1]]), r"task weights must be finite, got \[nan, "),
        ("lambda", lambda v: np.array([0.5, v[1]]), r"task weights \[0\.5, .*\] lie outside the box \[1, r_max = 8\.0\]"),
        ("lambda", lambda v: np.array([v[0], 9.0]), r"task weights \[.*, 9\.0\] lie outside the box"),
        ("lambda", lambda v: v[:1], r"\[lambda\] has 1 values for 2 tasks"),
    ],
    ids=["theta-negative", "theta-outside-ball", "theta-length", "lambda-nan", "lambda-below-box", "lambda-above-box",
         "lambda-length"],
)
def test_load_rejects_weights_that_break_their_constraints(tmp_path, section, change, message):
    model, tasks, path = saved_model(tmp_path)
    weights = model.theta if section == "theta" else model.task_weights
    rewrite(path, section, "values", hex_text(change(weights)))
    assert re.search(message, load_error(path, tasks))


def test_load_keeps_finite_out_of_box_pareto_weights(tmp_path):
    _, tasks, path = saved_model(tmp_path, "pareto")
    rewrite(path, "lambda", "values", hex_text([0.5, 20.0]))
    assert load_model(path, tasks).task_weights.tolist() == [0.5, 20.0]
    rewrite(path, "lambda", "values", hex_text([0.5, np.inf]))
    assert re.search(r"task weights must be finite, got \[0\.5, inf\]", load_error(path, tasks))


@pytest.mark.parametrize(
    "mode, section, key, value",
    [
        ("conic", "theta", "p", float(3.0).hex()),
        ("conic", "lambda", "r_max", float(4.0).hex()),
        ("conic", "lambda", "budget", "inf"),
        ("pareto", "lambda", "budget", float(40.0).hex()),
    ],
)
def test_load_rejects_copies_that_disagree_with_the_config(tmp_path, mode, section, key, value):
    _, tasks, path = saved_model(tmp_path, mode)
    rewrite(path, section, key, value)
    assert load_error(path, tasks).endswith(f"[{section}] {key} = {value} disagrees with [config]")


@pytest.mark.parametrize(
    "section, key",
    [("config", "converged"), ("theta", "values"), ("lambda", "budget"), ("trace", "values"), ("trace", None),
     ("task synth1", "alpha")],
)
def test_load_names_the_file_section_and_key_that_is_missing(tmp_path, section, key):
    _, tasks, path = saved_model(tmp_path)
    rewrite(path, section, key, None)
    expected = "values" if key is None else key
    assert load_error(path, tasks).endswith(f"no key {expected!r} in section [{section}]")


def test_load_rejects_a_line_before_the_first_section(tmp_path):
    _, tasks, path = saved_model(tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join([lines[0], "note = tampered"] + lines[1:]) + "\n", encoding="utf-8")
    assert load_error(path, tasks) == f"{path}: line 2: 'note = tampered' comes before the first section"


def test_load_rejects_an_unknown_section_such_as_a_misspelt_scaler(tmp_path):
    # read as a model without a scaler, predict would score unstandardized features without saying so
    model, tasks, path = saved_model(tmp_path)
    model.scaler = Scaler().fit(np.vstack([t.X for t in tasks]))
    save_model(model, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    at = lines.index("[scaler]")
    lines[at] = "[scalar]"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert load_error(path, tasks) == f"{path}: line {at + 1}: unknown section [scalar]"


@pytest.mark.parametrize("section", ["config", "kernels", "theta", "lambda", "trace", "task synth0"])
def test_load_rejects_an_unknown_key_and_names_its_section(tmp_path, section):
    _, tasks, path = saved_model(tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines()
    at = lines.index(f"[{section}]")
    path.write_text("\n".join(lines[: at + 1] + ["extra = 1"] + lines[at + 1 :]) + "\n", encoding="utf-8")
    assert load_error(path, tasks) == f"{path}: unknown key 'extra' in [{section}]"


def test_load_rejects_a_repeated_key_and_names_its_line(tmp_path):
    _, tasks, path = saved_model(tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines()
    at = lines.index("[config]") + 1
    path.write_text("\n".join(lines[: at + 1] + [lines[at]] + lines[at + 1 :]) + "\n", encoding="utf-8")
    key = lines[at].partition(" = ")[0]
    assert load_error(path, tasks) == f"{path}: line {at + 2}: key {key!r} appears more than once in [config]"


def test_load_skips_blank_lines(tmp_path):
    _, tasks, path = saved_model(tmp_path)
    original = path.read_bytes()
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join([lines[0]] + [text for line in lines[1:] for text in ("", line, "   ")]), encoding="utf-8")
    again = tmp_path / "again.txt"
    save_model(load_model(path, tasks), again)
    assert again.read_bytes() == original


@pytest.mark.parametrize("section", ["task synth1", "config", "kernels", "theta", "lambda", "trace"])
def test_load_rejects_a_repeated_section_and_names_it(tmp_path, section):
    # a second [task <id>] used to merge into the first and fail on the count of [lambda]
    _, tasks, path = saved_model(tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines()
    start = lines.index(f"[{section}]")
    end = next((i for i in range(start + 1, len(lines)) if lines[i].startswith("[")), len(lines))
    path.write_text("\n".join(lines + lines[start:end]) + "\n", encoding="utf-8")
    assert load_error(path, tasks) == f"{path}: section [{section}] appears more than once"


@pytest.mark.parametrize(
    "key, sizes",
    [("alpha", "11 alpha for 12 samples and 11"), ("component_sq_norms", "12 alpha for 12 samples and 10")],
)
def test_load_rejects_duals_of_the_wrong_length(tmp_path, key, sizes):
    model, tasks, path = saved_model(tmp_path)
    values = model.duals[1].alpha if key == "alpha" else model.component_sq_norms[1]
    rewrite(path, "task synth1", key, hex_text(values[:-1]))
    assert load_error(path, tasks).endswith(f"[task synth1] has {sizes} component_sq_norms for 11 kernels")


@pytest.mark.parametrize(
    "section, key, value, reason",
    [
        ("config", "C", "0xzz", "invalid hexadecimal floating-point string"),
        ("config", "C", "0x1p+99999", "hexadecimal value too large to represent as a float"),
        ("config", "seed", "x", r"invalid literal for int\(\) with base 10: 'x'"),
        ("config", "converged", "yes", r"invalid literal for int\(\) with base 10: 'yes'"),
        ("kernels", "spec", "linear:norm=1:w=2", "unknown field 'w' in kernel label 'linear:norm=1:w=2'"),
        ("theta", "p", "0x1.0p+1 0x1.0p+1", "invalid hexadecimal floating-point string"),
        ("lambda", "values", "0x1.0p+1 two", "invalid hexadecimal floating-point string"),
        ("trace", "values", "nope", "invalid hexadecimal floating-point string"),
        ("task synth1", "bias", "?", "invalid hexadecimal floating-point string"),
        ("task synth0", "alpha", "0x1.0p+0 zz", "invalid hexadecimal floating-point string"),
    ],
    ids=["config-hex", "config-overflow", "config-int", "converged", "kernel-label", "copy-scalar", "lambda-vector",
         "trace-vector", "task-scalar", "task-vector"],
)
def test_load_names_the_file_section_key_and_value_that_does_not_decode(tmp_path, section, key, value, reason):
    _, tasks, path = saved_model(tmp_path)
    rewrite(path, section, key, value)
    assert re.fullmatch(rf"{re.escape(f'{path}: [{section}] {key} = {value}: ')}{reason}", load_error(path, tasks))


@pytest.mark.parametrize("conv", ["gamma", "sigma_sq"])
def test_load_names_the_file_and_label_of_a_gaussian_in_a_removed_convention(tmp_path, conv):
    # only the Python API could write these; a gaussian's spread is its sigma, so labels carry conv=sigma
    _, tasks, path = saved_model(tmp_path)
    label = "gauss:s=0.125:conv=sigma:norm=0"
    old = label.replace("conv=sigma", f"conv={conv}")
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace(f"spec = {label}\n", f"spec = {old}\n"), encoding="utf-8")
    assert load_error(path, tasks) == (
        f"{path}: [kernels] spec = {old}: kernel label {old!r} is not canonical: its spec writes {label!r}"
    )


def test_load_names_the_file_and_config_section_when_the_config_is_rejected(tmp_path):
    _, tasks, path = saved_model(tmp_path)
    rewrite(path, "config", "mode", "conik")
    assert load_error(path, tasks).startswith(f"{path}: [config]: unknown mode 'conik'; expected one of ")
    rewrite(path, "config", "mode", "conic")
    rewrite(path, "config", "C", float(-1.0).hex())
    assert load_error(path, tasks) == f"{path}: [config]: C must be positive and finite, got -1.0"


def test_fit_requires_one_kernel_spec_per_stack_kernel():
    tasks = make_tasks(T=2, N=10, seed=25)
    stacks = make_stacks(tasks, SPECS)
    with pytest.raises(ValueError, match="10 kernel specs for gram stacks of 11 kernels"):
        fit(tasks, stacks, TrainConfig(mode="average"), SPECS[:-1])
    with pytest.raises(TypeError):
        fit(tasks, stacks, TrainConfig(mode="average"))


def test_fit_and_empirical_loss_reject_a_stack_of_another_task():
    tasks = make_tasks(T=2, N=10, seed=27)
    stacks = make_stacks(tasks, SPECS)
    model = fit(tasks, stacks, TrainConfig(mode="average"), SPECS)
    with pytest.raises(ValueError, match=re.escape("stack of task 'synth1' has 10 samples for task 'synth0'")):
        fit(tasks, stacks[::-1], TrainConfig(mode="average"), SPECS)
    with pytest.raises(ValueError, match=re.escape("stack of task 'synth0' has 9 samples for task 'synth0'")):
        fit(tasks, make_stacks([tasks[0].subset(np.arange(9))], SPECS) + stacks[1:], TrainConfig(mode="average"), SPECS)
    with pytest.raises(ValueError, match=re.escape("stack of task 'synth1' has shape (11, 10, 10) for task 'synth0'")):
        weighted_empirical_loss(model, 1.0, stacks[::-1])
    # two tasks of one id would leave the model's lookups by id (task_index) to the first
    twins = [TaskDataset("twin", task.X, task.y) for task in tasks]
    with pytest.raises(ValueError, match=re.escape("task ids must be unique, got ['twin', 'twin']")):
        fit(twins, make_stacks(twins, SPECS), TrainConfig(mode="average"), SPECS)


def test_fit_rejects_non_finite_pareto_weights(monkeypatch):
    tasks = make_tasks(T=2, N=10, seed=26)
    monkeypatch.setattr(training, "pareto_lambda", lambda f, p_exp: np.full(f.shape, np.inf))
    with pytest.raises(ValueError, match=r"task weights must be finite, got \[inf inf\]"):
        fit(tasks, make_stacks(tasks, SPECS), TrainConfig(mode="pareto", max_outer_iters=1), SPECS)


# ------------------------------------------------------------- rejections

def test_config_names_a_zero_outer_iteration_cap():
    with pytest.raises(ValueError) as err:
        TrainConfig(max_outer_iters=0)
    assert str(err.value) == "max_outer_iters must be positive, got 0"


def test_fit_rejects_no_tasks_unaligned_stacks_and_mixed_kernel_counts():
    tasks = make_tasks(T=2, N=8, seed=5)
    stacks = make_stacks(tasks, SPECS)
    cases = [
        (([], []), "no tasks to train"),
        ((tasks, stacks[:1]), "2 tasks and 1 gram stacks must align"),
        ((tasks, [stacks[0], build_gram_stack(tasks[1].task_id, tasks[1].X, SPECS[:3])]),
         f"task {tasks[1].task_id!r} has 3 kernels, not the first task's {len(SPECS)}"),
    ]
    for (fit_tasks, fit_stacks), message in cases:
        with pytest.raises(ValueError) as err:
            fit(fit_tasks, fit_stacks, TrainConfig(mode="average"), SPECS)
        assert str(err.value) == message


def test_an_overflowing_polynomial_gram_fails_in_its_stack_build_naming_task_and_kernel(monkeypatch):
    tasks = [TaskDataset(t.task_id, t.X * 1e80, t.y) for t in make_tasks(T=2, N=8, seed=5)]
    specs = [KernelSpec(kind="linear"), KernelSpec(kind="polynomial", degree=3)]

    def never(*args, **kwargs):
        raise AssertionError("ran past the Gram build")

    monkeypatch.setattr(GramStack, "trace_norm", never)
    monkeypatch.setattr(training, "solve_svm_dual", never)
    with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(ValueError) as err:
        fit(tasks, make_stacks(tasks, specs), TrainConfig(mode="conic"), specs)
    assert str(err.value) == f"task {tasks[0].task_id!r} kernel 1 has a non-finite Gram entry"


@pytest.mark.parametrize("text", ["", "not a model\n", "[config]\nmode = conic\n"])
def test_load_names_a_file_that_is_not_a_model_document(tmp_path, text):
    path = tmp_path / "other.txt"
    path.write_text(text, encoding="utf-8")
    assert load_error(path, make_tasks(T=1, N=8)) == f"{path}: not a model document"


def test_fit_stores_each_task_component_norms_at_the_final_theta(tmp_path):
    model, tasks, path = saved_model(tmp_path)
    stacks = make_stacks(tasks, SPECS)
    assert model.component_sq_norms.shape == (len(tasks), len(SPECS))
    for comp, dual, task, stack in zip(model.component_sq_norms, model.duals, tasks, stacks):
        assert comp.tobytes() == component_sq_norms(dual.alpha, task.y, stack, model.theta).tobytes()
    assert load_model(path, tasks).component_sq_norms.tobytes() == model.component_sq_norms.tobytes()
