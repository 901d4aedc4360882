from dataclasses import replace

import numpy as np
import pytest

from conicmtl import training
from conicmtl.data import Scaler, TaskDataset, synth_multitask
from conicmtl.kernels import GramStack, KernelSpec, build_gram_stack, default_kernel_dictionary
from conicmtl.solvers import solve_svm_dual
from conicmtl.training import (
    TrainConfig,
    fit,
    fit_single_task,
    load_model,
    pareto_lambda,
    predict,
    save_model,
    weighted_empirical_loss,
)
from conicmtl.util import conjugate_exponent


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
    assert model.theta.values == pytest.approx([1.0])


def test_conic_with_slack_budget_is_bit_identical_to_average():
    tasks = make_tasks(T=3, N=18, seed=2)
    stacks = make_stacks(tasks, SPECS)
    budget = total_cost(stacks, 2.0)  # usage at all-ones weights
    conic = fit(tasks, stacks, TrainConfig(C=1.0, p=2.0, budget=budget, r_max=8.0, mode="conic"), SPECS)
    avg = fit(tasks, stacks, TrainConfig(C=1.0, p=2.0, budget=budget, r_max=8.0, mode="average"), SPECS)
    assert conic.objective_trace == avg.objective_trace
    assert np.array_equal(conic.theta.values, avg.theta.values)
    assert np.array_equal(conic.task_weights.values, avg.task_weights.values)
    for dc, da in zip(conic.duals, avg.duals):
        assert dc.alpha.tobytes() == da.alpha.tobytes()


def test_conic_trace_monotone_and_budget_tight():
    tasks = make_tasks(T=3, N=20, seed=3)
    stacks = make_stacks(tasks, SPECS)
    costs = np.array([s.trace_norm(2.0) for s in stacks])
    cfg = TrainConfig(C=1.0, p=2.0, budget=0.5 * costs.sum(), r_max=8.0, mode="conic")
    model = fit(tasks, stacks, cfg, kernel_specs=SPECS)
    assert trace_is_monotone(model.objective_trace)
    used = float((costs / model.task_weights.values).sum())
    at_lower_box = np.all(model.task_weights.values == 1.0)
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
    assert a.theta.values.tobytes() == b.theta.values.tobytes()
    assert a.task_weights.values.tobytes() == b.task_weights.values.tobytes()


def test_infeasible_budget_pair_raises():
    tasks = make_tasks(T=2, N=10, seed=6)
    stacks = make_stacks(tasks, SPECS)
    with pytest.raises(ValueError, match="infeasible"):
        fit(tasks, stacks, TrainConfig(C=1.0, p=2.0, budget=0.5, r_max=2.0, mode="conic"), SPECS)


def test_degenerate_task_raises():
    tasks = make_tasks(T=1, N=10, seed=7)
    bad = TaskDataset("one_class", tasks[0].X, np.ones(10))
    stacks = make_stacks([bad], SPECS)
    with pytest.raises(ValueError, match="degenerate"):
        fit([bad], stacks, TrainConfig(mode="average"), SPECS)


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


# ---------------------------------------------------------- pareto weights

def test_pareto_lambda_examples():
    assert np.array_equal(pareto_lambda(np.array([0.3, 7.0, 2.0]), 1.0), np.ones(3))
    assert pareto_lambda(np.array([1.0, 1.0]), 0.5) == pytest.approx([2.0, 2.0])
    assert pareto_lambda(np.array([1.0, 2.0]), 2.0) == pytest.approx([0.2, 0.4])


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
    assert np.all(model.task_weights.values > 1.0)


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
    scaled = model.theta.values * kappa
    object.__setattr__(model.theta, "values", scaled)
    labels2, values2 = predict(model, tasks[0].task_id, tasks[0].X)
    assert values2 == pytest.approx(kappa * values, rel=1e-12)
    assert np.array_equal(labels, labels2)


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
    model = fit([task], make_stacks([task], spec), TrainConfig(C=10.0, mode="average"), spec)
    assert weighted_empirical_loss(model, rho=1.0) == pytest.approx(0.0, abs=1e-6)


def test_weighted_empirical_loss_all_zero_decisions_gives_one():
    tasks = make_tasks(T=2, N=10, seed=14)
    stacks = make_stacks(tasks, SPECS)
    model = fit(tasks, stacks, TrainConfig(C=1e-12, mode="average", max_outer_iters=1), SPECS)
    assert weighted_empirical_loss(model, rho=1.0) == pytest.approx(1.0, abs=1e-6)


# -------------------------------------------------------------- single task

def test_single_task_equals_average_with_one_task():
    tasks = make_tasks(T=1, N=16, seed=15)
    stacks = make_stacks(tasks, SPECS)
    cfg = TrainConfig(C=1.0, p=2.0, mode="conic", budget=1e9, r_max=8.0)
    st = fit_single_task(tasks[0], stacks[0], cfg, kernel_specs=SPECS)
    avg = fit(tasks, stacks, TrainConfig(C=1.0, p=2.0, mode="average"), SPECS)
    assert st.objective_trace == avg.objective_trace
    assert np.array_equal(st.theta.values, avg.theta.values)


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
        compute_gram(spec, informative, informative),
        compute_gram(spec, noise_only, noise_only),
    ])
    stack = GramStack(task_id="t", grams=grams)
    solves, starts = [], []

    def recording_solve(*args, **kwargs):
        starts.append(kwargs.get("alpha0"))
        solves.append(solve_svm_dual(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(training, "solve_svm_dual", recording_solve)
    model = fit_single_task(task, stack, TrainConfig(C=1.0, p=2.0), kernel_specs=[spec, spec])
    assert model.theta.values[0] > model.theta.values[1]
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


def test_pareto_model_roundtrips_despite_out_of_box_weights(tmp_path):
    tasks = make_tasks(T=3, N=12, seed=19)
    stacks = make_stacks(tasks, SPECS)
    cfg = TrainConfig(C=1.0, p=2.0, mode="pareto", p_exp=0.3)
    model = fit(tasks, stacks, cfg, kernel_specs=SPECS)
    assert np.any(model.task_weights.values > 1.0)
    path = tmp_path / "pareto.txt"
    save_model(model, path)
    loaded = load_model(path, tasks)
    assert np.array_equal(loaded.task_weights.values, model.task_weights.values)
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
    with pytest.raises(ValueError, match="hash mismatch"):
        load_model(path, [tampered])
    with pytest.raises(ValueError, match="not supplied"):
        load_model(path, [TaskDataset("other", tasks[0].X, tasks[0].y)])
