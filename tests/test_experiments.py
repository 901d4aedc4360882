import re

import numpy as np
import pytest
import scipy.stats

from conicmtl import experiments, kernels, training
from conicmtl.experiments import (
    RESULT_HEADER,
    ExperimentConfig,
    budget_from_fraction,
    cross_validate,
    read_results_csv,
    regularized_incomplete_beta,
    resolve_dataset,
    run_experiment,
    student_t_two_sided_p,
    summarize_results,
    welch_t_test,
    write_results_csv,
)
from conicmtl.data import Scaler, TaskDataset, prepare_run, save_task_directory, synth_multitask, write_sparse_text
from conicmtl.kernels import build_gram_stack, default_kernel_dictionary
from conicmtl.training import predict
from conicmtl.util import derive_seed


# ------------------------------------------------------------ welch t-test

def test_welch_identical_samples():
    assert welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == (0.0, 1.0)


def test_welch_zero_variance_separated():
    t, p = welch_t_test(np.zeros(20), np.ones(20))
    assert p < 1e-10


def test_welch_hand_example_against_reference():
    t, p = welch_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    assert t == pytest.approx(-1.0, abs=1e-12)
    assert p == pytest.approx(0.3466, abs=5e-4)
    ref = scipy.stats.ttest_ind([1, 2, 3, 4, 5], [2, 3, 4, 5, 6], equal_var=False)
    assert p == pytest.approx(float(ref.pvalue), rel=1e-10)


def test_welch_random_instances_match_scipy():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), size=int(rng.integers(2, 40)))
        b = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), size=int(rng.integers(2, 40)))
        t, p = welch_t_test(a, b)
        ref = scipy.stats.ttest_ind(a, b, equal_var=False)
        assert t == pytest.approx(float(ref.statistic), rel=1e-12)
        assert p == pytest.approx(float(ref.pvalue), rel=1e-9, abs=1e-300)


def test_welch_needs_two_values():
    with pytest.raises(ValueError):
        welch_t_test([1.0], [1.0, 2.0])


def test_paired_t_matches_scipy():
    from conicmtl.experiments import paired_t_test

    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        a = rng.normal(0, 1, n)
        b = a + rng.normal(0.2, 0.5, n)
        t, p = paired_t_test(a, b)
        ref = scipy.stats.ttest_rel(a, b)
        assert t == pytest.approx(float(ref.statistic), rel=1e-12)
        assert p == pytest.approx(float(ref.pvalue), rel=1e-9, abs=1e-300)
    assert paired_t_test([1.0, 2.0], [1.0, 2.0]) == (0.0, 1.0)
    with pytest.raises(ValueError, match="equally long"):
        paired_t_test([1.0, 2.0], [1.0, 2.0, 3.0])


def test_incomplete_beta_against_scipy():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a = float(rng.uniform(0.2, 30))
        b = float(rng.uniform(0.2, 30))
        x = float(rng.uniform(0, 1))
        ours = regularized_incomplete_beta(a, b, x)
        ref = float(scipy.stats.beta.cdf(x, a, b))
        assert ours == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_student_t_tail_against_scipy():
    rng = np.random.default_rng(2)
    for _ in range(100):
        t = float(rng.uniform(-8, 8))
        df = float(rng.uniform(1, 60))
        ours = student_t_two_sided_p(t, df)
        ref = 2.0 * float(scipy.stats.t.sf(abs(t), df))
        assert ours == pytest.approx(ref, rel=1e-9, abs=1e-14)


# --------------------------------------------------------- cross-validation

def small_config(**kwargs):
    defaults = dict(
        dataset="sample:mtl",
        fractions=(0.5,),
        methods=("Conic", "Average"),
        runs=1,
        cv_folds=3,
        grid_C=(1.0,),
        grid_p=(2.0,),
        grid_a_frac=(0.5,),
        grid_p_exp=(0.5,),
        master_seed=0,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def prepared_tasks(T=2, N=18, seed=0):
    data = synth_multitask(T=T, N=N, d=4, task_similarity=0.8, noise=0.5, seed=seed)
    scaler = Scaler().fit(np.vstack([t.X for t in data]))
    tasks = [TaskDataset(t.task_id, scaler.transform(t.X), t.y) for t in data]
    specs = default_kernel_dictionary()
    stacks = [build_gram_stack(t.task_id, t.X, specs) for t in tasks]
    return tasks, stacks, specs


@pytest.mark.parametrize(
    "grid, value",
    [("grid_C", 0.0), ("grid_C", -1.0), ("grid_p", 0.5), ("grid_a_frac", 0.0),
     ("grid_p_exp", 0.0), ("grid_p_exp", 1.5)],
)
def test_config_rejects_grid_values_outside_their_range(grid, value):
    with pytest.raises(ValueError, match=rf"{grid} value {value!r} must be"):
        small_config(**{grid: (1.0, value)})


@pytest.mark.parametrize("folds", [1, 0, -2])
def test_config_rejects_fewer_than_two_folds(folds):
    with pytest.raises(ValueError, match=rf"cv_folds value {folds!r} must be >= 2"):
        small_config(cv_folds=folds, grid_C=(0.5, 1.0))


def test_experiment_rejects_fraction_without_test_samples():
    with pytest.raises(ValueError, match="fraction 0.99 leaves no test samples for task 'synth0'"):
        run_experiment(small_config(fractions=(0.99,), methods=("Average",)))


def test_config_accepts_grid_edges():
    cfg = small_config(grid_p=(1.0,), grid_a_frac=(1.0 / 8.0, 2.0), grid_p_exp=(1.0,), r_max=8.0)
    assert cfg.grid_p_exp == (1.0,)


@pytest.mark.parametrize("r_max", [1.0, 0.5, float("inf"), float("nan")])
def test_config_rejects_r_max_outside_open_interval(r_max):
    with pytest.raises(ValueError, match=rf"r_max value {r_max!r} must be in \(1, inf\)"):
        small_config(r_max=r_max)


def test_config_rejects_conic_budget_fraction_below_inverse_r_max():
    with pytest.raises(ValueError, match=r"grid_a_frac value 0.1 must be >= 1/r_max = 0.125 for Conic"):
        small_config(grid_a_frac=(0.1, 0.5), r_max=8.0)
    # only Conic searches the budget axis
    assert small_config(methods=("Average",), grid_a_frac=(0.1,)).grid_a_frac == (0.1,)


@pytest.mark.parametrize("name", ["methods", "fractions"])
def test_config_rejects_empty_methods_and_fractions(name):
    with pytest.raises(ValueError, match=f"{name} must not be empty"):
        small_config(**{name: ()})


ALL_METHODS_CSV = (
    "dataset,fraction,method,seed,mean_accuracy,C,p,a,p_exp,wall_ms,converged\n"
    "synth:T=3;N=30;d=5;sim=0.3;noise=1.0;seed=2,0.5,Conic,0,0.8333333333333334,2.0,2.0,79.5989949685296,,0,1\n"
    "synth:T=3;N=30;d=5;sim=0.3;noise=1.0;seed=2,0.5,Average,0,0.8333333333333334,2.0,2.0,,,0,1\n"
    "synth:T=3;N=30;d=5;sim=0.3;noise=1.0;seed=2,0.5,ParetoPath,0,0.8333333333333334,2.0,2.0,,0.5,0,1\n"
    "synth:T=3;N=30;d=5;sim=0.3;noise=1.0;seed=2,0.5,SingleTask,0,{single}\n"
)


@pytest.mark.parametrize(
    "use_bias, single",
    [(False, "0.8333333333333334,0.5,2.0,,,0,1"), (True, "0.8571428571428572,2.0,2.0,,,0,1")],
)
def test_run_experiment_csv_pinned_for_all_four_methods(use_bias, single):
    cfg = small_config(
        dataset="synth:T=3,N=30,d=5,sim=0.3,noise=1.0,seed=2",
        methods=("Conic", "Average", "ParetoPath", "SingleTask"),
        grid_C=(0.5, 2.0),
        grid_a_frac=(0.5, 1.0),
        grid_p_exp=(0.5, 1.0),
        use_bias=use_bias,
    )
    assert run_experiment(cfg).to_csv_text() == ALL_METHODS_CSV.format(single=single)


def test_cv_single_cell_short_circuits():
    tasks, stacks, specs = prepared_tasks()
    cfg = small_config()
    cell = cross_validate(tasks, stacks, "Average", cfg, seed=1, specs=specs)
    assert cell == (1.0, 2.0, None, None)


def test_cv_tie_breaks_toward_smaller_c_then_p():
    tasks, stacks, specs = prepared_tasks(N=12, seed=3)
    # single kernel dictionary makes p irrelevant, accuracy ties across p
    spec = specs[:1]
    stacks1 = [build_gram_stack(t.task_id, t.X, spec) for t in tasks]
    cfg = small_config(grid_C=(1.0,), grid_p=(1.0, 2.0), cv_folds=2)
    cell = cross_validate(tasks, stacks1, "Average", cfg, seed=2, specs=spec)
    assert cell[1] == 1.0


@pytest.mark.parametrize("dataset", ["sample:mtl", "synth:T=10"])
def test_average_cv_chain_is_the_conic_budget_one_chain_bit_for_bit(monkeypatch, dataset):
    # a slack budget keeps lambda at 1, so a Conic a = 1 fit is an Average fit,
    # warm starts included: same theta, lambda, alphas and trace on every fold and C
    _, data = resolve_dataset(dataset)
    tasks, _, _ = prepare_run(data, 0.5, 11, balanced=True)
    specs = default_kernel_dictionary()
    stacks = [build_gram_stack(t.task_id, t.X, specs) for t in tasks]
    fits = []
    original = experiments.fit

    def recording(tasks, stacks, config, kernel_specs, init=None):
        model = original(tasks, stacks, config, kernel_specs, init)
        fits.append((config, stacks, init is not None, model))
        return model

    monkeypatch.setattr(experiments, "fit", recording)
    cfg = small_config(dataset=dataset, grid_C=(0.25, 1.0, 4.0), grid_a_frac=(0.5, 1.0))
    for method in ("Conic", "Average"):
        cross_validate(tasks, stacks, method, cfg, seed=5, specs=specs)
    chains = {
        mode: [(warm, model) for config, sub_stacks, warm, model in fits if config.mode == mode and (
            mode == "average" or config.budget == budget_from_fraction(sub_stacks, config.p, 1.0))]
        for mode in ("conic", "average")
    }
    assert len(chains["conic"]) == len(chains["average"]) == 9  # 3 C values by 3 folds
    for (warm_c, conic), (warm_a, average) in zip(chains["conic"], chains["average"]):
        assert warm_c == warm_a and conic.config.C == average.config.C
        assert conic.objective_trace == average.objective_trace
        assert conic.theta.tobytes() == average.theta.tobytes()
        assert conic.task_weights.tobytes() == average.task_weights.tobytes()
        for dc, da in zip(conic.duals, average.duals, strict=True):
            assert dc.alpha.tobytes() == da.alpha.tobytes()
    assert sum(warm for warm, _ in chains["average"]) == 6  # every fit above the smallest C is warm


@pytest.mark.parametrize("use_bias", [False, True])
@pytest.mark.parametrize("dataset", ["synth:T=2,N=30,d=5,sim=0.3,noise=1.0,seed=2", "synth:T=8,N=16,d=4,noise=0.8,seed=4"])
def test_cv_fold_scores_equal_the_scores_predicted_from_the_held_out_features(monkeypatch, dataset, use_bias):
    # the reference scores each held-out part as cross-validation once did: a held-out
    # TaskDataset predicted through training.predict, which evaluates the kernels afresh
    _, data = resolve_dataset(dataset)
    tasks, _, _ = prepare_run(data, 0.5, 7, balanced=True)
    specs = default_kernel_dictionary()
    stacks = [build_gram_stack(t.task_id, t.X, specs) for t in tasks]
    cfg = small_config(grid_C=(0.5, 2.0), grid_a_frac=(0.5, 1.0), grid_p_exp=(0.5, 1.0), use_bias=use_bias)
    scored = []  # (models, parts, values, fold score) per scored fold, in scoring order
    original = experiments._mean_accuracy

    def recording(models, parts, values):
        score = original(models, parts, values)
        scored.append((models, parts, values, score))
        return score

    monkeypatch.setattr(experiments, "_mean_accuracy", recording)
    assignments = [experiments._fold_assignments(t, 3, derive_seed(5, "folds", t.task_id)) for t in tasks]
    for method in ("Conic", "Average", "ParetoPath", "SingleTask"):
        scored.clear()
        cross_validate(tasks, stacks, method, cfg, seed=5, specs=specs)
        assert len(scored) == 3 * len(list(experiments._grid_cells(method, cfg)))  # every cell, fold by fold
        for i, (models, parts, values, score) in enumerate(scored):
            held = [task.subset(np.flatnonzero(assign == i % 3)) for task, assign in zip(tasks, assignments)]
            pairs = [(model, task.task_id) for model in models for task in model.tasks]
            accs = []
            for (model, task_id), part, (inputs, _) in zip(pairs, held, parts, strict=True):
                labels, expected = predict(model, task_id, part.X)
                np.testing.assert_allclose(values(model, task_id, inputs), expected, rtol=0.0, atol=1e-12)
                accs.append(float((labels == part.y).mean()))
            assert score == float(np.mean(accs)), (method, i)
        assert any(score < 1.0 for *_, score in scored)  # the folds are not all trivially separable


def test_cv_evaluates_no_kernel_and_no_decision_values(monkeypatch):
    tasks, stacks, specs = prepared_tasks(N=24, seed=5)
    cfg = small_config(grid_C=(0.5, 2.0), grid_a_frac=(0.5, 1.0))
    expected = cross_validate(tasks, stacks, "Conic", cfg, seed=1, specs=specs)

    def never(*args, **kwargs):
        raise AssertionError("cross-validation evaluated kernels to score a fold")

    for module in (training, kernels):
        monkeypatch.setattr(module, "expand", never)
    monkeypatch.setattr(training, "decision_values", never)
    monkeypatch.setattr(experiments, "decision_values", never, raising=False)
    assert cross_validate(tasks, stacks, "Conic", cfg, seed=1, specs=specs) == expected


def test_cv_rejects_degenerate_folds():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((7, 3))
    y = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0])
    task = TaskDataset("t", X, y)
    specs = default_kernel_dictionary()
    stacks = [build_gram_stack("t", X, specs)]
    cfg = small_config(cv_folds=3, grid_C=(0.5, 1.0))
    with pytest.raises(ValueError, match="fold degeneracy"):
        cross_validate([task], stacks, "Average", cfg, seed=0, specs=specs)


# ------------------------------------------------------------- experiments

def test_experiment_header_schema_and_determinism(tmp_path):
    cfg = small_config(runs=2, methods=("Conic", "Average"), grid_C=(0.5, 2.0))
    table = run_experiment(cfg)
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    write_results_csv(table, path_a)
    write_results_csv(run_experiment(cfg), path_b)
    text = path_a.read_text()
    assert text.splitlines()[0] == RESULT_HEADER
    assert path_a.read_bytes() == path_b.read_bytes()
    rows = read_results_csv(path_a)
    assert len(rows) == 4  # one per (method, run)
    assert all(0.0 <= float(r["mean_accuracy"]) <= 1.0 for r in rows)


def test_experiment_separable_synthetic_reaches_full_accuracy(tmp_path):
    cfg = small_config(
        dataset="synth:T=2,N=40,d=4,sim=0.9,noise=0.05,seed=5",
        methods=("Average",),
        runs=1,
        cv_folds=2,
    )
    table = run_experiment(cfg)
    assert table.rows[0].mean_accuracy == 1.0
    # generator labels must not smuggle commas into the csv
    write_results_csv(table, tmp_path / "synth.csv")
    rows = read_results_csv(tmp_path / "synth.csv")
    assert rows[0]["dataset"] == "synth:T=2;N=40;d=4;sim=0.9;noise=0.05;seed=5"
    assert rows[0]["mean_accuracy"] == "1.0"


def test_experiment_row_records_failure_without_aborting(monkeypatch, tmp_path):
    import conicmtl.experiments as exp

    calls = {"n": 0}
    original = exp.cross_validate

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("injected")
        return original(*args, **kwargs)

    monkeypatch.setattr(exp, "cross_validate", flaky)
    table = exp.run_experiment(small_config(runs=1, methods=("Conic", "Average")))
    assert table.rows[0].converged == "error:RuntimeError"
    assert table.rows[0].mean_accuracy is None
    assert table.rows[1].mean_accuracy is not None
    write_results_csv(table, tmp_path / "with_error.csv")
    rows = read_results_csv(tmp_path / "with_error.csv")
    assert rows[0]["mean_accuracy"] == ""


def test_resolve_dataset_variants(tmp_path):
    label, ds = resolve_dataset("synth:T=3,N=10,d=4,seed=1")
    assert len(ds) == 3
    label, ds = resolve_dataset("sample:multiclass")
    assert len(ds) == 3  # three one-vs-one tasks
    label, ds = resolve_dataset("sample:mtl")
    assert len(ds) == 2
    directory = tmp_path / "tasks"
    save_task_directory(ds, directory)
    label, ds = resolve_dataset(str(directory))
    assert label == "tasks" and [t.task_id for t in ds] == ["synth0", "synth1"]
    X = np.arange(12.0).reshape(6, 2) + 1.0
    write_sparse_text(tmp_path / "binary.txt", X, [3, 7, 7, 3, 7, 3])
    label, ds = resolve_dataset(str(tmp_path / "binary.txt"))  # the larger label is +1
    assert label == "binary" and [t.task_id for t in ds] == ["binary"]
    assert ds[0].y.tolist() == [-1.0, 1.0, 1.0, -1.0, 1.0, -1.0] and np.array_equal(ds[0].X, X)
    write_sparse_text(tmp_path / "multi.txt", X, [1, 2, 3, 1, 2, 3])
    label, ds = resolve_dataset(str(tmp_path / "multi.txt"))  # one-vs-one, the lower class +1
    assert label == "multi" and [t.task_id for t in ds] == ["1_vs_2", "1_vs_3", "2_vs_3"]
    assert ds[0].y.tolist() == [1.0, -1.0, 1.0, -1.0]
    write_sparse_text(tmp_path / "one.txt", X, [3] * 6)
    with pytest.raises(ValueError, match=re.escape("need at least two classes, got [3.0]")):
        resolve_dataset(str(tmp_path / "one.txt"))
    with pytest.raises(FileNotFoundError):
        resolve_dataset(str(tmp_path / "missing.txt"))
    for spec, token in (("synth:t=2,N=20", "t=2"), ("synth:T=2,sed=5", "sed=5"), ("synth:T", "T")):
        with pytest.raises(ValueError, match=f"bad synth token '{token}'"):
            resolve_dataset(spec)


@pytest.mark.parametrize(
    "spec, message",
    [
        ("synth:T=x", "synth T='x' is not an integer"),
        ("synth:N=2.5", "synth N='2.5' is not an integer"),
        ("synth:sim=high", "synth sim='high' is not a number"),
        ("synth:T=0", "synth T=0 must be at least 1"),
        ("synth:N=1", "synth N=1 must be at least 2"),
        ("synth:d=0", "synth d=0 must be at least 1"),
        ("synth:seed=-1", "synth seed=-1 must be at least 0"),
    ],
    ids=["T-text", "N-fraction", "sim-text", "T-zero", "N-one", "d-zero", "seed-negative"],
)
def test_resolve_dataset_names_a_bad_synth_value(spec, message):
    with pytest.raises(ValueError) as err:
        resolve_dataset(spec)
    assert str(err.value) == message


# ------------------------------------------------------------------ report

def test_summary_stars_reproducible_from_csv(tmp_path):
    rng = np.random.default_rng(6)
    rows = []
    for seed in range(10):
        rows.append(
            dict(
                dataset="demo", fraction="0.5", method="Conic", seed=str(seed),
                mean_accuracy=str(0.9 + 0.01 * rng.standard_normal()),
            )
        )
        rows.append(
            dict(
                dataset="demo", fraction="0.5", method="Average", seed=str(seed),
                mean_accuracy=str(0.8 + 0.01 * rng.standard_normal()),
            )
        )
    text = summarize_results(rows, alpha=0.05, reference="Conic")
    assert "Average" in text and "*" in text
    again = summarize_results(rows, alpha=0.05, reference="Conic")
    assert text == again


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -0.5, float("nan")])
def test_summary_rejects_alpha_outside_the_open_unit_interval(alpha):
    with pytest.raises(ValueError, match=rf"alpha must lie in \(0, 1\), got {alpha!r}"):
        summarize_results([], alpha=alpha)


def accuracy_rows(accuracies, lost=()):
    """Result rows of runs 0, 1, ... per method; a (method, seed) in lost has an empty accuracy, as a failed run."""
    return [
        dict(dataset="demo", fraction="0.5", method=method, seed=str(seed),
             mean_accuracy="" if (method, seed) in lost else repr(acc))
        for method, accs in accuracies.items() for seed, acc in enumerate(accs)
    ]


def printed_row(text, method):
    return next(line.split() for line in text.splitlines() if line.split()[:1] == [method])


def test_summary_paired_pairs_runs_by_seed_when_methods_lost_different_runs():
    conic, average = [0.81, 0.74, 0.90, 0.68, 0.77], [0.78, 0.73, 0.85, 0.66, 0.76]
    rows = accuracy_rows({"Conic": conic, "Average": average}, lost={("Conic", 0), ("Average", 1)})
    expected = scipy.stats.ttest_rel(conic[2:], average[2:]).pvalue  # seeds 2, 3 and 4 are common
    _, _, _, runs, p_text = printed_row(summarize_results(rows, paired=True), "Average")
    assert (runs, p_text) == ("4", f"{expected:.4f}") == ("4", "0.1567")
    # one common seed pairs nothing; the paired test never falls back to the two-sample one
    rows = accuracy_rows({"Conic": conic, "Average": average}, lost={("Conic", 0), ("Conic", 1), ("Conic", 2), ("Average", 3)})
    assert printed_row(summarize_results(rows, paired=True), "Average")[4] == "-"
    assert printed_row(summarize_results(rows), "Average")[4] == f"{scipy.stats.ttest_ind(conic[3:], average[:3] + average[4:], equal_var=False).pvalue:.4f}"


SUMMARY_PINS = {  # summarize_results of the rows below before the paired test paired runs by seed
    False: (
        "dataset=demo fraction=0.3\n  method           mean      std  runs   p_vs_Conic\n"
        "  Average        0.8210   0.0189     5       0.0029 *\n  Conic          0.8665   0.0118     5            -  <best\n"
        "  ParetoPath     0.8312   0.0194     5       0.0114 *\n\n"
        "dataset=demo fraction=0.5\n  method           mean      std  runs   p_vs_Conic\n"
        "  Average        0.8264   0.0101     5       0.0008 *\n  Conic          0.8667   0.0132     5            -  <best\n"
        "  ParetoPath     0.8302   0.0170     5       0.0061 *\n\n"
    ),
    True: (
        "dataset=demo fraction=0.3\n  method           mean      std  runs   p_vs_Conic\n"
        "  Average        0.8210   0.0189     5       0.0010 *\n  Conic          0.8665   0.0118     5            -  <best\n"
        "  ParetoPath     0.8312   0.0194     5       0.0327 *\n\n"
        "dataset=demo fraction=0.5\n  method           mean      std  runs   p_vs_Conic\n"
        "  Average        0.8264   0.0101     5       0.0012 *\n  Conic          0.8667   0.0132     5            -  <best\n"
        "  ParetoPath     0.8302   0.0170     5       0.0342 *\n\n"
    ),
}


@pytest.mark.parametrize("paired", [False, True])
def test_summary_of_runs_with_no_lost_run_is_pinned(paired):
    rng = np.random.default_rng(12)
    rows = [
        dict(dataset="demo", fraction=fraction, method=method, seed=str(seed),
             mean_accuracy=repr(round(centre + 0.02 * rng.standard_normal(), 4)))
        for fraction in ("0.3", "0.5")
        for method, centre in (("Conic", 0.85), ("Average", 0.83), ("ParetoPath", 0.84))
        for seed in (3, 0, 2, 1, 4)
    ]
    assert summarize_results(rows, paired=paired) == SUMMARY_PINS[paired]


def test_summary_from_real_run(tmp_path):
    cfg = small_config(runs=2)
    table = run_experiment(cfg)
    write_results_csv(table, tmp_path / "r.csv")
    text = summarize_results(read_results_csv(tmp_path / "r.csv"))
    assert "dataset=sample:mtl" in text
    assert "Conic" in text
