import numpy as np
import pytest
import scipy.stats

from conicmtl.experiments import (
    RESULT_HEADER,
    ExperimentConfig,
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
from conicmtl.data import Scaler, TaskDataset, synth_multitask
from conicmtl.kernels import build_gram_stack, default_kernel_dictionary


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


def test_summary_from_real_run(tmp_path):
    cfg = small_config(runs=2)
    table = run_experiment(cfg)
    write_results_csv(table, tmp_path / "r.csv")
    text = summarize_results(read_results_csv(tmp_path / "r.csv"))
    assert "dataset=sample:mtl" in text
    assert "Conic" in text
