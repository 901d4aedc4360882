"""End-to-end checks of the `train`, `predict` and `bound` subcommands, of the
defaults the CLI leaves to the library, and of the commands and config keys
the README documents."""

import argparse
import hashlib
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from conicmtl import bounds, cli, experiments, kernels, training, verification
from conicmtl.bounds import bound_report
from conicmtl.cli import EXPERIMENT_KEYS, TRAIN_KEYS, build_parser, main
from conicmtl.data import TaskDataset, load_sparse_text, load_task_directory, sample_mtl_path
from conicmtl.experiments import RESULT_HEADER, ExperimentConfig, ResultTable, read_results_csv, resolve_dataset
from conicmtl.training import TrainConfig, decision_values, load_model


def train(tmp_path, name, *extra):
    model = tmp_path / f"{name}.txt"
    split = tmp_path / f"{name}.train"
    args = ["train", "--data", "sample:mtl", "--seed", "3", "--C", "2", "--p", "1.5"]
    assert main(args + list(extra) + ["--out", str(model), "--split-out", str(split)]) == 0
    return model, split


def error_message(capsys, argv):
    """The message of a command the library rejects: exit 1, one `conicmtl: error:` line, no output."""
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("conicmtl: error: ") and captured.err.count("\n") == 1
    return captured.err[len("conicmtl: error: ") : -1]


def directory_bytes(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def printed_values(text):
    """Decision values from the `label value` lines that predict prints."""
    return np.array([float(line.split()[1]) for line in text.splitlines() if not line.startswith("accuracy")])


@pytest.mark.parametrize(
    "extra",
    [("--fraction", "0.5"), ("--fraction", "0.5", "--no-balance"), ()],
    ids=["split", "no-balance", "whole-tasks"],
)
def test_train_twice_writes_identical_model_and_split_bytes(tmp_path, extra):
    model_a, split_a = train(tmp_path, "a", *extra)
    model_b, split_b = train(tmp_path, "b", *extra)
    assert model_a.read_bytes() == model_b.read_bytes()
    assert directory_bytes(split_a) == directory_bytes(split_b)
    model = load_model(model_a, load_task_directory(split_a))
    assert (model.config.C, model.config.p) == (2.0, 1.5)


@pytest.mark.parametrize(
    "extra, digest",
    [
        ((), "215737a138e9ab4c44d2bd4b646b2a7bcb8a458faf9b5f6f1172b7ba63dfd609"),
        (("--use-bias",), "4e9c35acfc34fd2a1786624d195266096afaa31db1fc991dd03dcbd0bd9bdf56"),
    ],
    ids=["no-bias", "bias"],
)
def test_train_model_document_bytes_are_pinned(tmp_path, extra, digest):
    model = tmp_path / "m.txt"
    argv = ["train", "--data", "sample:mtl", "--fraction", "0.5", "--seed", "3", *extra, "--out", str(model)]
    assert main(argv) == 0
    assert hashlib.sha256(model.read_bytes()).hexdigest() == digest


def test_predict_pre_scaled_prints_the_models_decision_values(tmp_path, capsys):
    model_path, split = train(tmp_path, "m", "--fraction", "0.5")
    capsys.readouterr()
    task_file = split / "task_synth1.txt"
    args = ["predict", "--model", str(model_path), "--train-data", str(split), "--input", str(task_file)]
    assert main(args + ["--task", "synth1", "--pre-scaled"]) == 0
    tasks = load_task_directory(split)
    X, y = load_sparse_text(task_file, n_features=tasks[0].X.shape[1])
    expected = decision_values(load_model(model_path, tasks), "synth1", X)
    labels = np.where(expected >= 0.0, 1.0, -1.0)
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == [f"{int(l)} {float(v)!r}" for l, v in zip(labels, expected)]
    assert lines[-1] == f"accuracy vs file labels: {float((labels == y).mean())!r}"


def test_predict_on_raw_features_applies_the_models_scaler(tmp_path, capsys):
    model_path, split = train(tmp_path, "m", "--fraction", "0.5")
    capsys.readouterr()
    raw_file = sample_mtl_path() / "task_synth0.txt"
    args = ["predict", "--model", str(model_path), "--train-data", str(split), "--input", str(raw_file)]
    assert main(args + ["--task", "synth0"]) == 0
    tasks = load_task_directory(split)
    model = load_model(model_path, tasks)
    X, _ = load_sparse_text(raw_file, n_features=tasks[0].X.shape[1])
    expected = decision_values(model, "synth0", model.scaler.transform(X))
    np.testing.assert_array_equal(printed_values(capsys.readouterr().out), expected)


def test_bound_prints_the_report_of_the_loaded_model(tmp_path, capsys):
    model_path, split = train(tmp_path, "m", "--fraction", "0.5")
    capsys.readouterr()
    args = ["bound", "--model", str(model_path), "--train-data", str(split), "--test-data", "sample:mtl"]
    assert main(args + ["--samples", "300", "--seed", "4", "--rho", "0.5"]) == 0
    model = load_model(model_path, load_task_directory(split))
    _, test = resolve_dataset("sample:mtl")
    scaled = [TaskDataset(t.task_id, model.scaler.transform(t.X), t.y) for t in test]
    report = bound_report(model, scaled, delta=0.05, rho=0.5, mc_samples=300, seed=4)
    assert capsys.readouterr().out.splitlines() == report.lines()


def test_predict_names_an_unknown_task_and_lists_the_models_tasks(tmp_path, capsys):
    model_path, split = train(tmp_path, "m", "--fraction", "0.5")
    argv = ["predict", "--model", str(model_path), "--train-data", str(split),
            "--input", str(split / "task_synth1.txt"), "--task", "synth9"]
    assert error_message(capsys, argv) == "unknown task 'synth9'; the model's tasks are synth0, synth1"


def test_bound_names_both_feature_counts_of_a_mismatched_test_set(tmp_path, capsys):
    model_path, split = train(tmp_path, "m", "--fraction", "0.5")
    argv = ["bound", "--model", str(model_path), "--train-data", str(split), "--test-data", "synth:T=2,N=30"]
    assert error_message(capsys, argv) == "data have 6 features, but the scaler was fitted on 5"


@pytest.mark.parametrize("count", ["0", "-3"])
def test_radcheck_rejects_an_instance_count_below_one(capsys, count):
    assert error_message(capsys, ["radcheck", "--instances", count]) == f"n_instances must be a positive integer, got {count}"


@pytest.mark.parametrize(
    "line, message",
    [("C = 0xzz", "[config] C = 0xzz: invalid hexadecimal floating-point string"),
     ("mode = conik", "[config]: unknown mode 'conik'; expected one of ")],
    ids=["value", "config"],
)
def test_bound_on_a_tampered_model_names_the_file_and_key(tmp_path, capsys, line, message):
    model_path, split = train(tmp_path, "m", "--fraction", "0.5")
    key = line.split(" = ")[0]
    lines = [line if old.startswith(f"{key} = ") else old for old in model_path.read_text(encoding="utf-8").splitlines()]
    model_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["bound", "--model", str(model_path), "--train-data", str(split), "--test-data", "sample:mtl"]
    assert error_message(capsys, argv).startswith(f"{model_path}: {message}")


@pytest.mark.parametrize(
    "option, message",
    [
        (("--delta", "1.5"), "delta must lie in (0, 1)"),
        (("--rho", "0"), "rho must be positive"),
        (("--samples", "0"), "samples must be positive, got 0"),
        (("--samples", "-5"), "samples must be positive, got -5"),
    ],
    ids=["delta", "rho", "samples-zero", "samples-negative"],
)
def test_bound_rejects_a_bad_delta_or_rho_before_the_loss_and_sampling(tmp_path, capsys, monkeypatch, option, message):
    model_path, split = train(tmp_path, "m", "--fraction", "0.5")

    def never(*args, **kwargs):
        raise AssertionError("called before the bound values were checked")

    monkeypatch.setattr(bounds, "rademacher_mc", never)
    monkeypatch.setattr(training, "weighted_empirical_loss", never)
    monkeypatch.setattr(kernels, "build_gram_stack", never)
    argv = ["bound", "--model", str(model_path), "--train-data", str(split), "--test-data", "sample:mtl", *option]
    assert error_message(capsys, argv) == message


@pytest.mark.parametrize(
    "test_data, message",
    [
        ("synth:T=1,N=30,d=5", "missing ['synth1'], not in the model []"),
        ("synth:T=3,N=30,d=5", "missing [], not in the model ['synth2']"),
    ],
    ids=["missing", "unknown"],
)
def test_bound_rejects_test_tasks_that_do_not_pair_before_any_work(tmp_path, capsys, monkeypatch, test_data, message):
    model_path, split = train(tmp_path, "m", "--fraction", "0.5")

    def never(*args, **kwargs):
        raise AssertionError("called before the test tasks were paired")

    monkeypatch.setattr(bounds, "rademacher_mc", never)
    monkeypatch.setattr(training, "weighted_empirical_loss", never)
    monkeypatch.setattr(kernels, "build_gram_stack", never)
    argv = ["bound", "--model", str(model_path), "--train-data", str(split), "--test-data", test_data]
    prefix = "test tasks must pair with the model's tasks ['synth0', 'synth1']: "
    assert error_message(capsys, argv) == prefix + message


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory):
    """(model path, split directory) of one model trained on half of sample:mtl, shared by the module."""
    return train(tmp_path_factory.mktemp("trained"), "m", "--fraction", "0.5")


@pytest.mark.parametrize(
    "command, options, message",
    [
        ("train", ["--budget-frac", "0"], "--budget-frac must be positive and finite, got 0.0"),
        ("train", ["--budget-frac", "-1"], "--budget-frac must be positive and finite, got -1.0"),
        ("train", ["--budget-frac", "nan"], "--budget-frac must be positive and finite, got nan"),
        ("train", ["--budget-frac", "0.05"], "--budget-frac value 0.05 must be >= 1/r_max = 0.125 for conic"),
        ("train", ["--C", "-1"], "C must be positive and finite, got -1.0"),
        ("predict", ["--task", "synth9"], "unknown task 'synth9'; the model's tasks are synth0, synth1"),
        ("bound", ["--samples", "0"], "samples must be positive, got 0"),
        ("bound", ["--delta", "1.5"], "delta must lie in (0, 1)"),
        ("radcheck", ["--instances", "0"], "n_instances must be a positive integer, got 0"),
        ("experiment", ["--grid-p", "0.5"], "grid_p value 0.5 must be >= 1"),
        ("report", ["--alpha", "2"], "alpha must lie in (0, 1), got 2.0"),
        ("report", ["--alpha", "nan"], "alpha must lie in (0, 1), got nan"),
        ("report", ["--reference", "Nope"], "--reference 'Nope' names no method of the results; they are Average, Conic"),
    ],
    ids=[
        "train-budget-frac-zero", "train-budget-frac-negative", "train-budget-frac-nan",
        "train-budget-frac-below-inverse-r-max", "train-negative-C", "predict-unknown-task",
        "bound-samples-zero", "bound-delta", "radcheck-instances-zero", "experiment-grid-p-below-one",
        "report-alpha-above-one", "report-alpha-nan", "report-unknown-reference",
    ],
)
def test_rejected_input_ends_the_command_before_any_gram_fit_sampling_or_prediction(
    tmp_path, capsys, monkeypatch, trained_model, command, options, message
):
    model, split = trained_model
    results = tmp_path / "results.csv"
    results.write_text(
        RESULT_HEADER + "\n" + "".join(
            f"sample:mtl,0.5,{method},{seed},0.{7 + seed},1,2,,,0,1\n" for method in ("Conic", "Average") for seed in (0, 1)
        ),
        encoding="utf-8",
    )
    required = {
        "train": ["--data", "sample:mtl", "--out", str(tmp_path / "m.txt")],
        "predict": ["--model", str(model), "--train-data", str(split), "--input", str(split / "task_synth1.txt")],
        "bound": ["--model", str(model), "--train-data", str(split), "--test-data", "sample:mtl"],
        "radcheck": [],
        "experiment": ["--out", str(tmp_path / "r.csv")],
        "report": ["--results", str(results)],
    }[command]

    def never(*args, **kwargs):
        raise AssertionError("called before the input was rejected")

    for module, name in [
        (kernels, "build_gram_stack"), (cli, "build_gram_stack"), (experiments, "build_gram_stack"),
        (training, "fit"), (cli, "fit"), (experiments, "fit"),
        (bounds, "rademacher_mc"), (verification, "rademacher_mc"), (training, "decision_values"),
    ]:
        monkeypatch.setattr(module, name, never)
    assert error_message(capsys, [command, *required, *options]) == message
    assert not (tmp_path / "m.txt").exists() and not (tmp_path / "r.csv").exists()


def test_report_paired_prints_the_paired_t_test_p_value(tmp_path, capsys):
    conic, average = [0.81, 0.74, 0.90, 0.68, 0.77], [0.78, 0.73, 0.85, 0.66, 0.76]
    results = tmp_path / "results.csv"
    results.write_text(
        RESULT_HEADER + "\n" + "".join(
            f"sample:mtl,0.5,{method},{seed},{acc!r},1,2,,,0,1\n"
            for method, accs in (("Conic", conic), ("Average", average)) for seed, acc in enumerate(accs)
        ),
        encoding="utf-8",
    )

    def printed_p(*flags):
        capsys.readouterr()
        assert main(["report", "--results", str(results), *flags]) == 0
        row = next(line for line in capsys.readouterr().out.splitlines() if line.split()[:1] == ["Average"])
        return row.split()[4]

    assert printed_p("--paired") == f"{scipy.stats.ttest_rel(conic, average).pvalue:.4f}"
    assert printed_p() == f"{scipy.stats.ttest_ind(conic, average, equal_var=False).pvalue:.4f}" != printed_p("--paired")


def test_train_prints_the_relative_outer_duality_gap_after_the_final_objective(tmp_path, capsys):
    model_path, split = tmp_path / "m.txt", tmp_path / "m.train"
    capsys.readouterr()
    argv = ["train", "--data", "sample:mtl", "--fraction", "0.5", "--seed", "3"]
    assert main(argv + ["--out", str(model_path), "--split-out", str(split)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].startswith("final objective: ")
    label, _, value = lines[-1].partition(": ")
    assert label == "relative outer duality gap"
    model = load_model(model_path, load_task_directory(split))
    assert model.converged and 0.0 <= float(value) <= model.config.tol_rel_obj
    assert math.isnan(model.outer_gap)  # the gap is not part of the model document


def test_train_bound_and_experiment_run_at_p_infinity(tmp_path, capsys):
    model_path, split = train(tmp_path, "m", "--fraction", "0.5", "--p", "inf")
    model = load_model(model_path, load_task_directory(split))
    assert model.config.p == math.inf and model.converged
    np.testing.assert_array_equal(model.theta, np.ones(model.theta.size))  # the unit ball of the max norm
    capsys.readouterr()
    argv = ["bound", "--model", str(model_path), "--train-data", str(split), "--test-data", "sample:mtl"]
    assert main(argv + ["--samples", "300"]) == 0
    values = dict(line.split(" ") for line in capsys.readouterr().out.splitlines())
    for key in ("complexity_mc", "complexity_upper_bound", "total_adaptive", "total_fixed"):
        assert math.isfinite(float(values[key])), key
    out = tmp_path / "r.csv"
    assert main(["experiment", "--grid-p", "inf", "--runs", "1", "--grid-C", "1", "--out", str(out)]) == 0
    rows = read_results_csv(out)
    assert [(row["method"], row["p"], row["converged"]) for row in rows] == [("Conic", "inf", "1"), ("Average", "inf", "1")]


def test_predict_names_an_input_file_without_samples(tmp_path, capsys):
    model_path, split = train(tmp_path, "m", "--fraction", "0.5")
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    argv = ["predict", "--model", str(model_path), "--train-data", str(split), "--input", str(empty), "--task", "synth0"]
    assert error_message(capsys, argv) == f"{empty}: no samples to predict"


def write_config(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_train_config_reads_its_keys_and_rejects_others(tmp_path, capsys):
    config = write_config(tmp_path, "[train]\nfraction = 0.5\nseed = 3\nmode = average\n")
    model_a, split_a = train(tmp_path, "a", "--config", config)
    model_b, split_b = train(tmp_path, "b", "--fraction", "0.5", "--mode", "average")
    assert model_a.read_bytes() == model_b.read_bytes()
    assert directory_bytes(split_a) == directory_bytes(split_b)
    config = write_config(tmp_path, "[train]\nseed = 3\nC = 4\np = 4\n")
    argv = ["train", "--data", "sample:mtl", "--config", config, "--out", str(tmp_path / "c.txt")]
    message = error_message(capsys, argv)
    assert re.search(r"unknown key 'c' in \[train\].*fraction, mode, seed", message)
    assert not (tmp_path / "c.txt").exists()


def test_experiment_config_rejects_unknown_keys(tmp_path, capsys):
    config = write_config(tmp_path, "[experiment]\nruns = 1\nuse_bias = 1\n")
    out = tmp_path / "r.csv"
    message = error_message(capsys, ["experiment", "--config", config, "--out", str(out)])
    assert re.search(r"unknown key 'use_bias' in \[experiment\]", message)
    assert not out.exists()


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("experiment", "[experiment]\nruns = 1.5\n", r"bad value for key 'runs' in \[experiment\]: .*'1\.5'"),
        ("experiment", "[experiment]\ngrid_c = 1,abc\n", r"bad value for key 'grid_c' in \[experiment\]: .*'abc'"),
        ("train", "[train]\nseed = x\n", r"bad value for key 'seed' in \[train\]: .*'x'"),
    ],
    ids=["runs", "grid_c", "seed"],
)
def test_config_value_that_does_not_parse_names_file_section_and_key(tmp_path, capsys, command, text, message):
    config = write_config(tmp_path, text)
    out = tmp_path / "out.txt"
    argv = [command, "--config", config, "--out", str(out)]
    got = error_message(capsys, argv + (["--data", "sample:mtl"] if command == "train" else []))
    assert re.fullmatch(rf"{re.escape(config)}: {message}", got)
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["experiment", "--config", "bad.ini"], "bad.ini: bad value for key 'runs' in [experiment]: "
         "invalid literal for int() with base 10: '1.5'"),
        (["train", "--data", "/nonexistent"], "cannot resolve dataset '/nonexistent'"),
        (["train", "--data", "sample:mtl", "--C", "-1"], "C must be positive and finite, got -1.0"),
    ],
    ids=["experiment-bad-config", "train-missing-data", "train-negative-C"],
)
def test_rejected_input_prints_one_error_line_without_a_traceback(tmp_path, argv, message):
    (tmp_path / "bad.ini").write_text("[experiment]\nruns = 1.5\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    code = "import sys; from conicmtl.cli import main; sys.exit(main())"
    argv = [sys.executable, "-c", code, *argv, "--out", "out.txt"]
    done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (1, "", f"conicmtl: error: {message}\n")
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("flag", ["--fractions", "--grid-C", "--grid-p", "--grid-a-frac", "--grid-p-exp"])
def test_list_flag_that_does_not_parse_is_a_usage_error(tmp_path, capsys, flag):
    out = tmp_path / "r.csv"
    with pytest.raises(SystemExit) as exit_info:
        main(["experiment", flag, "1,abc", "--out", str(out)])
    assert exit_info.value.code == 2
    assert f"argument {flag}: invalid" in capsys.readouterr().err
    assert not out.exists()


def test_each_config_backed_flag_parses_with_its_table_parser():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, table in (("train", TRAIN_KEYS), ("experiment", EXPERIMENT_KEYS)):
        types = {a.dest: a.type or str for a in sub.choices[command]._actions}
        assert {key: types[key] for key in table} == {key: parse for key, (_, parse) in table.items()}


def test_unset_options_take_the_library_defaults(tmp_path, monkeypatch):
    calls = []

    def capture(result):
        return lambda *args, **kwargs: calls.append((args, kwargs)) or result

    monkeypatch.setattr(cli, "run_experiment", capture(ResultTable()))
    monkeypatch.setattr(cli, "run_verification_suite", capture([]))
    assert main(["experiment", "--out", str(tmp_path / "r.csv")]) == 0
    assert main(["radcheck"]) == 0
    assert calls == [((ExperimentConfig(dataset="sample:mtl"),), {}), ((), {})]

    model = tmp_path / "m.txt"
    assert main(["train", "--data", "sample:mtl", "--out", str(model)]) == 0
    config = load_model(model, load_task_directory(tmp_path / "m.train")).config
    assert config == replace(TrainConfig(), budget=config.budget)


def readme_text():
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_config_keys_are_the_keys_each_section_accepts():
    for section, table in (("train", TRAIN_KEYS), ("experiment", EXPERIMENT_KEYS)):
        sentence = re.search(rf"`\[{section}\]` accepts\s+(.*?)\.", readme_text(), re.S).group(1)
        assert set(re.findall(r"`(\w+)`", sentence)) == set(table)


def test_readme_command_line_block_lists_exactly_the_subcommands():
    readme = readme_text()
    block = re.search(r"^## Command line\n+```bash\n(.*?)^```", readme, re.S | re.M).group(1)
    documented = set(re.findall(r"^conicmtl (\S+)", block, re.M))
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert documented == set(sub.choices)


@pytest.mark.parametrize(
    "argv",
    [["gram", "--data", "sample:mtl", "--cache-dir"], ["train", "--data", "sample:mtl", "--out", "m.txt", "--cache-dir"]],
    ids=["gram", "train-cache-dir"],
)
def test_removed_gram_command_and_train_cache_flag_are_usage_errors(tmp_path, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + [str(tmp_path / "cache")])
    assert exit_info.value.code == 2
    assert not (tmp_path / "cache").exists()
