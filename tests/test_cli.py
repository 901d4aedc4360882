"""End-to-end checks of the `train`, `predict` and `bound` subcommands, of the
defaults the CLI leaves to the library, and of the commands and config keys
the README documents."""

import argparse
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conicmtl import cli
from conicmtl.bounds import bound_report
from conicmtl.cli import EXPERIMENT_KEYS, TRAIN_KEYS, build_parser, main
from conicmtl.data import MultiTaskDataset, TaskDataset, load_sparse_text, load_task_directory, sample_mtl_path
from conicmtl.experiments import ExperimentConfig, ResultTable, resolve_dataset
from conicmtl.training import TrainConfig, decision_values, load_model


def train(tmp_path, name, *extra):
    model = tmp_path / f"{name}.txt"
    split = tmp_path / f"{name}.train"
    args = ["train", "--data", "sample:mtl", "--seed", "3", "--C", "2", "--p", "1.5"]
    assert main(args + list(extra) + ["--out", str(model), "--split-out", str(split)]) == 0
    return model, split


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


def test_predict_pre_scaled_prints_the_models_decision_values(tmp_path, capsys):
    model_path, split = train(tmp_path, "m", "--fraction", "0.5")
    capsys.readouterr()
    task_file = split / "task_synth1.txt"
    args = ["predict", "--model", str(model_path), "--train-data", str(split), "--input", str(task_file)]
    assert main(args + ["--task", "synth1", "--pre-scaled"]) == 0
    tasks = load_task_directory(split)
    X, y = load_sparse_text(task_file, n_features=tasks.d)
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
    X, _ = load_sparse_text(raw_file, n_features=tasks.d)
    expected = decision_values(model, "synth0", model.scaler.transform(X))
    np.testing.assert_array_equal(printed_values(capsys.readouterr().out), expected)


def test_bound_prints_the_report_of_the_loaded_model(tmp_path, capsys):
    model_path, split = train(tmp_path, "m", "--fraction", "0.5")
    capsys.readouterr()
    args = ["bound", "--model", str(model_path), "--train-data", str(split), "--test-data", "sample:mtl"]
    assert main(args + ["--samples", "300", "--seed", "4", "--rho", "0.5"]) == 0
    model = load_model(model_path, load_task_directory(split))
    _, test = resolve_dataset("sample:mtl")
    scaled = [TaskDataset(t.task_id, model.scaler.transform(t.X), t.y, t.provenance) for t in test]
    report = bound_report(model, scaled, delta=0.05, rho=0.5, mc_samples=300, seed=4)
    assert capsys.readouterr().out.splitlines() == report.lines()
    dataset_report = bound_report(model, MultiTaskDataset(scaled), delta=0.05, rho=0.5, mc_samples=300, seed=4)
    assert dataset_report.lines() == report.lines()


def write_config(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_train_config_reads_its_keys_and_rejects_others(tmp_path):
    config = write_config(tmp_path, "[train]\nfraction = 0.5\nseed = 3\nmode = average\n")
    model_a, split_a = train(tmp_path, "a", "--config", config)
    model_b, split_b = train(tmp_path, "b", "--fraction", "0.5", "--mode", "average")
    assert model_a.read_bytes() == model_b.read_bytes()
    assert directory_bytes(split_a) == directory_bytes(split_b)
    config = write_config(tmp_path, "[train]\nseed = 3\nC = 4\np = 4\n")
    with pytest.raises(ValueError, match=r"unknown key 'c' in \[train\].*fraction, mode, seed"):
        train(tmp_path, "c", "--config", config)


def test_experiment_config_rejects_unknown_keys(tmp_path):
    config = write_config(tmp_path, "[experiment]\nruns = 1\nuse_bias = 1\n")
    out = tmp_path / "r.csv"
    with pytest.raises(ValueError, match=r"unknown key 'use_bias' in \[experiment\]"):
        main(["experiment", "--config", config, "--out", str(out)])
    assert not out.exists()


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
