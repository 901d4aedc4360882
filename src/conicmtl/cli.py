"""Command-line interface.

Subcommands: train, predict, bound, radcheck, experiment, report.
Options may come from an INI-style config file, where each command reads
one section ([train] or [experiment]); explicit flags override config keys.
An option left unset is not passed on, so the library's default applies.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import data as data_io
from .bounds import bound_report
from .experiments import (
    ExperimentConfig,
    budget_from_fraction,
    read_results_csv,
    resolve_dataset,
    run_experiment,
    summarize_results,
    write_results_csv,
)
from .kernels import build_gram_stack, default_kernel_dictionary
from .training import MODES, TrainConfig, fit, load_model, predict, save_model
from .verification import run_verification_suite


def float_list(text):
    return tuple(float(tok) for tok in str(text).split(",") if tok)


def name_list(text):
    return tuple(tok.strip() for tok in str(text).split(",") if tok.strip())


# Config-file key (also the flag's dest) -> (keyword it sets, parser of its text).
# Each parser is also its flag's argparse type, so a bad flag is a usage error.
TRAIN_KEYS = {"fraction": ("fraction", float), "seed": ("seed", int), "mode": ("mode", str)}
EXPERIMENT_KEYS = {
    "data": ("dataset", str),
    "fractions": ("fractions", float_list),
    "methods": ("methods", name_list),
    "runs": ("runs", int),
    "folds": ("cv_folds", int),
    "seed": ("master_seed", int),
    "r_max": ("r_max", float),
    "grid_c": ("grid_C", float_list),
    "grid_p": ("grid_p", float_list),
    "grid_a_frac": ("grid_a_frac", float_list),
    "grid_p_exp": ("grid_p_exp", float_list),
}


def _load_config_section(path, section, keys):
    """The section's values; a key outside keys (those the command reads) is an error."""
    if not path:
        return {}
    parser = configparser.ConfigParser()
    with open(path, "r", encoding="utf-8") as fh:
        parser.read_file(fh)
    if not parser.has_section(section):
        return {}
    values = dict(parser.items(section))
    for key in values:
        if key not in keys:
            raise ValueError(
                f"{path}: unknown key {key!r} in [{section}]; accepted keys: {', '.join(sorted(keys))}"
            )
    return values


def _set(args, *names):
    """The named options the user set; an unset one is left out, so the callee's default applies."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _given(args, table, section):
    """Keyword arguments for the table's options the user set: a flag beats a config key.

    Flags arrive parsed by argparse; a config value is parsed here, and one
    that does not parse is an error naming the file, section and key.
    """
    values = _load_config_section(args.config, section, table)
    given = {}
    for key, (keyword, parse) in table.items():
        value = getattr(args, key)
        if value is None and key in values:
            try:
                value = parse(values[key])
            except ValueError as exc:
                raise ValueError(f"{args.config}: bad value for key {key!r} in [{section}]: {exc}") from exc
        if value is not None:
            given[keyword] = value
    return given


def cmd_train(args):
    given = _given(args, TRAIN_KEYS, "train")
    fraction = given.pop("fraction", None)  # None keeps whole tasks
    config = TrainConfig(**given, **_set(args, "C", "p", "budget", "r_max", "p_exp"), use_bias=args.use_bias)
    if args.budget is None:  # checked here, before any Gram stack is built from the data
        frac = args.budget_frac
        if not 0.0 < frac < math.inf:
            raise ValueError(f"--budget-frac must be positive and finite, got {frac}")
        if config.mode == "conic" and frac < 1.0 / config.r_max:
            raise ValueError(f"--budget-frac value {frac!r} must be >= 1/r_max = {1.0 / config.r_max!r} for conic")
    _, dataset = resolve_dataset(args.data)
    train_tasks, _, scaler = data_io.prepare_run(dataset, fraction, config.seed, args.balanced)
    specs = default_kernel_dictionary()
    stacks = [build_gram_stack(t.task_id, t.X, specs) for t in train_tasks]
    if args.budget is None:
        config = replace(config, budget=budget_from_fraction(stacks, config.p, args.budget_frac))
    model = fit(train_tasks, stacks, config, kernel_specs=specs)
    model.scaler = scaler

    out = Path(args.out)
    save_model(model, out)
    split_dir = Path(args.split_out) if args.split_out else out.with_suffix(".train")
    data_io.save_task_directory(train_tasks, split_dir)
    status = "converged" if model.converged else "NOT converged"
    print(f"trained {config.mode} model on {len(train_tasks)} tasks ({status})")
    print(f"model: {out}")
    print(f"training split: {split_dir}")
    print(f"final objective: {model.objective_trace[-1]!r}")
    print(f"relative outer duality gap: {model.outer_gap!r}")
    return 0


def cmd_predict(args):
    tasks = data_io.load_task_directory(args.train_data)
    model = load_model(args.model, tasks)
    task_ids = [task.task_id for task in model.tasks]
    if args.task not in task_ids:  # task_index raises KeyError, which main does not turn into an error line
        raise ValueError(f"unknown task {args.task!r}; the model's tasks are {', '.join(task_ids)}")
    X, y = data_io.load_sparse_text(args.input, n_features=tasks[0].X.shape[1])
    if not y.size:
        raise ValueError(f"{args.input}: no samples to predict")
    if model.scaler is not None and not args.pre_scaled:
        X = model.scaler.transform(X)
    labels, values = predict(model, args.task, X)
    lines = [f"{int(l)} {float(v)!r}" for l, v in zip(labels, values)]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {len(lines)} predictions to {args.out}")
    else:
        sys.stdout.write(text)
    if set(np.unique(y).tolist()) <= {-1.0, 1.0}:
        print(f"accuracy vs file labels: {float((labels == y).mean())!r}")
    return 0


def cmd_bound(args):
    train_tasks = data_io.load_task_directory(args.train_data)
    model = load_model(args.model, train_tasks)
    _, test_tasks = resolve_dataset(args.test_data)
    if model.scaler is not None:
        test_tasks = model.scaler.transform_tasks(test_tasks)
    report = bound_report(model, test_tasks, **_set(args, "delta", "rho", "mc_samples", "seed"))
    for line in report.lines():
        print(line)
    if args.out:
        Path(args.out).write_text(report.csv_header() + "\n" + report.csv_row() + "\n", encoding="utf-8")
        print(f"wrote bound csv: {args.out}")
    return 0


def cmd_radcheck(args):
    results = run_verification_suite(**_set(args, "seed", "n_instances"))
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else 1


def cmd_experiment(args):
    given = _given(args, EXPERIMENT_KEYS, "experiment")
    given.setdefault("dataset", "sample:mtl")
    config = ExperimentConfig(**given, use_bias=args.use_bias)
    table = run_experiment(config)
    write_results_csv(table, args.out, measure_wall=args.measure_wall)
    done = sum(1 for r in table.rows if r.mean_accuracy is not None)
    print(f"wrote {len(table.rows)} rows ({done} successful) to {args.out}")
    return 0


def cmd_report(args):
    rows = read_results_csv(args.results)
    methods = sorted({row["method"] for row in rows})
    # checked only when given: the default reference may be absent, as in a CSV of one method
    if args.reference is not None and args.reference not in methods:
        raise ValueError(
            f"--reference {args.reference!r} names no method of the results; they are {', '.join(methods)}"
        )
    print(summarize_results(rows, **_set(args, "alpha", "reference"), paired=args.paired), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="conicmtl")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and save it with its training split")
    p.add_argument("--data", required=True)
    p.add_argument("--config")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--fraction", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--C", type=float)
    p.add_argument("--p", type=float)
    p.add_argument("--budget", type=float, help="absolute task-weight budget")
    p.add_argument("--budget-frac", type=float, default=0.5, help="budget as a fraction of the unit-weight cost")
    p.add_argument("--r-max", dest="r_max", type=float)
    p.add_argument("--p-exp", dest="p_exp", type=float)
    p.add_argument("--use-bias", action="store_true")
    p.add_argument("--no-balance", dest="balanced", action="store_false")
    p.add_argument("--out", required=True)
    p.add_argument("--split-out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="decision values and labels for one task")
    p.add_argument("--model", required=True)
    p.add_argument("--train-data", required=True, help="directory written by train")
    p.add_argument(
        "--input",
        required=True,
        help="sparse text file of samples in the original feature space",
    )
    p.add_argument("--task", required=True)
    p.add_argument(
        "--pre-scaled",
        dest="pre_scaled",
        action="store_true",
        help="input is already in the model's standardized space (e.g. a saved split file)",
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("bound", help="bound terms and test error for a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--train-data", required=True)
    p.add_argument("--test-data", required=True)
    p.add_argument("--delta", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--samples", dest="mc_samples", metavar="SAMPLES", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("radcheck", help="run the numeric verification suite")
    p.add_argument("--seed", type=int)
    p.add_argument("--instances", dest="n_instances", metavar="INSTANCES", type=int)
    p.set_defaults(func=cmd_radcheck)

    p = sub.add_parser("experiment", help="resampled multi-method comparison; writes CSV")
    p.add_argument("--config")
    p.add_argument("--data")
    p.add_argument("--fractions", type=float_list)
    p.add_argument("--methods", type=name_list)
    p.add_argument("--runs", type=int)
    p.add_argument("--folds", type=int)
    p.add_argument("--grid-C", dest="grid_c", type=float_list)
    p.add_argument("--grid-p", dest="grid_p", type=float_list)
    p.add_argument("--grid-a-frac", dest="grid_a_frac", type=float_list)
    p.add_argument("--grid-p-exp", dest="grid_p_exp", type=float_list)
    p.add_argument("--r-max", dest="r_max", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--use-bias", action="store_true")
    p.add_argument(
        "--measure-wall",
        action="store_true",
        help="record real wall times (breaks byte-for-byte reproducibility of the CSV)",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("report", help="summary table with significance stars from a results CSV")
    p.add_argument("--results", required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--reference")
    p.add_argument("--paired", action="store_true", help="pair runs by seed instead of the two-sample test")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # input the library rejects by name: one line, no traceback
        print(f"conicmtl: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
