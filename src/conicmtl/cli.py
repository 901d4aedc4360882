"""Command-line interface.

Subcommands: gram, train, predict, bound, radcheck, experiment, report.
Options may come from an INI-style config file (key/value in sections,
dotted section names for nesting); explicit flags override config keys.
"""

from __future__ import annotations

import argparse
import configparser
import sys
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
    write_bound_csv,
    write_results_csv,
)
from .kernels import build_gram_stack, default_kernel_dictionary
from .training import TrainConfig, fit, load_model, predict, save_model
from .verification import run_verification_suite


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


def _merged(args, config_values, key, cast, default):
    """Flag > config file > default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config_values:
        return cast(config_values[key])
    return default


def _floats(text):
    return tuple(float(tok) for tok in str(text).split(",") if tok)


def _names(text):
    return tuple(tok.strip() for tok in str(text).split(",") if tok.strip())


def cmd_gram(args):
    _, dataset = resolve_dataset(args.data)
    specs = default_kernel_dictionary()
    count = 0
    for task in dataset:
        build_gram_stack(task.task_id, task.X, specs, cache_dir=args.cache_dir)
        count += len(specs)
    print(f"cached {count} gram matrices for {len(dataset)} tasks in {args.cache_dir}")
    return 0


def cmd_train(args):
    cfg_file = _load_config_section(args.config, "train", ("fraction", "seed", "mode"))
    fraction = _merged(args, cfg_file, "fraction", float, None)
    seed = int(_merged(args, cfg_file, "seed", int, 0))
    mode = _merged(args, cfg_file, "mode", str, "conic")
    _, dataset = resolve_dataset(args.data)
    train_tasks, _, scaler = data_io.prepare_run(dataset, fraction, seed, args.balanced)
    specs = default_kernel_dictionary()
    stacks = [build_gram_stack(t.task_id, t.X, specs, cache_dir=args.cache_dir) for t in train_tasks]

    budget = args.budget
    if budget is None:
        budget = budget_from_fraction(stacks, args.p, args.budget_frac)
    config = TrainConfig(
        C=args.C,
        p=args.p,
        budget=budget,
        r_max=args.r_max,
        mode=mode,
        p_exp=args.p_exp,
        use_bias=args.use_bias,
        seed=seed,
    )
    model = fit(train_tasks, stacks, config, kernel_specs=specs)
    model.scaler = scaler

    out = Path(args.out)
    save_model(model, out)
    split_dir = Path(args.split_out) if args.split_out else out.with_suffix(".train")
    data_io.save_task_directory(data_io.MultiTaskDataset(train_tasks), split_dir)
    status = "converged" if model.converged else "NOT converged"
    print(f"trained {mode} model on {len(train_tasks)} tasks ({status})")
    print(f"model: {out}")
    print(f"training split: {split_dir}")
    print(f"final objective: {model.objective_trace[-1]!r}")
    return 0


def cmd_predict(args):
    tasks = data_io.load_task_directory(args.train_data)
    model = load_model(args.model, tasks)
    X, y = data_io.load_sparse_text(args.input, n_features=tasks.d)
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
    if y.size and set(np.unique(y).tolist()) <= {-1.0, 1.0}:
        print(f"accuracy vs file labels: {float((labels == y).mean())!r}")
    return 0


def cmd_bound(args):
    train_tasks = data_io.load_task_directory(args.train_data)
    model = load_model(args.model, train_tasks)
    _, test_dataset = resolve_dataset(args.test_data)
    test_tasks = list(test_dataset)
    if model.scaler is not None:
        test_tasks = model.scaler.transform_tasks(test_tasks)
    report = bound_report(
        model,
        test_tasks,
        delta=args.delta,
        rho=args.rho,
        mc_samples=args.samples,
        seed=args.seed,
    )
    for line in report.lines():
        print(line)
    if args.out:
        write_bound_csv([report], args.out)
        print(f"wrote bound csv: {args.out}")
    return 0


def cmd_radcheck(args):
    results = run_verification_suite(seed=args.seed, n_instances=args.instances)
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else 1


def cmd_experiment(args):
    cfg_file = _load_config_section(
        args.config,
        "experiment",
        ("data", "fractions", "methods", "runs", "folds", "seed", "r_max",
         "grid_c", "grid_p", "grid_a_frac", "grid_p_exp"),
    )
    config = ExperimentConfig(
        dataset=_merged(args, cfg_file, "data", str, "sample:mtl"),
        fractions=_floats(_merged(args, cfg_file, "fractions", str, "0.5")),
        methods=_names(_merged(args, cfg_file, "methods", str, "Conic,Average")),
        runs=int(_merged(args, cfg_file, "runs", int, 20)),
        cv_folds=int(_merged(args, cfg_file, "folds", int, 5)),
        grid_C=_floats(_merged(args, cfg_file, "grid_c", str, "0.125,0.25,0.5,1,2,4,8")),
        grid_p=_floats(_merged(args, cfg_file, "grid_p", str, "1,1.3333333333333333,2,4")),
        grid_a_frac=_floats(_merged(args, cfg_file, "grid_a_frac", str, "0.25,0.5,0.75,1.0")),
        grid_p_exp=_floats(_merged(args, cfg_file, "grid_p_exp", str, "0.25,0.5,0.75,1.0")),
        r_max=float(_merged(args, cfg_file, "r_max", float, 8.0)),
        use_bias=bool(args.use_bias),
        master_seed=int(_merged(args, cfg_file, "seed", int, 0)),
    )
    table = run_experiment(config)
    write_results_csv(table, args.out, measure_wall=args.measure_wall)
    done = sum(1 for r in table.rows if r.mean_accuracy is not None)
    print(f"wrote {len(table.rows)} rows ({done} successful) to {args.out}")
    return 0


def cmd_report(args):
    rows = read_results_csv(args.results)
    print(
        summarize_results(rows, alpha=args.alpha, reference=args.reference, paired=args.paired),
        end="",
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="conicmtl")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gram", help="precompute and cache gram matrices")
    p.add_argument("--data", required=True)
    p.add_argument("--cache-dir", required=True)
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("train", help="train a model and save it with its training split")
    p.add_argument("--data", required=True)
    p.add_argument("--config")
    p.add_argument("--mode", choices=("conic", "average", "pareto"))
    p.add_argument("--fraction", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--budget", type=float, help="absolute task-weight budget")
    p.add_argument("--budget-frac", type=float, default=0.5, help="budget as a fraction of the unit-weight cost")
    p.add_argument("--r-max", dest="r_max", type=float, default=8.0)
    p.add_argument("--p-exp", dest="p_exp", type=float, default=0.5)
    p.add_argument("--use-bias", action="store_true")
    p.add_argument("--no-balance", dest="balanced", action="store_false")
    p.add_argument("--cache-dir")
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
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("radcheck", help="run the numeric verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=50)
    p.set_defaults(func=cmd_radcheck)

    p = sub.add_parser("experiment", help="resampled multi-method comparison; writes CSV")
    p.add_argument("--config")
    p.add_argument("--data")
    p.add_argument("--fractions")
    p.add_argument("--methods")
    p.add_argument("--runs", type=int)
    p.add_argument("--folds", type=int)
    p.add_argument("--grid-C", dest="grid_c")
    p.add_argument("--grid-p", dest="grid_p")
    p.add_argument("--grid-a-frac", dest="grid_a_frac")
    p.add_argument("--grid-p-exp", dest="grid_p_exp")
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
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--reference", default="Conic")
    p.add_argument("--paired", action="store_true", help="pair runs by seed instead of the two-sample test")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
