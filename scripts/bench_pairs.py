#!/usr/bin/env python3
"""Alternating before/after benchmark pairs of two checkouts.

    python3 scripts/bench_pairs.py BASE CHANGE --workload cv_experiment \
        --seed 11 --pairs 10 --seconds 12 --label lean_cv

BASE and CHANGE are checkout directories, each with `perfbench/run.py` and
`src/conicmtl`. Pair k runs `perfbench/run.py --trace 0` once in each, one
after the other; the base goes first on even pairs and the change on odd
ones, so a drift of the machine's load does not favour either side.
Each run has PYTHONDONTWRITEBYTECODE=1 set, so no run writes `__pycache__`
and every run compiles its sources, as the first run in a clean checkout does.
Every run's metrics, the per-side medians and quartiles, the per-pair
ratios (change / base), each side's `src_sha256` and `src_lines`
(physical and non-blank line counts of the same files), each side's
operations attempted and failed over all its runs with the failed share,
and, per end-to-end metric, the verdicts of the gain rule and of the
no-regression rule go to `BENCH_<label>.json` in the current directory.
Nothing in either checkout is modified.

The gain rule takes the direction (`better`) of each metric from the
change's `BENCHMARK.json`: the change is better in at least 9 of 10 pairs
(a tie counts for neither side), and its median is further from the
base's median, in that direction, than the base's q3 - q1.

The no-regression rule takes each metric's `bound` from the same file: it
fails when the change's median is worse than the base's median, in the
metric's direction, by more than `bound` times the base's median.

The failure rule fails when the change's failed share, its failed
operations over its attempted ones in all its runs, is larger than the
base's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("base", "change")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base", type=Path, help="checkout to compare against")
    ap.add_argument("change", type=Path, help="checkout with the change")
    ap.add_argument("--workload", required=True, choices=("cv_experiment", "bound_report", "bias_holdout"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="run length of each perfbench run")
    ap.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error(f"--pairs must be at least 1, got {args.pairs}")
    for side in SIDES:
        root = getattr(args, side).resolve()
        if not (root / "perfbench" / "run.py").is_file() or not (root / "src" / "conicmtl").is_dir():
            ap.error(f"{root} has no perfbench/run.py and src/conicmtl")
        setattr(args, side, root)
    return args


def run_once(root: Path, args) -> dict:
    """One untraced perfbench run in `root`: its facts line and JSON result."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    facts = next(json.loads(line[6:]) for line in lines if line.startswith("facts "))
    result = json.loads(lines[-1])
    return {
        "facts": facts,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _sources(root: Path) -> list:
    """(relative path, bytes) of each src/conicmtl/**/*.py, sorted by path: the source a side ran."""
    src = root / "src" / "conicmtl"
    return [(path.relative_to(src).as_posix(), path.read_bytes()) for path in sorted(src.rglob("*.py"))]


def src_sha256(root: Path) -> str:
    """sha256 over the sorted relative paths and bytes of the sources; names what a side ran."""
    h = hashlib.sha256()
    for name, data in _sources(root):
        h.update(name.encode() + b"\0")
        h.update(data)
    return h.hexdigest()


def src_lines(root: Path) -> dict:
    """Physical and non-blank line counts over the files that src_sha256 reads."""
    lines = [line for _, data in _sources(root) for line in data.splitlines()]
    return {"physical": len(lines), "non_blank": sum(1 for line in lines if line.strip())}


def _end_to_end(root: Path) -> list:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def directions(root: Path) -> dict:
    """Metric name -> "lower" or "higher", from the end-to-end metrics of root's BENCHMARK.json."""
    return {m["name"]: m["better"] for m in _end_to_end(root)}


def regression_bounds(root: Path) -> dict:
    """Metric name -> its no-regression bound, a fraction of the base median, from root's BENCHMARK.json."""
    return {m["name"]: m["bound"] for m in _end_to_end(root)}


def gain_rule(entry: dict, base: list, change: list, better: str) -> dict:
    """Whether the change beats the base on one metric under the gain rule of the module docstring."""
    def gain(b, c):
        return b - c if better == "lower" else c - b

    pairs_better = sum(gain(b, c) > 0 for b, c in zip(base, change))
    median_gain = gain(entry["base"]["median"], entry["change"]["median"])
    spread = entry["base"]["q3"] - entry["base"]["q1"]
    return {
        "better": better,
        "pairs_better": pairs_better,
        "median_gain": median_gain,
        "base_iqr": spread,
        "holds": 10 * pairs_better >= 9 * len(base) and median_gain > spread,
    }


def no_regression_rule(entry: dict, better: str, bound: float) -> dict:
    """Whether the change's median stays within the metric's bound of the base median (module docstring)."""
    base, change = entry["base"]["median"], entry["change"]["median"]
    worse_by = change - base if better == "lower" else base - change
    limit = bound * abs(base)
    return {"bound": bound, "worse_by": worse_by, "limit": limit, "holds": worse_by <= limit}


def failures(runs) -> dict:
    """Per side: operations attempted and failed over its runs, the failed share and whether
    any run reported `correct: false`; then the failure rule's verdict (module docstring)."""
    out = {}
    for side in SIDES:
        mine = [r for r in runs if r["side"] == side]
        attempted = sum(r["attempted"] for r in mine)
        failed = sum(r["failed"] for r in mine)
        out[side] = {
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted if attempted else 0.0,
            "any_incorrect": any(not r["correct"] for r in mine),
        }
    out["holds"] = out["change"]["failed_share"] <= out["base"]["failed_share"]
    return out


def summarize(runs, better=None, bounds=None) -> dict:
    """Per metric: each side's median and quartiles, the per-pair ratios and, where
    `better` gives the metric's direction, the gain rule's verdict and, where
    `bounds` also gives its bound, the no-regression rule's verdict."""
    better = better or {}
    bounds = bounds or {}
    names = list(runs[0]["metrics"])
    out = {}
    for name in names:
        values = {side: [r["metrics"][name] for r in runs if r["side"] == side] for side in SIDES}
        entry = {}
        for side in SIDES:
            q1, q3 = _quartiles(values[side])
            entry[side] = {"median": statistics.median(values[side]), "q1": q1, "q3": q3}
        ratios = [c / b if b else None for b, c in zip(values["base"], values["change"])]
        entry["pair_ratios"] = ratios
        known = [r for r in ratios if r is not None]
        entry["median_ratio"] = statistics.median(known) if known else None
        entry["pairs_lower"] = sum(c < b for b, c in zip(values["base"], values["change"]))
        entry["pairs_higher"] = sum(c > b for b, c in zip(values["base"], values["change"]))
        if name in better:
            entry["gain_rule"] = gain_rule(entry, values["base"], values["change"], better[name])
            if name in bounds:
                entry["no_regression"] = no_regression_rule(entry, better[name], bounds[name])
        out[name] = entry
    return out


def main(argv=None):
    args = _parse(argv)
    runs = []
    facts = {}
    for k in range(args.pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            run = run_once(getattr(args, side), args)
            facts.setdefault(side, run.pop("facts"))
            runs.append({"pair": k, "side": side, "position": position, **run})
            wall = run["metrics"]["wall_s"]
            print(f"pair {k} {side:<6} wall_s {wall:.4f} s  failed {run['failed']}", flush=True)
    runs.sort(key=lambda r: (SIDES.index(r["side"]), r["pair"]))
    summary = summarize(runs, directions(args.change), regression_bounds(args.change))
    failed = failures(runs)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "command": f"perfbench/run.py --workload {args.workload} --seed {args.seed} "
                   f"--seconds {args.seconds} --trace 0",
        "order": "base first on even pairs, change first on odd pairs",
        "facts": facts,
        "src_sha256": {side: src_sha256(getattr(args, side)) for side in SIDES},
        "src_lines": {side: src_lines(getattr(args, side)) for side in SIDES},
        "failures": failed,
        "summary": summary,
        "runs": runs,
    }
    path = Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps(record, indent=1, sort_keys=False) + "\n", encoding="utf-8")
    for name, entry in summary.items():
        rule = entry.get("gain_rule")
        verdict = "" if rule is None else (
            f", {rule['better']} is better: better in {rule['pairs_better']} of {args.pairs}, "
            f"gain {rule['median_gain']:.4g} vs base IQR {rule['base_iqr']:.4g}, "
            f"gain rule {'holds' if rule['holds'] else 'fails'}")
        kept = entry.get("no_regression")
        if kept is not None:
            verdict += (f", worse by {kept['worse_by']:.4g} vs limit {kept['limit']:.4g} "
                        f"({kept['bound']:g} x base median), no-regression rule {'holds' if kept['holds'] else 'fails'}")
        ratio = "n/a" if entry["median_ratio"] is None else f"{entry['median_ratio']:.3f}"
        print(f"{name} median base {entry['base']['median']:.4f}, change {entry['change']['median']:.4f}, "
              f"median ratio {ratio}{verdict}")
    for side in SIDES:
        f = failed[side]
        print(f"{side} failed {f['failed']} of {f['attempted']} operations (share {f['failed_share']:.4g}), "
              f"{'some' if f['any_incorrect'] else 'no'} run reported correct: false")
    print(f"failure rule {'holds' if failed['holds'] else 'fails'}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
