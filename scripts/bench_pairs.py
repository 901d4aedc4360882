#!/usr/bin/env python3
"""Alternating before/after benchmark pairs of two checkouts.

    python3 scripts/bench_pairs.py BASE CHANGE --workload cv_experiment \
        --seed 11 --pairs 10 --seconds 12 --label lean_cv

BASE and CHANGE are checkout directories, each with `perfbench/run.py` and
`src/conicmtl`. Pair k runs `perfbench/run.py --trace 0` once in each, one
after the other; the base goes first on even pairs and the change on odd
ones, so a drift of the machine's load does not favour either side.
Every run's metrics, the per-side medians and quartiles, and the per-pair
ratios (change / base) go to `BENCH_<label>.json` in the current
directory. Nothing in either checkout is modified.
"""

from __future__ import annotations

import argparse
import json
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
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
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


def summarize(runs) -> dict:
    """Per metric: each side's median and quartiles, and the per-pair ratios."""
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
    summary = summarize(runs)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "command": f"perfbench/run.py --workload {args.workload} --seed {args.seed} "
                   f"--seconds {args.seconds} --trace 0",
        "order": "base first on even pairs, change first on odd pairs",
        "facts": facts,
        "summary": summary,
        "runs": runs,
    }
    path = Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps(record, indent=1, sort_keys=False) + "\n", encoding="utf-8")
    wall = summary["wall_s"]
    print(f"wall_s median base {wall['base']['median']:.4f} s, change {wall['change']['median']:.4f} s, "
          f"median ratio {wall['median_ratio']:.3f}, change lower in {wall['pairs_lower']} of {args.pairs} pairs")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
