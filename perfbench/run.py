"""conicmtl benchmark runner.

    python3 perfbench/run.py --workload cv_experiment --seed 1 --seconds 38 --trace 0

A single-process closed loop: one pass of the workload starts only after
the previous one returned, for about `--seconds` seconds and at least two
passes. Inputs come from `--seed` alone. A pass runs the workload's units
in order and times each unit; every pass is checked, and a failed check or
operation counts in `failed`.

With `--trace 0` the run reports the end-to-end metrics:

  wall_s         wall time of one pass: the sum over units of each unit's
                 fastest time in the run (see README.md for why not the
                 median)
  setup_s        median over fresh interpreters of the time to import
                 conicmtl and build the workload's inputs
  peak_rss_mb    peak resident memory of this process
  mean_accuracy  mean held-out accuracy of the pass's models

With `--trace 1` it first times untraced passes, then installs the
wrappers of `tracing.py` and reports per-layer metrics (medians over the
traced passes) and the tracing overhead.

Human-readable lines come first; the last line of standard output is the
JSON result `{"correct", "attempted", "failed", "metrics"}`. `--smoke`
shrinks every workload for the benchmark's own tests.

The package is imported from `src/` of the checkout this file sits in; the
run fails when that is missing. BLAS is pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = BLAS_THREADS  # before numpy loads, here and in set-up children

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
MIN_PASSES = 2


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("cv_experiment", "bound_report", "bias_holdout"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="reduced sizes, for the benchmark's tests")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _setup(args):
    """Import the package and build the workload; returns (workload, seconds)."""
    started = time.perf_counter()
    import workloads  # imports numpy and conicmtl

    workload = workloads.make(args.workload, args.seed, args.smoke, ROOT)
    elapsed = time.perf_counter() - started
    import conicmtl

    if Path(conicmtl.__file__).resolve().parent != SRC / "conicmtl":
        raise RuntimeError(f"conicmtl imported from {conicmtl.__file__}, not from {SRC}")
    return workload, elapsed


def _setup_seconds(args, repeats):
    """Median set-up time over fresh interpreters, so no import is cached."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(repeats):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def _run_passes(workload, budget_s, min_passes, outcomes, after=None):
    """Closed loop of passes for about budget_s.

    Returns {unit name: [wall time per pass]}. `after` runs after each
    pass, outside the timed units.
    """
    import workloads

    unit_times = {}
    workload.start()
    try:
        started = time.perf_counter()
        passes = 0
        while True:
            outcome = workloads.PassOutcome()
            for name, unit in workload.units():
                t0 = time.perf_counter()
                unit(outcome)
                unit_times.setdefault(name, []).append(time.perf_counter() - t0)
            outcomes.append(outcome)
            passes += 1
            if after:
                after()
            elapsed = time.perf_counter() - started
            if passes >= min_passes and elapsed * (1 + 1 / passes) > budget_s:
                return unit_times
    finally:
        workload.stop()


def pass_wall(unit_times):
    """Wall time of one pass: the sum over units of each unit's fastest time.

    Other processes on a shared machine only ever add time, in bursts that
    last from under a second to a whole run. Each unit's minimum is the
    figure least touched by them; the median follows them.
    """
    return sum(min(times) for times in unit_times.values())


def _pass_totals(unit_times):
    return [sum(t) for t in zip(*unit_times.values())]


def _git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_lines():
    files = sorted((SRC / "conicmtl").glob("*.py"))
    lines = [line for f in files for line in f.read_text(encoding="utf-8").splitlines()]
    return {
        "src_files": len(files),
        "src_lines_physical": len(lines),
        "src_lines_nonblank": sum(1 for line in lines if line.strip()),
        "src_line_rule": "src/conicmtl/*.py; physical = wc -l, nonblank = lines with a non-space character",
    }


def machine_facts():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_text,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
    }
    facts.update(_src_lines())
    return facts


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def _check_determinism(outcomes):
    """Every pass of one seed must reproduce the first pass exactly."""
    first = outcomes[0]
    failed = 0
    for k, o in enumerate(outcomes[1:], start=1):
        if (o.fingerprint, o.mean_accuracy, o.bound_total) != (first.fingerprint, first.mean_accuracy, first.bound_total):
            failed += 1
            print(f"check failed: pass {k} differs from pass 0", file=sys.stderr)
    return len(outcomes) - 1, failed


def _print_units(unit_times):
    totals = _pass_totals(unit_times)
    for name, times in unit_times.items():
        print(f"  unit {name:<16} n={len(times)} min {min(times):.4f} median {statistics.median(times):.4f} max {max(times):.4f} s")
    print(f"  pass n={len(totals)} sum of unit minimums {pass_wall(unit_times):.4f} s, "
          f"median pass {statistics.median(totals):.4f} s, slowest pass {max(totals):.4f} s")


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "conicmtl" / "__init__.py").is_file():
        print(f"error: no conicmtl package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        _, elapsed = _setup(args)
        print(json.dumps({"setup_s": elapsed}))
        return 0

    setup_s = None if args.trace else _setup_seconds(args, 1 if args.smoke else SETUP_REPEATS)
    workload, _ = _setup(args)

    outcomes = []
    if args.trace:
        import tracing

        # untraced passes first: they are the base of the tracing overhead
        untraced = _run_passes(workload, args.seconds / 2.0, 1, outcomes)
        tracer = tracing.Tracer()
        per_pass, self_times = [], []

        def collect():
            per_pass.append(tracing.layer_metrics(tracer.stats))
            self_times.append({key: st.self_s for key, st in tracer.stats.items()})
            tracer.reset()

        tracer.install()
        try:
            unit_times = _run_passes(workload, args.seconds / 2.0, 1, outcomes, after=collect)
        finally:
            tracer.uninstall()
    else:
        unit_times = _run_passes(workload, args.seconds, MIN_PASSES, outcomes)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for o in outcomes:
        for err in o.errors:
            print(f"check failed: {err}", file=sys.stderr)
    det_attempted, det_failed = _check_determinism(outcomes)
    attempted += det_attempted
    failed += det_failed
    first = outcomes[0]
    wall_s = pass_wall(unit_times)

    print("facts " + json.dumps(machine_facts(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    _print_units(unit_times)
    if args.trace:
        untraced_s = pass_wall(untraced)
        metrics = {
            name: {"value": statistics.median(p[name] for p in per_pass), "unit": tracing.unit_of(name)}
            for name in per_pass[0]
        }
        metrics["bench.trace_overhead_s"] = {"value": wall_s - untraced_s, "unit": "s"}
        traced_pass = statistics.median(_pass_totals(unit_times))
        print(f"  wall_s untraced {untraced_s:.4f} s, traced {wall_s:.4f} s; shares below are of the median traced pass")
        for name, m in metrics.items():
            share = f"  {100.0 * m['value'] / traced_pass:5.1f}%" if m["unit"] == "s" else ""
            print(f"  {name:<44} {m['value']:.6g} {m['unit']}{share}")
        layer_self = {key: statistics.median(p.get(key, 0.0) for p in self_times) for key in self_times[0]}
        ranked = sorted(layer_self.items(), key=lambda kv: -kv[1])[:5]
        print("  largest self-time layers: " + ", ".join(f"{k} {100.0 * v / traced_pass:.1f}%" for k, v in ranked))
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
            "mean_accuracy": {"value": first.mean_accuracy, "unit": "fraction"},
        }
        # failed_frac is 0 when all is well and bound_total exists on one
        # workload only, so neither is in BENCHMARK.json; both are shown
        shown = dict(metrics, failed_frac={"value": failed / attempted, "unit": "fraction"})
        if first.bound_total is not None:
            shown["bound_total"] = {"value": first.bound_total, "unit": "bound"}
        for name, m in shown.items():
            print(f"  {name:<14} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
