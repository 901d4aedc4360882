"""Checks of the summary, the gain, no-regression and failure rules and the source digest of
scripts/bench_pairs.py, on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def runs_of(base, change, name="peak_rss_mb"):
    """Runs as main() sorts them: every base run by pair, then every change run."""
    return [
        {"pair": k, "side": side, "metrics": {name: value}}
        for side, values in (("base", base), ("change", change))
        for k, value in enumerate(values)
    ]


BASE = [48.0, 48.1, 48.2, 48.1, 48.0, 48.3, 48.1, 48.2, 48.0, 48.1]


def test_summary_has_medians_quartiles_ratios_and_pair_counts():
    change = [44.0, 44.5, 48.2, 44.1, 44.0, 49.0, 44.2, 44.3, 44.1, 44.0]
    entry = bench_pairs.summarize(runs_of(BASE, change))["peak_rss_mb"]
    assert entry["base"] == {"median": 48.1, "q1": pytest.approx(48.025), "q3": pytest.approx(48.175)}
    assert entry["change"]["median"] == pytest.approx(44.15)
    assert entry["pair_ratios"] == [c / b for b, c in zip(BASE, change)]
    assert (entry["pairs_lower"], entry["pairs_higher"]) == (8, 1)
    assert "gain_rule" not in entry and "no_regression" not in entry  # no direction given


@pytest.mark.parametrize(
    "change, better, pairs_better, holds",
    [
        ([v - 4.0 for v in BASE[:9]] + [BASE[9] + 1.0], "lower", 9, True),
        ([v - 4.0 for v in BASE[:8]] + [BASE[8] + 1.0, BASE[9] + 1.0], "lower", 8, False),
        ([v - 4.0 for v in BASE[:8]] + BASE[8:], "lower", 8, False),  # ties count for neither side
        ([v - 0.05 for v in BASE], "lower", 10, False),  # every pair lower, median shift inside the IQR
        ([v + 4.0 for v in BASE], "higher", 10, True),
        ([v - 4.0 for v in BASE], "higher", 0, False),
    ],
    ids=["nine-of-ten", "eight-of-ten", "ties", "within-iqr", "higher-is-better", "wrong-direction"],
)
def test_gain_rule_needs_nine_of_ten_pairs_and_a_shift_beyond_the_base_iqr(change, better, pairs_better, holds):
    rule = bench_pairs.summarize(runs_of(BASE, change), {"peak_rss_mb": better})["peak_rss_mb"]["gain_rule"]
    assert rule["better"] == better and rule["pairs_better"] == pairs_better
    assert rule["base_iqr"] == pytest.approx(0.15)
    assert rule["holds"] is holds


def test_directions_come_from_the_benchmark_declaration():
    assert bench_pairs.directions(ROOT) == {
        "wall_s": "lower", "setup_s": "lower", "peak_rss_mb": "lower", "mean_accuracy": "higher",
    }


def test_bounds_come_from_the_benchmark_declaration():
    assert bench_pairs.regression_bounds(ROOT) == {
        "wall_s": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.1, "mean_accuracy": 0.15,
    }


@pytest.mark.parametrize(
    "name, base, change, better, holds",
    [
        ("setup_s", 0.140, 0.185, "lower", False),  # a refused change's medians: ratio 1.32 against a 0.25 bound
        ("wall_s", 1.383, 1.327, "lower", True),  # the same change's wall time fell
        ("wall_s", 1.0, 1.24, "lower", True),
        ("mean_accuracy", 0.80, 0.70, "higher", True),
        ("mean_accuracy", 0.80, 0.67, "higher", False),
    ],
    ids=["setup-regressed", "wall-fell", "wall-within-bound", "accuracy-within-bound", "accuracy-regressed"],
)
def test_no_regression_rule_fails_a_median_worse_than_the_bound_allows(name, base, change, better, holds):
    runs = runs_of([base] * 10, [change] * 10, name)
    entry = bench_pairs.summarize(runs, {name: better}, bench_pairs.regression_bounds(ROOT))[name]
    rule = entry["no_regression"]
    assert rule["bound"] == bench_pairs.regression_bounds(ROOT)[name]
    assert rule["worse_by"] == pytest.approx(change - base if better == "lower" else base - change)
    assert rule["holds"] is holds


@pytest.mark.parametrize(
    "change, failed, share, any_incorrect, holds",
    [
        ([(300, 3), (100, 1)], 4, 0.01, True, True),  # the base's share, from other runs
        ([(200, 0), (200, 0)], 0, 0.0, False, True),
        ([(200, 2), (200, 3)], 5, 0.0125, True, False),
    ],
    ids=["same-share", "no-failures", "larger-share"],
)
def test_failure_rule_compares_each_sides_failed_share(change, failed, share, any_incorrect, holds):
    base = [(100, 0), (300, 4)]
    runs = [
        {"side": side, "attempted": attempted, "failed": n_failed, "correct": n_failed == 0}
        for side, counts in (("base", base), ("change", change))
        for attempted, n_failed in counts
    ]
    record = bench_pairs.failures(runs)
    assert record["base"] == {"attempted": 400, "failed": 4, "failed_share": 0.01, "any_incorrect": True}
    assert record["change"] == {
        "attempted": 400, "failed": failed, "failed_share": pytest.approx(share), "any_incorrect": any_incorrect,
    }
    assert record["holds"] is holds


def test_source_digest_covers_every_path_and_byte(tmp_path):
    pkg = tmp_path / "src" / "conicmtl"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\n")
    (pkg / "sub" / "b.py").write_text("y = 2\n")
    (pkg / "notes.txt").write_text("not source\n")
    first = bench_pairs.src_sha256(tmp_path)
    assert len(first) == 64
    (pkg / "notes.txt").write_text("changed\n")
    assert bench_pairs.src_sha256(tmp_path) == first
    (pkg / "sub" / "b.py").write_text("y = 3\n")
    assert bench_pairs.src_sha256(tmp_path) != first
    (pkg / "sub" / "b.py").write_text("y = 2\n")
    (pkg / "sub" / "b.py").rename(pkg / "b.py")
    assert bench_pairs.src_sha256(tmp_path) != first


def test_source_line_counts_cover_the_digested_files(tmp_path):
    pkg = tmp_path / "src" / "conicmtl"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\n\n   \ny = 2\n")
    (pkg / "sub" / "b.py").write_text("z = 3\n")
    (pkg / "notes.txt").write_text("not source\n\n")
    assert bench_pairs.src_lines(tmp_path) == {"physical": 5, "non_blank": 3}


def test_runs_write_no_bytecode_into_the_checkout(tmp_path, monkeypatch):
    pkg = tmp_path / "src" / "conicmtl"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "layer.py").write_text("VALUE = 1\n")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json, sys\n"
        "sys.path.insert(0, 'src')\n"
        "import conicmtl.layer\n"
        "print('facts ' + json.dumps({'seed': 1}))\n"
        "print(json.dumps({'correct': True, 'attempted': 1, 'failed': 0, 'metrics': {'wall_s': {'value': 0.5}}}))\n"
    )
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    args = bench_pairs._parse([str(tmp_path), str(tmp_path), "--workload", "cv_experiment", "--seed", "1",
                               "--pairs", "1", "--seconds", "1", "--label", "x"])
    run = bench_pairs.run_once(tmp_path, args)
    assert run["metrics"] == {"wall_s": 0.5} and run["facts"] == {"seed": 1}
    assert not list(tmp_path.rglob("__pycache__"))
