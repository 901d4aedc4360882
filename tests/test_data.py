import runpy
from pathlib import Path

import numpy as np
import pytest

from conicmtl.data import (
    Scaler,
    TaskDataset,
    balanced_resample,
    build_ovo_tasks,
    load_sparse_text,
    load_task_directory,
    prepare_run,
    sample_mtl_path,
    sample_multiclass_path,
    save_task_directory,
    stratified_split,
    synth_multitask,
    write_sparse_text,
)
from conicmtl.util import derive_seed


# ------------------------------------------------------------ sparse text

def test_parse_basic_line(tmp_path):
    f = tmp_path / "d.txt"
    f.write_text("1 1:0.5 3:2\n")
    X, y = load_sparse_text(f, n_features=3)
    assert np.array_equal(X, [[0.5, 0.0, 2.0]])
    assert y[0] == 1.0


def test_parse_empty_feature_list(tmp_path):
    f = tmp_path / "d.txt"
    f.write_text("-1\n1 1:2\n")
    X, y = load_sparse_text(f)
    assert np.array_equal(X[0], [0.0])
    assert np.array_equal(y, [-1.0, 1.0])


def test_parse_skips_comments_and_blank_lines_and_counts_them_in_line_numbers(tmp_path):
    f = tmp_path / "d.txt"
    f.write_text("# two samples\n\n1 1:0.5\n   \n  # indented comment\n-1 2:3\n")
    X, y = load_sparse_text(f)
    assert np.array_equal(X, [[0.5, 0.0], [0.0, 3.0]])
    assert np.array_equal(y, [1.0, -1.0])
    f.write_text("# header\n\n1 1:1\n1 junk\n")
    with pytest.raises(ValueError, match=":4:"):
        load_sparse_text(f)


def test_parse_rejects_non_ascending_indices(tmp_path):
    f = tmp_path / "d.txt"
    f.write_text("1 2:1 1:1\n")
    with pytest.raises(ValueError, match="ascending"):
        load_sparse_text(f)


def test_parse_reports_line_number(tmp_path):
    f = tmp_path / "d.txt"
    f.write_text("1 1:1\n1 junk\n")
    with pytest.raises(ValueError, match=":2:"):
        load_sparse_text(f)


def test_binary_labels_mapped_to_signs(tmp_path):
    f = tmp_path / "d.txt"
    f.write_text("0 1:1\n1 1:2\n")
    _, y = load_sparse_text(f)
    assert np.array_equal(y, [-1.0, 1.0])


def test_multiclass_labels_kept(tmp_path):
    f = tmp_path / "d.txt"
    f.write_text("1 1:1\n2 1:2\n3 1:3\n")
    _, y = load_sparse_text(f)
    assert np.array_equal(y, [1.0, 2.0, 3.0])


def test_write_load_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((14, 5))
    X[rng.random(X.shape) < 0.4] = 0.0
    y = rng.choice([-1.0, 1.0], 14)
    f = tmp_path / "rt.txt"
    write_sparse_text(f, X, y)
    X2, y2 = load_sparse_text(f, n_features=5)
    assert np.array_equal(X, X2)
    assert np.array_equal(y, y2)


# -------------------------------------------------------------------- ovo

def test_ovo_task_counts():
    rng = np.random.default_rng(1)
    for k, expected in ((2, 1), (4, 6), (10, 45)):
        X = rng.standard_normal((6 * k, 3))
        labels = np.repeat(np.arange(k), 6)
        tasks = build_ovo_tasks(X, labels)
        assert len(tasks) == expected


def test_ovo_lower_class_maps_to_positive_and_partitions_pairs():
    X = np.arange(12, dtype=float).reshape(6, 2)
    labels = np.array([0, 0, 1, 1, 2, 2])
    tasks = build_ovo_tasks(X, labels)
    ids = [t.task_id for t in tasks]
    assert ids == ["0_vs_1", "0_vs_2", "1_vs_2"]
    t01 = tasks[0]
    assert np.array_equal(t01.y, [1.0, 1.0, -1.0, -1.0])
    # every sample of a pair lands in exactly one task
    total = sum(t.n for t in tasks)
    assert total == 3 * 4


def test_ovo_needs_two_classes():
    with pytest.raises(ValueError, match="two classes"):
        build_ovo_tasks(np.zeros((3, 2)), np.zeros(3))


def test_ovo_names_a_non_finite_label():
    with pytest.raises(ValueError, match="^labels must be finite, got nan$"):
        build_ovo_tasks(np.zeros((3, 2)), np.array([0.0, np.nan, 1.0]))


# -------------------------------------------------------------- resampling

def make_unbalanced(n_pos=30, n_neg=10, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_pos + n_neg, 3))
    y = np.concatenate([np.ones(n_pos), -np.ones(n_neg)])
    return TaskDataset("t", X, y)


def test_balanced_resample_majority_down_to_minority():
    task = balanced_resample(make_unbalanced(), seed=1)
    assert int((task.y > 0).sum()) == 10
    assert int((task.y < 0).sum()) == 10


def test_balanced_resample_noop_when_balanced():
    base = make_unbalanced(n_pos=8, n_neg=8)
    out = balanced_resample(base, seed=2)
    assert np.array_equal(out.X, base.X)
    assert np.array_equal(out.y, base.y)


def test_balanced_resample_seed_changes_subset_not_size():
    a = balanced_resample(make_unbalanced(), seed=3)
    b = balanced_resample(make_unbalanced(), seed=4)
    assert a.n == b.n == 20
    assert not np.array_equal(a.X, b.X)
    again = balanced_resample(make_unbalanced(), seed=3)
    assert np.array_equal(a.X, again.X)


def test_balanced_resample_rejects_missing_class():
    task = TaskDataset("t", np.zeros((3, 2)), np.ones(3))
    with pytest.raises(ValueError, match="missing a class"):
        balanced_resample(task, seed=0)


# ------------------------------------------------------------------ splits

def test_stratified_split_half_and_fifth():
    task = make_unbalanced(10, 10)
    tr, te = stratified_split(task, 0.5, seed=0)
    assert int((tr.y > 0).sum()) == 5 and int((tr.y < 0).sum()) == 5
    assert tr.n + te.n == 20
    task2 = make_unbalanced(50, 50)
    tr2, _ = stratified_split(task2, 0.2, seed=0)
    assert int((tr2.y > 0).sum()) == 10 and int((tr2.y < 0).sum()) == 10


def test_stratified_split_deterministic_and_disjoint():
    task = make_unbalanced(20, 12)
    a_tr, a_te = stratified_split(task, 0.4, seed=5)
    b_tr, b_te = stratified_split(task, 0.4, seed=5)
    assert np.array_equal(a_tr.X, b_tr.X) and np.array_equal(a_te.X, b_te.X)
    joined = np.vstack([a_tr.X, a_te.X])
    assert joined.shape[0] == task.n
    assert {tuple(r) for r in joined} == {tuple(r) for r in task.X}


def test_stratified_split_preserves_ratio_within_one():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n_pos = int(rng.integers(6, 40))
        n_neg = int(rng.integers(6, 40))
        frac = float(rng.uniform(0.2, 0.8))
        task = make_unbalanced(n_pos, n_neg, seed=int(rng.integers(1000)))
        tr, _ = stratified_split(task, frac, seed=0)
        assert abs(int((tr.y > 0).sum()) - frac * n_pos) <= 0.5 + 1e-9
        assert abs(int((tr.y < 0).sum()) - frac * n_neg) <= 0.5 + 1e-9


def test_stratified_split_rejects_too_small_fraction():
    task = make_unbalanced(3, 3)
    with pytest.raises(ValueError, match="fraction"):
        stratified_split(task, 0.05, seed=0)


def test_stratified_split_rejects_fraction_that_leaves_no_test_samples():
    with pytest.raises(ValueError, match="fraction 0.99 leaves no test samples for task 't'"):
        stratified_split(make_unbalanced(10, 10), 0.99, seed=0)
    # an empty test part in one class only still leaves a test set
    tr, te = stratified_split(make_unbalanced(10, 3), 0.9, seed=0)
    assert (tr.n, te.n) == (12, 1)


# --------------------------------------------------------------- synthetic

def test_synth_balanced_labels_and_determinism():
    a = synth_multitask(T=3, N=21, d=4, seed=9)
    b = synth_multitask(T=3, N=21, d=4, seed=9)
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.X, tb.X)
        assert abs(int((ta.y > 0).sum()) - int((ta.y < 0).sum())) <= 1
        assert np.all(np.isfinite(ta.X))


def test_synth_identical_direction_at_full_similarity():
    data = synth_multitask(T=4, N=40, d=5, task_similarity=1.0, noise=0.0, seed=10)
    mus = [t.X[t.y > 0].mean(axis=0) for t in data]
    for mu in mus[1:]:
        assert np.allclose(mu, mus[0], atol=1e-12)


def test_synth_zero_noise_is_separable():
    data = synth_multitask(T=2, N=30, d=4, task_similarity=0.5, noise=0.0, seed=11)
    for t in data:
        mu = t.X[t.y > 0].mean(axis=0)
        assert np.all((t.X @ mu) * t.y > 0)


def test_synth_uncorrelated_directions_at_zero_similarity():
    rng = np.random.default_rng(12)
    cors = []
    for seed in range(100):
        data = synth_multitask(T=2, N=10, d=6, task_similarity=0.0, noise=0.0, seed=seed)
        m0 = data[0].X[data[0].y > 0].mean(axis=0)
        m1 = data[1].X[data[1].y > 0].mean(axis=0)
        cors.append(float(m0 @ m1 / (np.linalg.norm(m0) * np.linalg.norm(m1))))
    assert abs(np.mean(cors)) < 0.15


# ---------------------------------------------------------------- directory

def test_task_directory_roundtrip(tmp_path):
    data = synth_multitask(T=3, N=12, d=4, seed=13)
    save_task_directory(data, tmp_path / "ds")
    loaded = load_task_directory(tmp_path / "ds")
    assert [t.task_id for t in loaded] == [t.task_id for t in data]
    for a, b in zip(loaded, data):
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)


def test_task_directory_requires_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_task_directory(tmp_path)


def test_task_directory_rejects_a_task_listed_twice(tmp_path):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("d = 2\ntask = a\ntask = a\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_task_directory(tmp_path)
    assert str(err.value) == f"{manifest}:3: task 'a' listed twice"


@pytest.mark.parametrize("value", ["x", "2.5", "-1", "0", ""])
def test_task_directory_names_the_manifest_line_of_a_bad_dimension(tmp_path, value):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"# a comment line\nd = {value}\ntask = a\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_task_directory(tmp_path)
    assert str(err.value) == f"{manifest}:2: feature dimension d = {value!r} is not a positive integer"


# ------------------------------------------------------------- prepare_run

def unbalanced_tasks():
    a = make_unbalanced(n_pos=30, n_neg=10, seed=0)
    b = make_unbalanced(n_pos=7, n_neg=19, seed=1)
    return [
        TaskDataset("a", a.X, a.y),
        TaskDataset("b", b.X + 4.0, b.y),
    ]


def standardized(train, parts):
    """Reference standardization on the pooled training features."""
    pooled = np.vstack([t.X for t in train])
    mean, scale = pooled.mean(axis=0), pooled.std(axis=0)
    scale[scale == 0.0] = 1.0
    return [(t.task_id, (t.X - mean) / scale, t.y) for t in parts]


def as_tuples(tasks):
    return [(t.task_id, t.X, t.y) for t in tasks]


def assert_same_tasks(got, expected):
    assert len(got) == len(expected)
    for (gid, gX, gy), (eid, eX, ey) in zip(as_tuples(got), expected):
        assert gid == eid
        np.testing.assert_array_equal(gX, eX)
        np.testing.assert_array_equal(gy, ey)


def test_prepare_run_balances_splits_and_standardizes_on_train():
    tasks = unbalanced_tasks()
    train, test, scaler = prepare_run(tasks, 0.5, seed=21, balanced=True)
    ref_train, ref_test = [], []
    for task in tasks:
        kept = balanced_resample(task, derive_seed(21, "balance", task.task_id))
        tr, te = stratified_split(kept, 0.5, derive_seed(21, "split", task.task_id))
        ref_train.append(tr)
        ref_test.append(te)
    # balancing drops majority samples: 30/10 keeps 20, 7/19 keeps 14
    assert [tr.n + te.n for tr, te in zip(ref_train, ref_test)] == [20, 14]
    assert_same_tasks(train, standardized(ref_train, ref_train))
    assert_same_tasks(test, standardized(ref_train, ref_test))
    pooled = np.vstack([t.X for t in ref_train])
    np.testing.assert_array_equal(scaler.mean, pooled.mean(axis=0))


def test_prepare_run_without_fraction_trains_on_whole_tasks():
    tasks = unbalanced_tasks()
    train, test, _ = prepare_run(tasks, None, seed=5, balanced=False)
    assert test is None
    assert_same_tasks(train, standardized(tasks, tasks))
    train, test, _ = prepare_run(tasks, None, seed=5, balanced=True)
    kept = [balanced_resample(t, derive_seed(5, "balance", t.task_id)) for t in tasks]
    assert test is None
    assert [t.n for t in train] == [20, 14]
    assert_same_tasks(train, standardized(kept, kept))


# ------------------------------------------------------------------ scaler

def test_scaler_standardizes_train_and_reuses_parameters():
    rng = np.random.default_rng(14)
    X = rng.standard_normal((50, 3)) * np.array([2.0, 5.0, 0.1]) + np.array([1.0, -3.0, 0.0])
    scaler = Scaler().fit(X)
    Z = scaler.transform(X)
    assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(Z.std(axis=0), 1.0, atol=1e-12)
    X_test = rng.standard_normal((5, 3))
    assert np.allclose(scaler.transform(X_test), (X_test - scaler.mean) / scaler.scale)


def test_scaler_names_both_feature_counts_of_mismatched_data():
    scaler = Scaler().fit(np.ones((10, 4)))
    with pytest.raises(ValueError, match=r"^data have 6 features, but the scaler was fitted on 4$"):
        scaler.transform(np.ones((30, 6)))
    with pytest.raises(ValueError, match=r"^data have 3 features, but the scaler was fitted on 4$"):
        scaler.transform_tasks([TaskDataset("t0", np.ones((5, 3)), np.ones(5))])


def test_scaler_constant_feature_is_left_centered():
    X = np.ones((10, 2))
    X[:, 1] = np.arange(10)
    Z = Scaler().fit(X).transform(X)
    assert np.allclose(Z[:, 0], 0.0)


# ----------------------------------------------------------------- bundled

def test_bundled_samples_load():
    X, labels = load_sparse_text(sample_multiclass_path())
    assert X.shape[1] == 5
    assert np.unique(labels).size == 3
    tasks = build_ovo_tasks(X, labels)
    assert len(tasks) == 3
    mtl = load_task_directory(sample_mtl_path())
    assert len(mtl) == 2
    assert mtl[0].X.shape[1] == 5


def test_sample_data_script_reproduces_the_bundled_samples(tmp_path):
    script = runpy.run_path(str(Path(__file__).resolve().parents[1] / "scripts" / "make_sample_data.py"))
    script["multiclass"](tmp_path / "multiclass.txt")
    assert (tmp_path / "multiclass.txt").read_bytes() == sample_multiclass_path().read_bytes()
    script["mtl_directory"](tmp_path / "mtl")
    bundled = sorted(path.name for path in sample_mtl_path().iterdir())
    assert sorted(path.name for path in (tmp_path / "mtl").iterdir()) == bundled
    for name in bundled:
        assert (tmp_path / "mtl" / name).read_bytes() == (sample_mtl_path() / name).read_bytes()


# ------------------------------------------------------------- rejections

@pytest.mark.parametrize(
    "X, y, message",
    [
        (np.zeros((3, 2)), [1.0, -1.0], "bad shapes for task 't': (3, 2), (2,)"),
        (np.zeros(2), [1.0, -1.0], "bad shapes for task 't': (2,), (2,)"),
        ([[0.0], [np.inf]], [1.0, -1.0], "task 't' has non-finite features"),
        (np.zeros((3, 1)), [1.0, 0.0, 2.0], "task 't' labels must be +1/-1, got [0.0, 1.0, 2.0]"),
    ],
)
def test_task_dataset_rejects_bad_input_by_name(X, y, message):
    with pytest.raises(ValueError) as err:
        TaskDataset("t", X, y)
    assert str(err.value) == message


def test_an_unfitted_scaler_refuses_to_transform():
    with pytest.raises(ValueError, match="^scaler not fitted$"):
        Scaler().transform(np.zeros((2, 3)))


def test_sparse_text_names_a_bad_label_and_an_index_above_the_dimension(tmp_path):
    f = tmp_path / "d.txt"
    f.write_text("1 1:0.5\npos 1:2\n")
    with pytest.raises(ValueError) as err:
        load_sparse_text(f, n_features=1)
    assert str(err.value) == f"{f}:2: bad label 'pos'"
    f.write_text("1 1:0.5\n-1 3:2\n")
    with pytest.raises(ValueError) as err:
        load_sparse_text(f, n_features=2)
    assert str(err.value) == f"{f}: index 3 exceeds feature count 2"


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, float("nan")])
def test_stratified_split_names_a_fraction_outside_the_open_unit_interval(fraction):
    task = TaskDataset("t", np.zeros((4, 1)), [1.0, -1.0, 1.0, -1.0])
    with pytest.raises(ValueError) as err:
        stratified_split(task, fraction, seed=0)
    assert str(err.value) == f"fraction must lie in (0, 1), got {fraction!r}"


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(task_similarity=1.5), "task_similarity must lie in [0, 1], got 1.5"),
        (dict(task_similarity=-0.1), "task_similarity must lie in [0, 1], got -0.1"),
        (dict(noise=-0.2), "noise must be nonnegative, got -0.2"),
    ],
)
def test_synth_multitask_names_a_value_out_of_range(kwargs, message):
    with pytest.raises(ValueError) as err:
        synth_multitask(**{"T": 2, "N": 4, "d": 2, **kwargs})
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("d = 2\ntasks = a\n", ":2: unknown manifest key 'tasks'"),
        ("# no dimension\ntask = a\n", ": missing feature dimension"),
    ],
)
def test_task_directory_names_an_unknown_key_and_a_missing_dimension(tmp_path, text, message):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_task_directory(tmp_path)
    assert str(err.value) == f"{manifest}{message}"
