"""Dataset ingestion, task construction, resampling, splits and synthesis."""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .util import derive_seed, float_text


@dataclass
class TaskDataset:
    """One binary task: features X (N x d), labels y in {-1, +1}."""

    task_id: str
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64).ravel()
        if self.X.ndim != 2 or self.X.shape[0] != self.y.size:
            raise ValueError(f"bad shapes for task {self.task_id!r}: {self.X.shape}, {self.y.shape}")
        if not np.all(np.isfinite(self.X)):
            raise ValueError(f"task {self.task_id!r} has non-finite features")
        if not np.all(np.abs(self.y) == 1.0):
            raise ValueError(f"task {self.task_id!r} labels must be +1/-1")

    @property
    def n(self) -> int:
        return self.y.size

    def subset(self, idx) -> "TaskDataset":
        return TaskDataset(self.task_id, self.X[idx], self.y[idx])


class Scaler:
    """Per-dimension standardization fitted on training data only."""

    def __init__(self, mean=None, scale=None):
        self.mean = None if mean is None else np.asarray(mean, dtype=float)
        self.scale = None if scale is None else np.asarray(scale, dtype=float)

    def fit(self, X) -> "Scaler":
        X = np.asarray(X, dtype=np.float64)
        self.mean = X.mean(axis=0)
        std = X.std(axis=0)
        std[std == 0.0] = 1.0  # constant feature: leave it centered
        self.scale = std
        return self

    def transform(self, X) -> np.ndarray:
        if self.mean is None:
            raise ValueError("scaler not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.shape[-1] != self.mean.size:
            raise ValueError(f"data have {X.shape[-1]} features, but the scaler was fitted on {self.mean.size}")
        return (X - self.mean) / self.scale

    def transform_tasks(self, tasks) -> list:
        """The tasks with standardized features; ids and labels kept."""
        return [TaskDataset(t.task_id, self.transform(t.X), t.y) for t in tasks]


def load_sparse_text(path, n_features=None):
    """Read the sparse text format: per line "label idx:val idx:val ...".

    Indices are 1-based and must be strictly ascending within a line.
    Returns (X, labels) with X dense; implicit entries are zero. Labels are
    mapped to -1/+1 when exactly two distinct values occur (larger value to
    +1), and kept as given otherwise.
    """
    rows = []
    labels = []
    max_idx = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                labels.append(float(parts[0]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad label {parts[0]!r}") from exc
            entries = []
            prev = 0
            for tok in parts[1:]:
                idx_text, _, val_text = tok.partition(":")
                try:
                    idx = int(idx_text)
                    val = float(val_text)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: malformed entry {tok!r}") from exc
                if idx <= prev:
                    raise ValueError(f"{path}:{lineno}: indices must be ascending, got {idx} after {prev}")
                prev = idx
                entries.append((idx, val))
            max_idx = max(max_idx, prev)
            rows.append(entries)
    d = n_features if n_features is not None else max_idx
    X = np.zeros((len(rows), d))
    for i, entries in enumerate(rows):
        for idx, val in entries:
            if idx > d:
                raise ValueError(f"{path}: index {idx} exceeds feature count {d}")
            X[i, idx - 1] = val
    labels = np.array(labels)
    distinct = np.unique(labels)
    if distinct.size == 2 and set(distinct) != {-1.0, 1.0}:
        labels = np.where(labels == distinct.max(), 1.0, -1.0)
    return X, labels


def write_sparse_text(path, X, labels) -> None:
    """Write the sparse text format; zeros are dropped."""
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels).ravel()
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(X.shape[0]):
            label = labels[i]
            head = str(int(label)) if float(label).is_integer() else float_text(label)
            toks = [head]
            for j in np.flatnonzero(X[i]):
                toks.append(f"{j + 1}:{float_text(X[i, j])}")
            fh.write(" ".join(toks) + "\n")


def build_ovo_tasks(X, labels) -> list[TaskDataset]:
    """One task per unordered class pair; K classes give K(K-1)/2 tasks.

    Classes are paired in sorted order and the lower class maps to +1.
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels).ravel()
    classes = sorted(np.unique(labels).tolist())
    if len(classes) < 2:
        raise ValueError(f"need at least two classes, got {classes}")
    for c in classes:
        if not np.any(labels == c):
            raise ValueError(f"class {c} has no samples")
    tasks = []
    for a_pos, a in enumerate(classes):
        for b in classes[a_pos + 1 :]:
            mask = (labels == a) | (labels == b)
            y = np.where(labels[mask] == a, 1.0, -1.0)
            name_a = int(a) if float(a).is_integer() else a
            name_b = int(b) if float(b).is_integer() else b
            tasks.append(TaskDataset(f"{name_a}_vs_{name_b}", X[mask], y))
    return tasks


def balanced_resample(task: TaskDataset, seed: int) -> TaskDataset:
    """Subsample the majority class (without replacement) to the minority count."""
    pos = np.flatnonzero(task.y > 0)
    neg = np.flatnonzero(task.y < 0)
    if pos.size == 0 or neg.size == 0:
        raise ValueError(f"task {task.task_id!r} is missing a class")
    rng = np.random.default_rng(seed)
    if pos.size > neg.size:
        pos = np.sort(rng.choice(pos, size=neg.size, replace=False))
    elif neg.size > pos.size:
        neg = np.sort(rng.choice(neg, size=pos.size, replace=False))
    keep = np.sort(np.concatenate([pos, neg]))
    return task.subset(keep)


def stratified_split(task: TaskDataset, fraction: float, seed: int):
    """Per-class proportional train/test split; train and test partition the task."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    train_idx = []
    n_test = 0
    for sign in (1.0, -1.0):
        members = np.flatnonzero(task.y == sign)
        n_train = int(round(fraction * members.size))
        if n_train < 1:
            raise ValueError(
                f"fraction {fraction} leaves no training samples for a class of task {task.task_id!r}"
            )
        n_test += members.size - n_train
        train_idx.append(rng.choice(members, size=n_train, replace=False))
    if n_test == 0:
        raise ValueError(f"fraction {fraction} leaves no test samples for task {task.task_id!r}")
    train_idx = np.sort(np.concatenate(train_idx))
    mask = np.zeros(task.n, dtype=bool)
    mask[train_idx] = True
    return task.subset(np.flatnonzero(mask)), task.subset(np.flatnonzero(~mask))


def prepare_run(dataset, fraction, seed, balanced):
    """One run's data: balance, split and standardize every task.

    Each task is balanced (when asked) with derive_seed(seed, "balance", id)
    and split with derive_seed(seed, "split", id); fraction=None keeps the
    whole task for training and returns test=None. Every part is
    standardized on the pooled training features.
    Returns (train, test, scaler) with train and test lists of tasks.
    """
    train, test = [], []
    for task in dataset:
        if balanced:
            task = balanced_resample(task, derive_seed(seed, "balance", task.task_id))
        if fraction is None:
            train.append(task)
        else:
            tr, te = stratified_split(task, fraction, derive_seed(seed, "split", task.task_id))
            train.append(tr)
            test.append(te)
    scaler = Scaler().fit(np.vstack([t.X for t in train]))
    return scaler.transform_tasks(train), None if fraction is None else scaler.transform_tasks(test), scaler


def synth_multitask(
    T: int,
    N: int,
    d: int,
    task_similarity: float = 0.7,
    noise: float = 0.5,
    seed: int = 0,
) -> list[TaskDataset]:
    """Synthetic related binary tasks.

    Each task gets a unit direction mu_t mixing a shared direction with a
    private one by task_similarity. Positives sit near +mu_t and negatives
    near -mu_t, both with isotropic gaussian noise. Labels are balanced.
    """
    if not 0.0 <= task_similarity <= 1.0:
        raise ValueError("task_similarity must lie in [0, 1]")
    if noise < 0:
        raise ValueError("noise must be nonnegative")
    rng = np.random.default_rng(seed)
    shared = rng.standard_normal(d)
    shared /= np.linalg.norm(shared)
    tasks = []
    n_pos = N // 2 + (N % 2)
    n_neg = N // 2
    for t in range(T):
        private = rng.standard_normal(d)
        private /= np.linalg.norm(private)
        mu = task_similarity * shared + (1.0 - task_similarity) * private
        norm = np.linalg.norm(mu)
        if norm == 0.0:
            mu = private
        else:
            mu = mu / norm
        X = np.vstack(
            [
                mu + noise * rng.standard_normal((n_pos, d)),
                -mu + noise * rng.standard_normal((n_neg, d)),
            ]
        )
        y = np.concatenate([np.ones(n_pos), -np.ones(n_neg)])
        order = rng.permutation(N)
        tasks.append(TaskDataset(f"synth{t}", X[order], y[order]))
    return tasks


def synthetic_benchmark(seed: int = 0) -> list[TaskDataset]:
    """The bundled 4-task benchmark used by the comparison checks."""
    return synth_multitask(T=4, N=90, d=6, task_similarity=0.75, noise=0.85, seed=seed)


MANIFEST_NAME = "manifest.txt"


def save_task_directory(tasks, directory) -> None:
    """Write one sparse text file per task plus a manifest (ids and d)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = [f"d = {tasks[0].X.shape[1]}"]
    for task in tasks:
        write_sparse_text(directory / f"task_{task.task_id}.txt", task.X, task.y)
        lines.append(f"task = {task.task_id}")
    (directory / MANIFEST_NAME).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_task_directory(directory) -> list[TaskDataset]:
    """The tasks a manifest lists, in its order; an id listed twice is an error."""
    directory = Path(directory)
    manifest = directory / MANIFEST_NAME
    if not manifest.exists():
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {directory}")
    d = None
    ids = []
    for lineno, line in enumerate(manifest.read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "d":
            if not value.isdecimal() or int(value) < 1:
                raise ValueError(f"{manifest}:{lineno}: feature dimension d = {value!r} is not a positive integer")
            d = int(value)
        elif key == "task":
            if value in ids:
                raise ValueError(f"{manifest}:{lineno}: task {value!r} listed twice")
            ids.append(value)
        else:
            raise ValueError(f"{manifest}:{lineno}: unknown manifest key {key!r}")
    if d is None:
        raise ValueError(f"{manifest}: missing feature dimension")
    tasks = []
    for task_id in ids:
        X, y = load_sparse_text(directory / f"task_{task_id}.txt", n_features=d)
        tasks.append(TaskDataset(task_id, X, y))
    return tasks


def sample_multiclass_path() -> Path:
    """Bundled tiny multiclass file in sparse text format."""
    return Path(resources.files("conicmtl").joinpath("assets/sample_multiclass.txt"))


def sample_mtl_path() -> Path:
    """Bundled tiny multi-task directory."""
    return Path(resources.files("conicmtl").joinpath("assets/sample_mtl"))
