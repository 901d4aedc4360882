#!/usr/bin/env python3
"""Regenerate the tiny bundled sample datasets (committed under assets/)."""

from pathlib import Path

import numpy as np

from conicmtl.data import TaskDataset, save_task_directory, synth_multitask, write_sparse_text

ASSETS = Path(__file__).resolve().parent.parent / "src" / "conicmtl" / "assets"


def multiclass(path):
    rng = np.random.default_rng(20240817)
    d = 5
    per_class = 24
    rows, labels = [], []
    centers = rng.standard_normal((3, d)) * 1.6
    for cls, center in enumerate(centers, start=1):
        pts = center + 0.9 * rng.standard_normal((per_class, d))
        # sparsify a little so the format's implicit zeros get exercised
        mask = rng.random(pts.shape) < 0.2
        pts[mask] = 0.0
        rows.append(pts)
        labels.extend([cls] * per_class)
    X = np.round(np.vstack(rows), 4)
    order = rng.permutation(len(labels))
    write_sparse_text(path, X[order], np.array(labels, dtype=float)[order])


def mtl_directory(path):
    dataset = synth_multitask(T=2, N=40, d=5, task_similarity=0.8, noise=0.6, seed=7)
    rounded = [TaskDataset(t.task_id, np.round(t.X, 4), t.y) for t in dataset]
    save_task_directory(rounded, path)


if __name__ == "__main__":
    ASSETS.mkdir(parents=True, exist_ok=True)
    multiclass(ASSETS / "sample_multiclass.txt")
    mtl_directory(ASSETS / "sample_mtl")
    print(f"wrote sample data under {ASSETS}")
