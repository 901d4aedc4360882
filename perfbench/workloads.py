"""The benchmark's workloads: input set-up, the timed units of a pass, checks.

Every workload builds its inputs from the workload seed alone and calls the
package through its public module attributes (`training.fit`, not a local
alias), so the tracer sees the calls it makes. A pass runs the workload's
units in order; run.py times each unit on its own. Units record their
operations, checks and results into the pass's `PassOutcome`.

Importing this module imports numpy and `conicmtl`; run.py times that
import as part of set-up.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
from pathlib import Path

import numpy as np

from conicmtl import bounds, data, experiments, kernels, training, verification


class PassOutcome:
    """What one pass produced, and how many of its operations failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.accuracies = []
        self.bound_totals = []
        self._digest = hashlib.sha256()

    def record(self, ok, what: str) -> bool:
        """Count one operation or check; a false `ok` counts as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return bool(ok)

    def output(self, blob: bytes):
        """Add program output that a rerun with the same seed must reproduce."""
        self._digest.update(blob)

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.accuracies)) if self.accuracies else 0.0

    @property
    def bound_total(self):
        return float(np.mean(self.bound_totals)) if self.bound_totals else None

    @property
    def fingerprint(self) -> str:
        return self._digest.hexdigest()


def sub_seed(*parts) -> int:
    """Stable 32-bit seed from printable parts (independent of the package)."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:4], "little")


def trace_monotone(trace, rel: float = 1e-9) -> bool:
    """Objective trace never rises by more than `rel` of its previous value."""
    trace = np.asarray(trace, dtype=float)
    return bool(np.all(np.diff(trace) <= rel * np.maximum(np.abs(trace[:-1]), 1e-12)))


def _scaled_split(dataset, fraction: float, seed: int):
    """Stratified split of every task, standardized on the training part."""
    train, test = [], []
    for task in dataset:
        tr, te = data.stratified_split(task, fraction, sub_seed(seed, "split", task.task_id))
        train.append(tr)
        test.append(te)
    scaler = data.Scaler().fit(np.vstack([t.X for t in train]))

    def scaled(tasks):
        return [data.TaskDataset(t.task_id, scaler.transform(t.X), t.y) for t in tasks]

    return scaled(train), scaled(test)


def _fit(out: PassOutcome, what: str, *args, **kwargs):
    """training.fit, counting a raised fit and a rising trace as failures."""
    try:
        model = training.fit(*args, **kwargs)
    except Exception as exc:  # a raised fit is a failed operation, not a crash
        out.record(False, f"{what}: fit raised {exc!r}")
        return None
    out.record(True, what)
    out.record(trace_monotone(model.objective_trace), f"{what}: objective trace rose")
    return model


class FitRecorder:
    """Keeps the objective trace of every model `experiments.fit` returns.

    `run_experiment` trains its models internally, so this observer is the
    only way to check their traces. It does no timing and is installed in
    traced and untraced runs alike, outside any tracing wrapper.
    """

    def __init__(self):
        self.traces = []
        self._original = None

    def install(self):
        self._original = original = experiments.fit
        traces = self.traces

        def recording_fit(*args, **kwargs):
            model = original(*args, **kwargs)
            traces.append((model.config.mode, model.objective_trace))
            return model

        experiments.fit = recording_fit

    def uninstall(self):
        experiments.fit = self._original


class CvExperiment:
    """The paper's protocol: resampled runs of grid-search cross-validation.

    Each (run, method) pair is one `run_experiment` call and one timed unit.
    """

    METHODS = ("Conic", "Average")

    def __init__(self, seed: int, smoke: bool):
        grid_C = (1.0,) if smoke else (0.25, 1.0, 4.0)
        self.configs = {
            f"{method}.run{run}": experiments.ExperimentConfig(
                dataset="sample:mtl",
                fractions=(0.5,),
                methods=(method,),
                runs=1,
                cv_folds=3,
                grid_C=grid_C,
                grid_p=(2.0,),
                grid_a_frac=(0.5, 1.0),
                master_seed=sub_seed(seed, "run", run),
            )
            for run in range(1 if smoke else 4)
            for method in self.METHODS
        }
        self.recorder = FitRecorder()

    def start(self):
        self.recorder.install()

    def stop(self):
        self.recorder.uninstall()

    def units(self):
        return [(name, self._unit(config)) for name, config in self.configs.items()]

    def _unit(self, config):
        def unit(out: PassOutcome):
            self.recorder.traces.clear()
            table = experiments.run_experiment(config)
            out.output(table.to_csv_text().encode())
            for row in table.rows:
                if out.record(not row.converged.startswith("error:"), f"{row.method}: {row.converged}"):
                    out.accuracies.append(row.mean_accuracy)
            for mode, trace in self.recorder.traces:
                out.record(trace_monotone(trace), f"{mode}: objective trace rose")

        return unit


class BoundReportWorkload:
    """Conic against Average at C=1, p=2 with bound reports (acceptance 09).

    Each dataset is one timed unit; the verification suite is the last.
    """

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.mc_samples = 2_000 if smoke else 40_000
        self.verify_instances = 2 if smoke else 50
        self.specs = kernels.default_kernel_dictionary()
        self.datasets = []
        for k in range(1 if smoke else 4):
            dataset_seed = sub_seed(seed, "dataset", k)
            self.datasets.append(_scaled_split(data.synthetic_benchmark(dataset_seed), 1.0 / 3.0, dataset_seed))

    def start(self):
        pass

    def stop(self):
        pass

    def units(self):
        units = [(f"dataset{k}", self._dataset_unit(k)) for k in range(len(self.datasets))]
        return units + [("verification", self._verification_unit)]

    def _dataset_unit(self, k):
        train, test = self.datasets[k]

        def unit(out: PassOutcome):
            stacks = [kernels.build_gram_stack(t.task_id, t.X, self.specs) for t in train]
            cost = sum(s.trace_norm(2.0) for s in stacks)  # p = 2 is self-conjugate
            for mode, budget in (("conic", 0.5 * cost), ("average", cost)):
                cfg = training.TrainConfig(C=1.0, p=2.0, budget=budget, r_max=8.0, mode=mode)
                model = _fit(out, f"dataset {k} {mode}", train, stacks, cfg, kernel_specs=self.specs)
                if model is None:
                    continue
                out.accuracies.append(
                    np.mean([(training.predict(model, tr.task_id, te.X)[0] == te.y).mean() for tr, te in zip(train, test)])
                )
                report = bounds.bound_report(
                    model, test, delta=0.05, rho=1.0, mc_samples=self.mc_samples,
                    seed=sub_seed(self.seed, "mc", k), stacks=stacks,
                )
                v = report.values
                out.record(
                    np.isfinite([v["complexity_mc"], v["complexity_mc_stderr"], v["total_adaptive"]]).all(),
                    f"dataset {k} {mode}: Rademacher estimate or bound not finite",
                )
                if mode == "conic":
                    out.bound_totals.append(v["total_adaptive"])
                out.output(report.csv_row().encode())

        return unit

    def _verification_unit(self, out: PassOutcome):
        for check in verification.run_verification_suite(seed=self.seed, n_instances=self.verify_instances):
            out.record(check.passed, check.line())
            out.output(check.line().encode())


class BiasHoldout:
    """A bias-mode fit scored on a large held-out set, with a model round trip.

    Units: the fit with its save and reload, then one prediction per task.
    """

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        n_train, n_test = (40, 400) if smoke else (160, 20_000)
        dataset = data.synth_multitask(T=2, N=n_train + n_test, d=10, seed=seed)
        self.train, self.test = _scaled_split(dataset, n_train / (n_train + n_test), seed)
        self.specs = kernels.default_kernel_dictionary()
        self.workdir = workdir
        self._tmp = None
        self._models = None

    def start(self):
        self._tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=self.workdir))

    def stop(self):
        shutil.rmtree(self._tmp, ignore_errors=True)

    def units(self):
        units = [("fit", self._fit_unit)]
        return units + [(f"predict.{t.task_id}", self._predict_unit(t, te)) for t, te in zip(self.train, self.test)]

    def _fit_unit(self, out: PassOutcome):
        self._models = None
        stacks = [kernels.build_gram_stack(t.task_id, t.X, self.specs) for t in self.train]
        cost = sum(s.trace_norm(2.0) for s in stacks)
        cfg = training.TrainConfig(C=1.0, p=2.0, budget=0.5 * cost, r_max=8.0, mode="conic", use_bias=True)
        model = _fit(out, "bias fit", self.train, stacks, cfg, kernel_specs=self.specs)
        if model is None:
            return
        path = self._tmp / "model.txt"
        training.save_model(model, path)
        self._models = (model, training.load_model(path, self.train))
        out.output(path.read_bytes())

    def _predict_unit(self, task, test):
        def unit(out: PassOutcome):
            if not out.record(self._models is not None, f"task {task.task_id}: no model to score"):
                return
            model, loaded = self._models
            labels, values = training.predict(model, task.task_id, test.X)
            reloaded = training.decision_values(loaded, task.task_id, test.X)
            out.record(values.tobytes() == reloaded.tobytes(), f"task {task.task_id}: reloaded model disagrees")
            out.accuracies.append(float((labels == test.y).mean()))
            out.output(values.tobytes())

        return unit


def make(name: str, seed: int, smoke: bool, workdir: Path):
    """Build a workload's inputs; this is the timed part of set-up."""
    if name == "cv_experiment":
        return CvExperiment(seed, smoke)
    if name == "bound_report":
        return BoundReportWorkload(seed, smoke)
    if name == "bias_holdout":
        return BiasHoldout(seed, smoke, workdir)
    raise ValueError(f"unknown workload {name!r}")
