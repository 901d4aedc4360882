"""Every name the benchmark's tracer wraps exists in the package and has a caller.

perfbench/tracing.py replaces each (module, attribute) of its TRACED table
by name; a change that deletes or renames one would otherwise first fail
inside the traced benchmark's subprocess, and a name that nothing calls
leaves its per-layer counters at 0 on every workload."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
CALLERS = sorted((ROOT / "src" / "conicmtl").rglob("*.py")) + [ROOT / "perfbench" / "workloads.py"]


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module_name, attribute) for module_name, attribute, _, _ in tracing.TRACED]


def called_names(paths):
    """The name each call in the files' syntax trees calls: `f` of `f(...)` and of `obj.f(...)`."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                names.add(node.func.id)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                names.add(node.func.attr)
    return names


def test_every_traced_name_resolves_in_the_package():
    missing = []
    for module_name, attribute in traced_names():
        target = importlib.import_module(f"conicmtl.{module_name}")
        for part in attribute.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"conicmtl.{module_name}.{attribute}")
    assert not missing, f"perfbench/tracing.py traces names the package lacks: {missing}"


def test_every_traced_name_has_a_caller_in_the_package_or_the_workloads():
    called = called_names(CALLERS)
    uncalled = [f"{module_name}.{attribute}" for module_name, attribute in traced_names()
                if attribute.split(".")[-1] not in called]
    assert not uncalled, f"perfbench/tracing.py traces names that nothing calls: {uncalled}"
