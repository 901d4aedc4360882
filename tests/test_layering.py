"""The package's imports form one direction: each module imports only modules
of a lower layer, function-local imports included, and the package root
imports nothing, so each name has one import path, its module."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "conicmtl"

# util <- {data, kernels} <- solvers <- training <- bounds <- {verification, experiments} <- cli
LAYERS = (
    ("util",), ("data", "kernels"), ("solvers",), ("training",), ("bounds",), ("verification", "experiments"), ("cli",)
)
RANK = {module: rank for rank, layer in enumerate(LAYERS) for module in layer}


def package_imports(path):
    """(line, imported module) for each import of a conicmtl module in the file, at any depth."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):  # a relative import is one of the package
            base = ".".join(filter(None, ["conicmtl" if node.level else "", node.module]))
            names = [f"{base}.{alias.name}" for alias in node.names] if base == "conicmtl" else [base]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found.extend((node.lineno, name.split(".")[1]) for name in names if name.startswith("conicmtl."))
    return found


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(RANK)


def test_every_package_import_points_to_a_lower_layer():
    upward = [
        f"{path.stem}.py:{line} imports {target}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
        for line, target in package_imports(path)
        if RANK.get(target, len(LAYERS)) >= RANK[path.stem]
    ]
    assert upward == []


def test_package_root_imports_nothing():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))] == []
