"""Every name the benchmark's tracer wraps exists in the package.

perfbench/tracing.py replaces each (module, attribute) of its TRACED table
by name; a change that deletes or renames one would otherwise first fail
inside the traced benchmark's subprocess."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves_in_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, attribute, _, _ in tracing.TRACED:
        target = importlib.import_module(f"conicmtl.{module_name}")
        for part in attribute.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"conicmtl.{module_name}.{attribute}")
    assert not missing, f"perfbench/tracing.py traces names the package lacks: {missing}"
