"""Conic multi-task multiple-kernel learning toolkit.

The package root exports only __version__; import names from their
modules, e.g. `from conicmtl.training import fit`.
"""

__version__ = "0.1.0"
