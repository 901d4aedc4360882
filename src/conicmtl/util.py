"""Small shared helpers: norms, conjugate exponents, seed derivation."""

from __future__ import annotations

import hashlib

import numpy as np


def conjugate_exponent(p: float) -> float:
    """Return the Hoelder conjugate p/(p-1), with p=1 mapping to inf and p=inf to 1."""
    if not p >= 1.0:
        raise ValueError(f"exponent must be >= 1, got {p}")
    if p == 1.0:
        return float("inf")
    if p == float("inf"):
        return 1.0
    return p / (p - 1.0)


def lp_norm(v, p: float) -> float:
    """Lp norm of a vector; p may be inf (max norm)."""
    v = np.asarray(v, dtype=float)
    if p == 2.0:
        return float(np.sqrt((v * v).sum()))  # v * v needs no abs
    v = np.abs(v)
    if np.isinf(p):
        return float(v.max()) if v.size else 0.0
    if p == 1.0:
        return float(v.sum())
    return float((v**p).sum() ** (1.0 / p))


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from a tuple of printable parts.

    Uses sha256 of the repr strings, so it is independent of
    PYTHONHASHSEED and identical across processes and platforms.
    """
    text = "\x1f".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFFFFFFFFFFFFFF


def float_text(x: float) -> str:
    """Shortest decimal text that round-trips the float exactly."""
    return repr(float(x))
