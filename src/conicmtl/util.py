"""Small shared helpers: norms, conjugate exponents, seed derivation, block threads."""

from __future__ import annotations

import contextvars
import hashlib
import os
import threading

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


def thread_count() -> int:
    """Threads for independent blocks of work: every usable CPU when BLAS runs one thread per call, else 1.

    OpenBLAS takes its thread count from the first of OPENBLAS_NUM_THREADS,
    GOTO_NUM_THREADS and OMP_NUM_THREADS set to a positive number. A GEMM on
    more BLAS threads already spreads over the CPUs, and block threads beside
    it were slower than none.
    """
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            count = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if count > 0:
            return len(os.sched_getaffinity(0)) if count == 1 and hasattr(os, "sched_getaffinity") else 1
    return 1


def run_threads(work, workers: int) -> None:
    """Run work(first) for first = 0, ..., workers - 1, worker 0 on the calling thread.

    work(first) is an iterable that does one unit of worker first's share
    per step; once any worker has raised, the others stop at their next
    step. Every helper thread runs in a copy of the caller's context (so
    numpy's error state holds in it too) and is joined, also when one has
    raised; the first error is then raised here.
    """
    errors = []

    def run(first):
        try:
            for _ in work(first):
                if errors:
                    return
        except BaseException as exc:
            errors.append(exc)

    helpers = []
    try:
        for first in range(1, workers):
            helper = threading.Thread(target=contextvars.copy_context().run, args=(run, first))
            helper.start()
            helpers.append(helper)
        run(0)
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]
