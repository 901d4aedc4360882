"""Base kernel evaluation, normalization, and weighted combination.

Every downstream component consumes precomputed Gram matrices. A task's
matrices for all base kernels are held together in a GramStack along with
their traces, which the task-weight subproblem and the complexity bounds
need repeatedly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .util import lp_norm

EXPAND_BLOCK = 2048  # columns per block of an `expand` call
EXP_ZERO = -745.2  # np.exp is exactly +0.0 below this argument
EXP_FAST = -707.0  # np.exp takes its fast path above -1021 ln 2 = -707.70 (numpy 2.4, AVX-512)
EXP_SPLIT_MIN = 2048  # lanes; on fewer, exp's slow lanes cost less than splitting them off


@dataclass(frozen=True)
class KernelSpec:
    """One base kernel: linear, polynomial(degree, offset) or gaussian(spread),
    where a gaussian is exp(-||x-y||^2 / (2 spread^2)).

    normalize applies cosine normalization so the induced feature vectors
    have unit length; gaussian kernels already do.
    """

    kind: str
    degree: int = 2
    offset: float = 1.0
    spread: float = 1.0
    normalize: bool = False

    def __post_init__(self):
        if self.kind not in ("linear", "polynomial", "gaussian"):
            raise ValueError(f"unknown kernel kind: {self.kind!r}")
        if self.kind == "polynomial" and self.degree < 1:
            raise ValueError("polynomial degree must be >= 1")
        if self.kind == "polynomial" and not math.isfinite(self.offset):
            raise ValueError(f"polynomial offset must be finite, got offset={self.offset!r}")
        if self.kind == "gaussian":
            if not (math.isfinite(self.spread) and self.spread > 0):
                raise ValueError(f"gaussian spread must be finite and positive, got spread={self.spread!r}")
            try:
                scale = _gaussian_scale(self)
            except ArithmeticError:  # spread**2 overflows, or 2 spread**2 is 0
                scale = math.nan
            if not (math.isfinite(scale) and scale > 0):
                raise ValueError(f"gaussian spread={self.spread!r} has no finite positive scale")

    def label(self) -> str:
        if self.kind == "linear":
            core = "linear"
        elif self.kind == "polynomial":
            core = f"poly:d={self.degree}:off={self.offset!r}"
        else:
            core = f"gauss:s={self.spread!r}:conv=sigma"  # v1 model documents carry the conv field
        return f"{core}:norm={int(self.normalize)}"

    @staticmethod
    def from_label(label: str) -> "KernelSpec":
        """The spec that `label` names. A field key it does not know is an error,
        and so is any label that is not the one `label()` writes for the spec."""
        parts = label.split(":")
        norm = False
        fields = {}
        kind = parts[0]
        for part in parts[1:]:
            key, _, value = part.partition("=")
            if key == "norm":
                norm = bool(int(value))
            elif key == "d":
                fields["degree"] = int(value)
            elif key == "off":
                fields["offset"] = float(value)
            elif key == "s":
                fields["spread"] = float(value)
            elif key != "conv":  # label() writes conv=sigma only; the canonical check rejects any other value
                raise ValueError(f"unknown field {key!r} in kernel label {label!r}")
        kind = {"poly": "polynomial", "gauss": "gaussian"}.get(kind, kind)
        spec = KernelSpec(kind=kind, normalize=norm, **fields)
        if spec.label() != label:
            raise ValueError(f"kernel label {label!r} is not canonical: its spec writes {spec.label()!r}")
        return spec


def default_kernel_dictionary() -> list[KernelSpec]:
    """The standard 11-kernel dictionary.

    Linear and 2nd-order polynomial (cosine normalized) plus gaussian
    kernels at spreads 2^-7 .. 2^7.
    """
    specs = [
        KernelSpec(kind="linear", normalize=True),
        KernelSpec(kind="polynomial", degree=2, offset=1.0, normalize=True),
    ]
    for e in (-7, -5, -3, -1, 0, 1, 3, 5, 7):
        specs.append(KernelSpec(kind="gaussian", spread=2.0**e))
    return specs


def _check_features(X: np.ndarray, name: str, d: int | None = None) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError(f"{name} contains non-finite values")
    if d is not None and X.shape[1] != d:
        raise ValueError(f"feature dimension mismatch: rows has {d}, {name} has {X.shape[1]}")
    return X


def _gaussian_scale(spec: KernelSpec) -> float:
    """The factor of ||x-y||^2 in a gaussian's exponent."""
    return 1.0 / (2.0 * spec.spread**2)


def _exp(arg, lo, hi, mask):
    """np.exp(arg) written over arg, bit for bit; None where it is +0.0 everywhere.

    lo and hi bound arg from below and above. np.exp is slow on lanes with
    special results: on an AVX-512 Xeon, about 16 ns a lane for an underflow
    to +0.0 and 110 ns for a subnormal, against 1 ns for a normal result.
    So a block entirely below EXP_ZERO is not evaluated. On a block of at
    least EXP_SPLIT_MIN lanes, the lanes below EXP_FAST enter the dense exp
    at EXP_FAST and are zeroed by multiplying with `mask` (a float buffer
    of arg's shape), and those that may have a subnormal result get np.exp
    on their own.
    """
    if hi < EXP_ZERO:
        return None
    if not lo < EXP_FAST or arg.size < EXP_SPLIT_MIN:  # also when a lane is NaN
        return np.exp(arg, out=arg)
    flat = arg.reshape(-1)
    tiny = np.flatnonzero((flat >= EXP_ZERO) & (flat < EXP_FAST))
    tiny_exp = np.exp(flat[tiny])
    np.greater_equal(arg, EXP_FAST, out=mask)
    np.maximum(arg, EXP_FAST, out=arg)  # also maps -inf to a finite argument
    np.exp(arg, out=arg)
    np.multiply(arg, mask, out=arg)
    flat[tiny] = tiny_exp
    return arg


def _kernel(spec: KernelSpec, inner, sq, out, sq_span, scratch):
    """The one formula per kernel kind, from inner products and squared distances.

    The value is written into `out`, except that the linear kernel is
    `inner` itself. sq_span is (sq.min(), sq.max()): from it a gaussian
    sees which of exp's slow lanes it holds (see `_exp`, which uses
    `scratch`), and a gaussian that is +0.0 everywhere comes back as None.
    """
    if spec.kind == "linear":
        return inner
    if spec.kind == "polynomial":
        np.add(inner, spec.offset, out=out)
        out **= spec.degree
        return out
    scale = -_gaussian_scale(spec)
    np.multiply(sq, scale, out=out)
    return _exp(out, scale * sq_span[1], scale * sq_span[0], scratch)


def _self_kernel(spec: KernelSpec, sq_norms):
    """k(x, x) of each point from its squared norm: the same formula at distance 0."""
    return _kernel(spec, sq_norms, np.zeros_like(sq_norms), np.empty_like(sq_norms), (0.0, 0.0), None)


class _GramBlocks:
    """The Grams of fixed rows against blocks of at most `width` columns.

    Every block is evaluated in the same four buffers: inner products,
    clamped squared distances, the current Gram and scratch (the exp mask,
    normalization denominators). The row norms and the row self-kernels of
    normalized kernels are computed once.
    """

    def __init__(self, specs, rows: np.ndarray, width: int):
        self.specs = specs
        self.rows = rows
        self.sq_rows = (rows * rows).sum(axis=1)
        self.diag_rows = [_self_kernel(spec, self.sq_rows) if spec.normalize else None for spec in specs]
        size = rows.shape[0] * width
        self.inner, self.gram, self.scratch = np.empty(size), np.empty(size), np.empty(size)
        self.sq = np.empty(size) if any(spec.kind == "gaussian" for spec in specs) else None

    def __call__(self, cols: np.ndarray, same: bool):
        """Yield each spec's Gram of (rows, cols) in turn, or None for a Gram
        that is +0.0 everywhere. A yielded Gram is valid until the next one."""
        n, b = self.rows.shape[0], cols.shape[0]
        inner, gram, scratch = (buf[: n * b].reshape(n, b) for buf in (self.inner, self.gram, self.scratch))
        np.matmul(self.rows, cols.T, out=inner)
        sq_cols = self.sq_rows if same else (cols * cols).sum(axis=1)
        sq = sq_span = None
        if self.sq is not None:
            sq = self.sq[: n * b].reshape(n, b)
            np.add(self.sq_rows[:, None], sq_cols[None, :], out=sq)
            np.subtract(sq, np.multiply(inner, 2.0, out=gram), out=sq)
            np.maximum(sq, 0.0, out=sq)
            if same:
                np.fill_diagonal(sq, 0.0)  # cancellation noise would break the unit diagonal
            sq_span = (float(sq.min()), float(sq.max())) if sq.size else (0.0, 0.0)
        for spec, diag_rows in zip(self.specs, self.diag_rows):
            value = _kernel(spec, inner, sq, gram, sq_span, scratch)
            if value is None or not spec.normalize:
                yield value
            elif same:
                yield cosine_normalize(value)
            else:
                diag_cols = _self_kernel(spec, sq_cols)
                if np.any(diag_rows <= 0) or np.any(diag_cols <= 0):
                    raise ValueError("cosine normalization hit a nonpositive self-kernel value")
                np.multiply(diag_rows[:, None], diag_cols[None, :], out=scratch)
                yield np.divide(value, np.sqrt(scratch, out=scratch), out=gram)


def compute_gram(spec: KernelSpec, rows, cols) -> np.ndarray:
    """Gram matrix G[i, j] = k(rows[i], cols[j]) for one base kernel.

    When `rows is cols` and the kernel is normalized, the diagonal is set
    to exactly 1. Nothing in the package calls it; it stays because the
    byte-identity oracle tests call it and the benchmark tracer wraps it by name.
    """
    rows = _check_features(rows, "rows")
    same = cols is None or cols is rows
    cols = rows if same else _check_features(cols, "cols", rows.shape[1])
    gram = next(_GramBlocks([spec], rows, cols.shape[0])(cols, same))
    return np.zeros((rows.shape[0], cols.shape[0])) if gram is None else gram


def expand(specs, theta, rows, coef, cols) -> np.ndarray:
    """Kernel expansion sum_m theta_m * (coef @ k_m(rows, cols)), one value per column.

    cols is walked in blocks of EXPAND_BLOCK columns, all evaluated in the
    same few buffers, so memory is O(len(rows) * EXPAND_BLOCK); per block
    the inner products and distances are shared by every kernel with
    theta_m != 0, and a gaussian that is +0.0 on the whole block adds
    nothing and is skipped.
    """
    rows = _check_features(rows, "rows")
    cols = _check_features(cols, "cols", rows.shape[1])
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (len(specs),):
        raise ValueError(f"theta has shape {theta.shape}, expected ({len(specs)},)")
    active = np.flatnonzero(theta)
    out = np.zeros(cols.shape[0])
    grams = _GramBlocks([specs[m] for m in active], rows, min(EXPAND_BLOCK, cols.shape[0]))
    for start in range(0, cols.shape[0], EXPAND_BLOCK):
        block = out[start : start + EXPAND_BLOCK]
        for m, gram in zip(active, grams(cols[start : start + EXPAND_BLOCK], False)):
            if gram is not None:
                block += theta[m] * (coef @ gram)
    return out


def cosine_normalize(gram) -> np.ndarray:
    """Rescale a symmetric Gram so that G[i, j] -> G[i, j]/sqrt(G[i, i] G[j, j]).

    The output diagonal is exactly 1. Raises on a nonpositive diagonal
    entry, which signals a degenerate sample (for instance a zero vector
    under the linear kernel).
    """
    gram = np.asarray(gram, dtype=np.float64)
    diag = np.diag(gram).copy()
    if np.any(diag <= 0):
        bad = int(np.argmax(diag <= 0))
        raise ValueError(f"nonpositive diagonal entry at index {bad}: {diag[bad]}")
    root = np.sqrt(diag)
    out = gram / np.outer(root, root)
    np.fill_diagonal(out, 1.0)
    return out


@dataclass
class GramStack:
    """All base-kernel Gram matrices of one task plus their traces.

    grams has shape (M, N, N); traces[m] is the exact diagonal sum of
    grams[m]. Instances are immutable by convention after construction and
    safe for concurrent read access.
    """

    task_id: str
    grams: np.ndarray
    traces: np.ndarray = field(init=False)

    def __post_init__(self):
        self.grams = np.asarray(self.grams, dtype=np.float64)
        if self.grams.ndim != 3 or self.grams.shape[1] != self.grams.shape[2]:
            raise ValueError(f"grams must have shape (M, N, N), got {self.grams.shape}")
        self.traces = trace_vector(self)

    @property
    def n_kernels(self) -> int:
        return self.grams.shape[0]

    @property
    def n_samples(self) -> int:
        return self.grams.shape[1]

    def trace_norm(self, p_star: float) -> float:
        """Conjugate-norm of the trace vector, the task's budget cost."""
        return lp_norm(self.traces, p_star)


def trace_vector(stack: GramStack) -> np.ndarray:
    """Per-kernel traces [tr(G_1), ..., tr(G_M)] of a stack."""
    return np.einsum("mii->m", stack.grams)


def build_gram_stack(task_id: str, X, specs) -> GramStack:
    """The full kernel stack of one task: one pass of shared inner products
    and distances for every kernel."""
    X = _check_features(X, "X")
    grams = np.empty((len(specs), X.shape[0], X.shape[0]))
    for m, gram in enumerate(_GramBlocks(specs, X, X.shape[0])(X, True)):
        grams[m] = gram
    return GramStack(task_id=task_id, grams=grams)


def combine(stack: GramStack, theta) -> np.ndarray:
    """Weighted Gram sum_m theta_m G_m; the training kernel of one task."""
    theta = np.asarray(theta, dtype=np.float64)
    M, n = stack.grams.shape[:2]
    if theta.shape[0] != M:
        raise ValueError(f"weight length {theta.shape[0]} does not match kernel count {M}")
    # the (1, M) @ (M, n*n) product that np.tensordot(theta, grams, axes=(0, 0)) makes
    return np.dot(theta.reshape(1, M), stack.grams.reshape(M, n * n)).reshape(n, n)
