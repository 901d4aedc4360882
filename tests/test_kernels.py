import contextlib
import hashlib
import re

import numpy as np
import pytest

from conicmtl.kernels import (
    EXP_FAST,
    EXP_SPLIT_MIN,
    EXP_ZERO,
    EXPAND_BLOCK,
    GramStack,
    KernelSpec,
    build_gram_stack,
    combine,
    compute_gram,
    cosine_normalize,
    default_kernel_dictionary,
    expand,
)
from conicmtl.kernels import _exp, _gaussian_scale


def test_default_dictionary_has_eleven_kernels():
    specs = default_kernel_dictionary()
    assert len(specs) == 11
    kinds = [s.kind for s in specs]
    assert kinds.count("linear") == 1
    assert kinds.count("polynomial") == 1
    spreads = sorted(s.spread for s in specs if s.kind == "gaussian")
    assert spreads == [2.0**e for e in (-7, -5, -3, -1, 0, 1, 3, 5, 7)]


def test_gaussian_point_values():
    spec = KernelSpec(kind="gaussian", spread=1.0)
    assert compute_gram([spec], np.zeros((1, 2)), np.zeros((1, 2)))[0][0, 0] == 1.0
    # exp(-||0-2||^2 / 2) with unit spread
    got = compute_gram([spec], np.array([[0.0]]), np.array([[2.0]]))[0][0, 0]
    assert got == pytest.approx(np.exp(-2.0), abs=1e-12)


def test_linear_dot_product():
    spec = KernelSpec(kind="linear")
    got = compute_gram([spec], np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]))[0][0, 0]
    assert got == 11.0


def test_polynomial_formula():
    spec = KernelSpec(kind="polynomial", degree=2, offset=1.0)
    got = compute_gram([spec], np.array([[1.0, 1.0]]), np.array([[2.0, 0.0]]))[0][0, 0]
    assert got == (1.0 + 2.0) ** 2


def test_unit_diagonal_for_every_normalized_dictionary_entry():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((12, 4))
    for spec in default_kernel_dictionary():
        gram = compute_gram([spec], X, X)[0]
        assert np.all(np.abs(np.diag(gram) - 1.0) <= 1e-12), spec.label()


def test_cross_gram_normalization_consistent_with_square():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((8, 3))
    spec = KernelSpec(kind="polynomial", degree=2, offset=1.0, normalize=True)
    square = compute_gram([spec], X, X)[0]
    cross = compute_gram([spec], X, X.copy())[0]
    assert np.allclose(square, cross, atol=1e-12)


def test_cosine_normalize_hand_example():
    out = cosine_normalize(np.array([[4.0, 2.0], [2.0, 1.0]]))
    assert np.array_equal(out, np.ones((2, 2)))


def test_cosine_normalize_identity_and_diagonal():
    assert np.array_equal(cosine_normalize(np.eye(3)), np.eye(3))
    rng = np.random.default_rng(2)
    A = rng.standard_normal((6, 6))
    gram = A @ A.T + 6 * np.eye(6)
    assert np.all(np.diag(cosine_normalize(gram)) == 1.0)


def test_cosine_normalize_rejects_nonpositive_diagonal():
    with pytest.raises(ValueError, match="diagonal"):
        cosine_normalize(np.array([[0.0, 0.0], [0.0, 1.0]]))


def test_compute_gram_errors():
    spec = KernelSpec(kind="linear")
    with pytest.raises(ValueError, match="dimension mismatch"):
        compute_gram([spec], np.zeros((2, 3)), np.zeros((2, 4)))
    with pytest.raises(ValueError, match="non-finite"):
        compute_gram([spec], np.array([[np.nan, 0.0]]), np.zeros((1, 2)))


# ---------------------------------------------------------------- expansion

EXPANSION_SPECS = [
    KernelSpec(kind="linear", normalize=True),
    KernelSpec(kind="polynomial", degree=2, offset=1.0, normalize=True),
    KernelSpec(kind="polynomial", degree=3, offset=0.5),
    KernelSpec(kind="gaussian", spread=0.8),
    KernelSpec(kind="gaussian", spread=0.8**0.5),
    KernelSpec(kind="gaussian", spread=1.6**-0.5),
    KernelSpec(kind="gaussian", spread=2.0, normalize=True),
]


def brute_force_expansion(specs, theta, rows, coef, cols):
    return sum(w * (coef @ compute_gram([spec], rows, cols)[0]) for w, spec in zip(theta, specs) if w != 0.0)


@pytest.mark.parametrize("n_cols", [0, 1, 2 * EXPAND_BLOCK + 1])
def test_expand_matches_per_kernel_grams_across_blocks(n_cols):
    rng = np.random.default_rng(30)
    rows = rng.standard_normal((9, 3))
    cols = rng.standard_normal((n_cols, 3))
    coef = rng.standard_normal(9)
    theta = np.array([0.3, 0.0, 0.2, 0.5, 0.0, 0.4, 0.1])
    got = expand(EXPANSION_SPECS, theta, rows, coef, cols)
    want = brute_force_expansion(EXPANSION_SPECS, theta, rows, coef, cols)
    assert got.shape == (n_cols,)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max(initial=1.0))


def test_expand_without_rows_or_weights_is_zero():
    cols = np.ones((5, 2))
    theta = np.full(len(EXPANSION_SPECS), 0.2)
    assert np.array_equal(expand(EXPANSION_SPECS, theta, np.zeros((0, 2)), np.zeros(0), cols), np.zeros(5))
    zero = np.zeros(len(EXPANSION_SPECS))
    assert np.array_equal(expand(EXPANSION_SPECS, zero, np.ones((3, 2)), np.ones(3), cols), np.zeros(5))


def test_expand_errors():
    specs = EXPANSION_SPECS[:1]
    rows = np.ones((2, 3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        expand(specs, [1.0], rows, np.ones(2), np.ones((4, 2)))
    with pytest.raises(ValueError, match="cols contains non-finite"):
        expand(specs, [1.0], rows, np.ones(2), np.array([[0.0, np.inf, 0.0]]))
    with pytest.raises(ValueError, match="theta has shape"):
        expand(specs, [1.0, 0.5], rows, np.ones(2), rows)
    with pytest.raises(ValueError, match="nonpositive self-kernel"):
        expand(specs, [1.0], rows, np.ones(2), np.zeros((1, 3)))


# ------------------------------------------- byte oracle for the block buffers

def oracle_kernel(spec, inner, sq):
    """One kernel from fresh temporaries and a plain np.exp: the reference the
    block-buffer evaluation must match byte for byte."""
    if spec.kind == "linear":
        return inner
    if spec.kind == "polynomial":
        return (spec.offset + inner) ** spec.degree
    return np.exp(-(1.0 / (2.0 * spec.spread**2)) * sq)


def oracle_grams(specs, rows, cols, same):
    inner = rows @ cols.T
    sq_rows = (rows * rows).sum(axis=1)
    sq_cols = sq_rows if same else (cols * cols).sum(axis=1)
    sq = None
    if any(spec.kind == "gaussian" for spec in specs):
        sq = sq_rows[:, None] + sq_cols[None, :] - 2.0 * inner
        np.maximum(sq, 0.0, out=sq)
        if same:
            np.fill_diagonal(sq, 0.0)
    for spec in specs:
        gram = oracle_kernel(spec, inner, sq)
        if spec.normalize and same:
            gram = cosine_normalize(gram)
        elif spec.normalize:
            dr = oracle_kernel(spec, sq_rows, np.zeros_like(sq_rows))
            dc = oracle_kernel(spec, sq_cols, np.zeros_like(sq_cols))
            gram = gram / np.sqrt(np.outer(dr, dc))
        yield gram


def oracle_compute_gram(spec, rows, cols):
    same = cols is rows
    return next(oracle_grams([spec], rows, cols, same))


def oracle_expand(specs, theta, rows, coef, cols):
    active = np.flatnonzero(theta)
    out = np.zeros(cols.shape[0])
    for start in range(0, cols.shape[0], EXPAND_BLOCK):
        block = out[start : start + EXPAND_BLOCK]
        grams = oracle_grams([specs[m] for m in active], rows, cols[start : start + EXPAND_BLOCK], False)
        for m, gram in zip(active, grams):
            block += theta[m] * (coef @ gram)
    return out


def exp_regime(regime, n_cols):
    """(specs, rows, cols) whose gaussian arguments fall in one of exp's regimes:
    all below EXP_ZERO, straddling both cut points, all with subnormal
    results, or reaching -inf beside exact zeros; `dictionary` is the default
    kernel dictionary on standard normal data."""
    rng = np.random.default_rng(50)
    unit = KernelSpec(kind="gaussian", spread=0.5**0.5)  # exp(-||x-y||^2)
    if regime == "dictionary":
        return default_kernel_dictionary(), rng.standard_normal((9, 10)), rng.standard_normal((n_cols, 10))
    if regime == "zero":
        specs = [unit, KernelSpec(kind="gaussian", spread=2.0**-7), KernelSpec(kind="linear", normalize=True)]
        return specs, rng.uniform(0, 5, (9, 3)), rng.uniform(40, 60, (n_cols, 3))
    if regime == "straddle":
        specs = [unit, KernelSpec(kind="gaussian", spread=0.5**0.5, normalize=True)]
        return specs, rng.uniform(0, 5, (9, 3)), rng.uniform(-20, 25, (n_cols, 3))
    if regime == "subnormal":
        # rows within 0.35 of the origin, cols at distance 27 from it: ||x-y||^2 in [702, 749]
        direction = rng.standard_normal((n_cols, 3))
        cols = 27.0 * direction / np.linalg.norm(direction, axis=1, keepdims=True)
        specs = [unit, KernelSpec(kind="polynomial", degree=3, offset=0.5, normalize=True)]
        return specs, rng.uniform(0, 0.2, (9, 3)), cols
    assert regime == "-inf"
    # integer points: a copy of a row is at distance exactly 0, a shifted one at
    # 3 (argument -3e300) or at 3e10 (argument -inf)
    rows = rng.integers(0, 5, (9, 3)).astype(float)
    pool = np.concatenate([rows, rows + 1.0, rows + 1e5])
    specs = [KernelSpec(kind="gaussian", spread=5e-301**0.5)]  # exp(-1e300 ||x-y||^2)
    return specs, rows, pool[rng.integers(0, len(pool), n_cols)]


EXP_REGIMES = ["dictionary", "zero", "straddle", "subnormal", "-inf"]


def gaussian_arguments(spec, rows, cols):
    sq = np.maximum((rows * rows).sum(1)[:, None] + (cols * cols).sum(1)[None, :] - 2.0 * rows @ cols.T, 0.0)
    return -_gaussian_scale(spec) * sq


def overflow_warning(specs, rows, cols):
    """pytest.warns for numpy's overflow warning where a gaussian argument reaches -inf
    (the -inf regime), which the kernels let through; else a null context."""
    with np.errstate(over="ignore"):
        reach = [np.isinf(gaussian_arguments(s, rows, cols)).any() for s in specs if s.kind == "gaussian"]
    if any(reach):
        return pytest.warns(RuntimeWarning, match="overflow encountered in multiply")
    return contextlib.nullcontext()


@pytest.mark.parametrize(
    "regime, lanes",
    [
        ("zero", {"zero"}),
        ("straddle", {"zero", "subnormal", "fast"}),
        ("subnormal", {"subnormal"}),
        ("-inf", {"-inf", "zero", "fast"}),
    ],
)
def test_exp_regimes_hold_the_lanes_they_are_named_for(regime, lanes):
    specs, rows, cols = exp_regime(regime, 2 * EXPAND_BLOCK + 1)
    with np.errstate(over="ignore"):
        arg = gaussian_arguments(specs[0], rows, cols)
    found = {
        "-inf": bool(np.any(arg == -np.inf)),
        "zero": bool(np.any(arg < EXP_ZERO)),
        "subnormal": bool(np.any((arg >= EXP_ZERO) & (arg < -708.3964))),
        "fast": bool(np.any(arg >= EXP_FAST)),
    }
    assert {name for name, hit in found.items() if hit} == lanes


@pytest.mark.parametrize("n_cols", [0, 1, 2, 2 * EXPAND_BLOCK + 1])
@pytest.mark.parametrize("regime", EXP_REGIMES)
def test_expand_is_byte_identical_to_the_fresh_temporary_oracle(regime, n_cols):
    specs, rows, cols = exp_regime(regime, n_cols)
    rng = np.random.default_rng(51)
    coef = rng.standard_normal(rows.shape[0])
    theta = rng.uniform(0.1, 1.0, len(specs))
    if len(specs) > 2:
        theta[1] = 0.0
    with np.errstate(over="ignore"):
        want = oracle_expand(specs, theta, rows, coef, cols)
    with overflow_warning([spec for spec, weight in zip(specs, theta) if weight], rows, cols):
        got = expand(specs, theta, rows, coef, cols)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_cols", [1, 2, 2 * EXPAND_BLOCK + 1])
@pytest.mark.parametrize("regime", EXP_REGIMES)
def test_compute_gram_is_byte_identical_to_the_oracle(regime, n_cols):
    specs, rows, cols = exp_regime(regime, n_cols)
    for spec in specs + EXPANSION_SPECS:
        for other in (cols, rows):
            with np.errstate(over="ignore"):
                want = oracle_compute_gram(spec, rows, other)
            with overflow_warning([spec], rows, other):
                got = compute_gram([spec], rows, other)[0]
            assert got.tobytes() == want.tobytes(), spec.label()


def test_build_gram_stack_is_byte_identical_to_the_oracle():
    rng = np.random.default_rng(52)
    X = rng.standard_normal((40, 6))
    specs = default_kernel_dictionary() + EXPANSION_SPECS
    want = [oracle_compute_gram(spec, X, X).tobytes() for spec in specs]
    assert [g.tobytes() for g in build_gram_stack("t", X, specs).grams] == want


@pytest.mark.parametrize("case", ["square", "cross"])
def test_compute_gram_of_all_specs_is_byte_identical_to_one_spec_at_a_time(case):
    specs, rows, cols = exp_regime("zero", 30)  # two gaussians that are +0.0 on every cross pair
    specs = specs + EXPANSION_SPECS
    other = rows if case == "square" else cols
    grams = compute_gram(specs, rows, other)
    assert grams.shape == (len(specs), rows.shape[0], other.shape[0])
    assert any(spec.normalize for spec in specs)
    zero = np.zeros(grams.shape[1:]).tobytes()
    assert (case == "cross") == any(g.tobytes() == zero for g in grams)
    for m, spec in enumerate(specs):
        assert grams[m].tobytes() == compute_gram([spec], rows, other)[0].tobytes(), spec.label()


@pytest.mark.parametrize(
    "specs, digest",
    [
        (default_kernel_dictionary(), "5742f0d0460b35066d4b38c91ead99ea4b1034f068adbe5537dcf8c774b542d5"),
        # spreads that are not powers of two: a rewritten scale such as 0.5 * (1 / s)**2 rounds differently
        (
            [KernelSpec(kind="gaussian", spread=s) for s in (0.3, 0.7, 1.9, 3.0)]
            + [KernelSpec(kind="gaussian", spread=0.7, normalize=True)],
            "81e9c8c3e3cd103785cce4cd8b111d0d2c5508f9ede4a229fc1b00b9efc03ce2",
        ),
    ],
    ids=["dictionary", "other-spreads"],
)
def test_gram_stack_bytes_are_pinned(specs, digest):
    # the oracle tests share the kernel formulas, so a rewrite of a formula moves both sides
    X = np.random.default_rng(60).standard_normal((60, 6))
    assert hashlib.sha256(build_gram_stack("t", X, specs).grams.tobytes()).hexdigest() == digest


def exp_sweep():
    specials = [-745.2, -745.1332, -745.1332191019412, -708.3964, -707.7032713517042, -0.0, -np.inf]
    specials += [EXP_ZERO, EXP_FAST, np.nextafter(EXP_ZERO, 0), np.nextafter(EXP_ZERO, -1)]
    specials += [np.nextafter(EXP_FAST, 0), np.nextafter(EXP_FAST, -1), -800.0]
    x = np.concatenate([np.linspace(-800.0, 0.0, 80_001), specials])
    np.random.default_rng(53).shuffle(x)
    return x


@pytest.mark.parametrize("lanes", ["all", "below zero", "slow", "fast", "below fast", "zero and fast"])
def test_exp_is_numpy_exp_bit_for_bit(lanes):
    x = exp_sweep()
    keep = {
        "all": np.ones(x.size, bool),
        "below zero": x < EXP_ZERO,
        "slow": (x >= EXP_ZERO) & (x < EXP_FAST),
        "fast": x >= EXP_FAST,
        "below fast": x < EXP_FAST,
        "zero and fast": (x < EXP_ZERO) | (x >= EXP_FAST),
    }[lanes]
    x = x[keep]
    assert x.size >= EXP_SPLIT_MIN
    arg = x.reshape(-1, 1 if x.size % 7 else 7)
    got = _exp(arg.copy(), x.min(), x.max(), np.empty_like(arg))
    want = np.exp(arg)
    if got is None:
        assert lanes == "below zero"
        got = np.zeros_like(arg)
    assert got.tobytes() == want.tobytes()


def test_exp_keeps_a_nan_lane():
    arg = exp_sweep()
    arg[100] = np.nan
    got = _exp(arg.copy(), arg.min(), arg.max(), np.empty_like(arg))
    assert got.tobytes() == np.exp(arg).tobytes()


def _random_stack(rng, M=3, N=7):
    grams = np.empty((M, N, N))
    for m in range(M):
        A = rng.standard_normal((N, N + 1))
        grams[m] = A @ A.T / (N + 1)
    return GramStack(task_id="t", grams=grams)


def test_combine_selects_and_zeroes():
    rng = np.random.default_rng(3)
    stack = _random_stack(rng)
    e1 = np.array([1.0, 0.0, 0.0])
    assert np.array_equal(combine(stack, e1), stack.grams[0])
    zero = np.zeros(3)
    assert np.array_equal(combine(stack, zero), np.zeros((7, 7)))


def test_combine_hand_sum():
    grams = np.stack([np.eye(2), np.ones((2, 2))])
    stack = GramStack(task_id="t", grams=grams)
    out = combine(stack, np.array([0.5, 0.5]))
    assert np.array_equal(out, np.array([[1.0, 0.5], [0.5, 1.0]]))


def test_combine_is_linear_in_weights():
    rng = np.random.default_rng(4)
    stack = _random_stack(rng)
    t1 = rng.uniform(0, 0.4, 3)
    t2 = rng.uniform(0, 0.4, 3)
    a, b = 0.3, 0.6
    lhs = combine(stack, a * t1 + b * t2)
    rhs = a * combine(stack, t1) + b * combine(stack, t2)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_combine_psd_spot_check():
    rng = np.random.default_rng(5)
    stack = _random_stack(rng, M=4, N=10)
    theta = rng.uniform(0, 0.4, 4)
    K = combine(stack, theta)
    for _ in range(100):
        sigma = rng.choice([-1.0, 1.0], size=10)
        assert sigma @ K @ sigma >= -1e-8 * (sigma @ sigma)


@pytest.mark.parametrize("M", [1, 11])
def test_combine_is_the_tensordot_of_weights_and_stack_bit_for_bit(M):
    rng = np.random.default_rng(40 + M)
    stack = build_gram_stack("t", rng.standard_normal((14, 5)), default_kernel_dictionary()[:M])
    idx = np.array([0, 2, 3, 6, 7, 9, 12, 13])
    # the fancy-indexed sub-stack of a cross-validation fold: kernel axis innermost
    sub = GramStack(task_id="t", grams=stack.grams[:, idx[:, None], idx[None, :]])
    theta = rng.uniform(0.05, 1.0, M) / M
    for s in (stack, sub):
        want = np.tensordot(theta, s.grams, axes=(0, 0))
        assert combine(s, theta).tobytes() == want.tobytes()


def test_combine_length_mismatch():
    rng = np.random.default_rng(6)
    stack = _random_stack(rng, M=3)
    with pytest.raises(ValueError, match="kernel count"):
        combine(stack, np.array([0.5, 0.5]))


def test_trace_vector_matches_diagonals():
    rng = np.random.default_rng(7)
    stack = _random_stack(rng)
    expected = np.array([np.diag(g).sum() for g in stack.grams])
    assert np.array_equal(GramStack(task_id="u", grams=stack.grams).traces, expected)
    assert np.array_equal(stack.traces, expected)


def test_trace_vector_normalized_kernels_give_sample_count():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((10, 3))
    stack = build_gram_stack("t", X, default_kernel_dictionary())
    assert np.allclose(stack.traces, 10.0, atol=1e-10)


def test_trace_vector_zero_and_diagonal_cases():
    grams = np.stack([np.zeros((2, 2)), np.diag([2.0, 3.0])])
    stack = GramStack(task_id="t", grams=grams)
    assert stack.traces[0] == 0.0
    assert stack.traces[1] == 5.0


def test_kernel_spec_label_roundtrip():
    custom = KernelSpec(kind="gaussian", spread=0.5**-0.5)
    for spec in default_kernel_dictionary() + EXPANSION_SPECS + [custom]:
        assert KernelSpec.from_label(spec.label()) == spec, spec.label()


@pytest.mark.parametrize(
    "label, key",
    [("gauss:sx=0.5:norm=0", "sx"), ("linear:norm=1:size=3", "size"), ("poly:d=2::norm=1", "")],
)
def test_kernel_spec_from_label_rejects_an_unknown_field_key(label, key):
    with pytest.raises(ValueError, match=re.escape(f"unknown field {key!r} in kernel label {label!r}")):
        KernelSpec.from_label(label)


@pytest.mark.parametrize(
    "label", ["linear:d=3:norm=5", "gauss:s=0.5:s=2.0:norm=0", "poly:d=2:off=1.0:norm=1:norm=0"]
)
def test_kernel_spec_from_label_rejects_a_label_that_label_never_writes(label):
    # an ignored field, a repeated key and a repeated norm would load silently
    with pytest.raises(ValueError, match=re.escape(f"kernel label {label!r} is not canonical")):
        KernelSpec.from_label(label)


def test_gaussian_spread_is_sigma():
    x = np.array([[0.0]])
    y = np.array([[2.0]])
    sq = 4.0
    sigma = compute_gram([KernelSpec(kind="gaussian", spread=2.0)], x, y)[0][0, 0]
    assert sigma == pytest.approx(np.exp(-sq / (2 * 2.0**2)), rel=1e-15)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"kind": "gaussian", "spread": np.inf}, "spread=inf"),
        ({"kind": "gaussian", "spread": np.nan}, "spread=nan"),
        ({"kind": "gaussian", "spread": -1.0}, "spread=-1.0"),
        ({"kind": "gaussian", "spread": 1e-200}, "spread=1e-200 has no finite positive scale"),
        ({"kind": "gaussian", "spread": 1e200}, "spread=1e\\+200 has no finite positive scale"),
        ({"kind": "gaussian", "spread": 1e154}, "spread=1e\\+154 has no finite positive scale"),
        ({"kind": "gaussian", "spread": 1e-155}, "spread=1e-155 has no finite positive scale"),  # 1 / (2 s^2) is inf
        ({"kind": "polynomial", "offset": np.nan}, "offset=nan"),
        ({"kind": "polynomial", "offset": -np.inf}, "offset=-inf"),
        ({"kind": "polynomial", "degree": 0}, "^polynomial degree must be >= 1, got degree=0$"),
        ({"kind": "sigmoid"}, "^unknown kernel kind: 'sigmoid'$"),
        ({"kind": "polynomial", "degree": 2.5}, "^degree must be an integer, got degree=2.5$"),
        ({"kind": "polynomial", "degree": True, "offset": -5.0}, "^degree must be an integer, got degree=True$"),
        ({"kind": "linear", "normalize": 2}, "^normalize must be a bool, got normalize=2$"),
        ({"kind": "gaussian", "spread": "2"}, "^spread must be a real number, got spread='2'$"),
        ({"kind": "polynomial", "offset": False}, "^offset must be a real number, got offset=False$"),
        ({"kind": "linear", "degree": 3}, "^a linear kernel has no degree, got degree=3$"),
        ({"kind": "gaussian", "offset": np.nan}, "^a gaussian kernel has no offset, got offset=nan$"),
        ({"kind": "polynomial", "spread": 2}, "^a polynomial kernel has no spread, got spread=2.0$"),
    ],
)
def test_kernel_spec_rejects_unusable_values_by_field(fields, message):
    with pytest.raises(ValueError, match=message):
        KernelSpec(**fields)


@pytest.mark.parametrize(
    "kind, field, values",
    [
        ("gaussian", "spread", [2, 2.0, 0.3, np.int64(3), np.float64(2.0**-7)]),
        ("polynomial", "offset", [1, 0, -2, 0.5, -0.0, np.int64(3), np.float32(0.1)]),
    ],
)
def test_int_and_float_spreads_and_offsets_label_back_to_an_equal_spec(kind, field, values):
    # an int written as s=2 or off=1 would not parse back: from_label reads floats
    for value in values:
        for normalize in (False, True, np.True_):
            spec = KernelSpec(kind=kind, normalize=normalize, **{field: value})
            assert getattr(spec, field) == value and type(getattr(spec, field)) is float
            assert KernelSpec.from_label(spec.label()) == spec


# ------------------------------------------------------------- rejections

def test_features_that_are_not_2d_are_rejected_with_their_shape():
    with pytest.raises(ValueError) as err:
        build_gram_stack("t", np.zeros(5), default_kernel_dictionary())
    assert str(err.value) == "X must be 2-d, got shape (5,)"


@pytest.mark.parametrize("shape", [(4, 4), (2, 3, 4)])
def test_gram_stack_names_a_shape_other_than_m_n_n(shape):
    with pytest.raises(ValueError) as err:
        GramStack(task_id="t", grams=np.zeros(shape))
    assert str(err.value) == f"grams must have shape (M, N, N), got {shape}"
