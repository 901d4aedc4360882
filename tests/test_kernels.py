import numpy as np
import pytest

from conicmtl.kernels import (
    EXPAND_BLOCK,
    GramStack,
    KernelSpec,
    KernelWeights,
    build_gram_stack,
    combine,
    compute_gram,
    cosine_normalize,
    default_kernel_dictionary,
    expand,
    gram_cache_key,
    load_cached_gram,
    save_cached_gram,
    trace_vector,
)


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
    assert compute_gram(spec, np.zeros((1, 2)), np.zeros((1, 2)))[0, 0] == 1.0
    # exp(-||0-2||^2 / 2) with unit spread
    got = compute_gram(spec, np.array([[0.0]]), np.array([[2.0]]))[0, 0]
    assert got == pytest.approx(np.exp(-2.0), abs=1e-12)


def test_linear_dot_product():
    spec = KernelSpec(kind="linear")
    got = compute_gram(spec, np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]))[0, 0]
    assert got == 11.0


def test_polynomial_formula():
    spec = KernelSpec(kind="polynomial", degree=2, offset=1.0)
    got = compute_gram(spec, np.array([[1.0, 1.0]]), np.array([[2.0, 0.0]]))[0, 0]
    assert got == (1.0 + 2.0) ** 2


def test_unit_diagonal_for_every_normalized_dictionary_entry():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((12, 4))
    for spec in default_kernel_dictionary():
        gram = compute_gram(spec, X, X)
        assert np.all(np.abs(np.diag(gram) - 1.0) <= 1e-12), spec.label()


def test_cross_gram_normalization_consistent_with_square():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((8, 3))
    spec = KernelSpec(kind="polynomial", degree=2, offset=1.0, normalize=True)
    square = compute_gram(spec, X, X)
    cross = compute_gram(spec, X, X.copy())
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
        compute_gram(spec, np.zeros((2, 3)), np.zeros((2, 4)))
    with pytest.raises(ValueError, match="non-finite"):
        compute_gram(spec, np.array([[np.nan, 0.0]]), np.zeros((1, 2)))


# ---------------------------------------------------------------- expansion

EXPANSION_SPECS = [
    KernelSpec(kind="linear", normalize=True),
    KernelSpec(kind="polynomial", degree=2, offset=1.0, normalize=True),
    KernelSpec(kind="polynomial", degree=3, offset=0.5),
    KernelSpec(kind="gaussian", spread=0.8),
    KernelSpec(kind="gaussian", spread=0.8, gaussian_convention="sigma_sq"),
    KernelSpec(kind="gaussian", spread=0.8, gaussian_convention="gamma"),
    KernelSpec(kind="gaussian", spread=2.0, normalize=True),
]


def brute_force_expansion(specs, theta, rows, coef, cols):
    return sum(w * (coef @ compute_gram(spec, rows, cols)) for w, spec in zip(theta, specs) if w != 0.0)


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


def _random_stack(rng, M=3, N=7):
    grams = np.empty((M, N, N))
    for m in range(M):
        A = rng.standard_normal((N, N + 1))
        grams[m] = A @ A.T / (N + 1)
    return GramStack(task_id="t", grams=grams)


def test_combine_selects_and_zeroes():
    rng = np.random.default_rng(3)
    stack = _random_stack(rng)
    e1 = KernelWeights(np.array([1.0, 0.0, 0.0]), p=1.0)
    assert np.array_equal(combine(stack, e1), stack.grams[0])
    zero = KernelWeights(np.zeros(3), p=1.0)
    assert np.array_equal(combine(stack, zero), np.zeros((7, 7)))


def test_combine_hand_sum():
    grams = np.stack([np.eye(2), np.ones((2, 2))])
    stack = GramStack(task_id="t", grams=grams)
    out = combine(stack, KernelWeights(np.array([0.5, 0.5]), p=1.0))
    assert np.array_equal(out, np.array([[1.0, 0.5], [0.5, 1.0]]))


def test_combine_is_linear_in_weights():
    rng = np.random.default_rng(4)
    stack = _random_stack(rng)
    t1 = rng.uniform(0, 0.4, 3)
    t2 = rng.uniform(0, 0.4, 3)
    a, b = 0.3, 0.6
    lhs = combine(stack, KernelWeights(a * t1 + b * t2, p=1.0))
    rhs = a * combine(stack, KernelWeights(t1, p=1.0)) + b * combine(stack, KernelWeights(t2, p=1.0))
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_combine_psd_spot_check():
    rng = np.random.default_rng(5)
    stack = _random_stack(rng, M=4, N=10)
    theta = rng.uniform(0, 0.4, 4)
    K = combine(stack, KernelWeights(theta, p=1.0))
    for _ in range(100):
        sigma = rng.choice([-1.0, 1.0], size=10)
        assert sigma @ K @ sigma >= -1e-8 * (sigma @ sigma)


def test_combine_length_mismatch():
    rng = np.random.default_rng(6)
    stack = _random_stack(rng, M=3)
    with pytest.raises(ValueError, match="kernel count"):
        combine(stack, KernelWeights(np.array([0.5, 0.5]), p=1.0))


def test_trace_vector_matches_diagonals():
    rng = np.random.default_rng(7)
    stack = _random_stack(rng)
    expected = np.array([np.diag(g).sum() for g in stack.grams])
    assert np.array_equal(trace_vector(stack), expected)
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


def test_gram_cache_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    X = rng.standard_normal((9, 4))
    spec = KernelSpec(kind="gaussian", spread=0.5)
    gram = compute_gram(spec, X, X)
    path = save_cached_gram(spec, X, gram, tmp_path)
    raw = path.read_bytes()
    assert raw[:4] == b"GRAM"
    assert len(raw) == 16 + 9 * 9 * 8
    loaded = load_cached_gram(spec, X, tmp_path)
    assert np.array_equal(loaded, gram)
    # distinct spec or data gives a distinct key
    other = KernelSpec(kind="gaussian", spread=1.0)
    assert gram_cache_key(spec, X) != gram_cache_key(other, X)
    assert load_cached_gram(other, X, tmp_path) is None


def test_build_stack_uses_cache(tmp_path):
    rng = np.random.default_rng(10)
    X = rng.standard_normal((6, 3))
    specs = default_kernel_dictionary()
    first = build_gram_stack("t", X, specs, cache_dir=tmp_path)
    second = build_gram_stack("t", X, specs, cache_dir=tmp_path)
    assert np.array_equal(first.grams, second.grams)
    assert len(list(tmp_path.glob("*.gram"))) == len(specs)


def test_kernel_weights_validation():
    with pytest.raises(ValueError, match="ball"):
        KernelWeights(np.array([1.0, 1.0]), p=1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        KernelWeights(np.array([-0.5, 0.5]), p=2.0)


def test_kernel_spec_label_roundtrip():
    for spec in default_kernel_dictionary():
        assert KernelSpec.from_label(spec.label()) == spec
    custom = KernelSpec(kind="gaussian", spread=0.25, gaussian_convention="gamma")
    assert KernelSpec.from_label(custom.label()) == custom


def test_gaussian_spread_conventions():
    x = np.array([[0.0]])
    y = np.array([[2.0]])
    sq = 4.0
    sigma = compute_gram(KernelSpec(kind="gaussian", spread=2.0), x, y)[0, 0]
    assert sigma == pytest.approx(np.exp(-sq / (2 * 2.0**2)), rel=1e-15)
    sigma_sq = compute_gram(
        KernelSpec(kind="gaussian", spread=2.0, gaussian_convention="sigma_sq"), x, y
    )[0, 0]
    assert sigma_sq == pytest.approx(np.exp(-sq / (2 * 2.0)), rel=1e-15)
    gamma = compute_gram(
        KernelSpec(kind="gaussian", spread=2.0, gaussian_convention="gamma"), x, y
    )[0, 0]
    assert gamma == pytest.approx(np.exp(-2.0 * sq), rel=1e-15)
