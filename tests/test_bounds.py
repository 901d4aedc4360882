import itertools
import math
import os
import sys
import threading
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conicmtl.bounds import (
    CONTRACT_CHUNK,
    MC_BLOCK,
    bound_report,
    bound_rhs_any_lambda,
    bound_rhs_fixed_lambda,
    erc_upper_bound_lp,
    estimate_scale_constant,
    _block_values,
    _contraction_plan,
    _dual_norms,
    _sign_chunks,
    _workers,
    model_radius,
    rademacher_mc,
)
from conicmtl.data import Scaler, TaskDataset, synth_multitask
from conicmtl.kernels import GramStack, build_gram_stack, default_kernel_dictionary
from conicmtl.training import TrainConfig, fit, margin_loss
from conicmtl.util import conjugate_exponent, derive_seed, lp_norm
from conicmtl import bounds, kernels, training, verification
from conicmtl.verification import random_stacks, run_verification_suite


# ------------------------------------------------------------- margin loss

def test_margin_loss_branch_values():
    assert margin_loss(2.0, 1.0) == 0.0
    assert margin_loss(0.5, 1.0) == 0.5
    assert margin_loss(-3.0, 1.0) == 1.0


def test_margin_loss_bounded_and_lipschitz():
    rng = np.random.default_rng(0)
    x = rng.uniform(-50, 50, size=1_000_000)
    rho = 2.0
    vals = margin_loss(x, rho)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    # 1-Lipschitz in x / rho
    x2 = x + rng.uniform(-1, 1, size=x.size)
    vals2 = margin_loss(x2, rho)
    assert np.all(np.abs(vals - vals2) <= np.abs(x - x2) / rho + 1e-12)


def test_margin_loss_needs_positive_rho():
    with pytest.raises(ValueError):
        margin_loss(1.0, 0.0)


# ------------------------------------------------------- complexity: exact

def one_kernel_stack(K, task_id="t"):
    return GramStack(task_id=task_id, grams=np.asarray(K, dtype=float)[None])


def test_single_sample_instance_value_two():
    est = rademacher_mc([one_kernel_stack([[1.0]])], [1.0], R=1.0, p=2.0)
    assert est.exhaustive and est.std_error == 0.0
    assert est.mean == 2.0


def test_two_sample_identity_instance():
    est = rademacher_mc([one_kernel_stack(np.eye(2))], [1.0], R=1.0, p=1.0)
    assert est.mean == pytest.approx(np.sqrt(2.0), rel=1e-15)


def test_weight_scaling_is_exact_homogeneity():
    rng = np.random.default_rng(1)
    stacks = random_stacks(rng, T=2, N=3, M=2)
    lam = np.array([1.3, 2.1])
    base = rademacher_mc(stacks, lam, R=1.0, p=2.0).mean
    quartered = rademacher_mc(stacks, 4.0 * lam, R=1.0, p=2.0).mean
    assert quartered == pytest.approx(base / 2.0, rel=1e-14)
    doubled = rademacher_mc(stacks, 2.0 * lam, R=1.0, p=2.0).mean
    assert doubled == pytest.approx(base / np.sqrt(2.0), rel=1e-13)


def test_gamma_one_matches_no_gamma():
    rng = np.random.default_rng(2)
    stacks = random_stacks(rng, T=2, N=3, M=2)
    lam = np.array([1.5, 2.5])
    a = rademacher_mc(stacks, lam, R=1.0, p=2.0).mean
    b = rademacher_mc(stacks, lam, R=1.0, p=2.0, gamma=np.ones(2)).mean
    assert a == b


def test_closed_form_supremum_against_kernel_weight_grid():
    # brute-force the kernel-weight ball for one sign vector and compare
    rng = np.random.default_rng(3)
    stacks = random_stacks(rng, T=1, N=2, M=2)
    p = 2.0
    lam = np.array([1.7])
    R = 1.3
    sigma = np.array([1.0, -1.0])
    q = np.array([sigma @ g @ sigma for g in stacks[0].grams])
    u = q / lam[0]
    closed = np.sqrt(R * lp_norm(u, conjugate_exponent(p)))
    angles = np.linspace(0, np.pi / 2, 4001)
    thetas = np.stack([np.cos(angles), np.sin(angles)], axis=1)  # boundary of the L2 ball
    grid_best = np.sqrt(R * (thetas @ u)).max()
    assert closed >= grid_best - 1e-12
    assert closed <= grid_best + 1e-6


def test_monte_carlo_reproducible_and_near_exhaustive():
    rng = np.random.default_rng(4)
    stacks = random_stacks(rng, T=2, N=4, M=2)
    lam = np.array([1.2, 2.0])
    exact = rademacher_mc(stacks, lam, R=1.0, p=2.0).mean
    a = rademacher_mc(stacks, lam, R=1.0, p=2.0, samples=4000, seed=9, exhaustive_limit=0)
    b = rademacher_mc(stacks, lam, R=1.0, p=2.0, samples=4000, seed=9, exhaustive_limit=0)
    assert not a.exhaustive and a.std_error > 0
    assert a.mean == b.mean
    assert abs(a.mean - exact) <= 5 * a.std_error


def test_rejects_nonpositive_weights_and_gamma():
    stacks = [one_kernel_stack([[1.0]])]
    with pytest.raises(ValueError, match="positive"):
        rademacher_mc(stacks, np.array([0.0]), R=1.0, p=2.0)
    with pytest.raises(ValueError, match="positive"):
        rademacher_mc(stacks, np.array([1.0]), R=1.0, p=2.0, gamma=np.array([-1.0]))


# ----------------------------------------------------------- scale constant

def test_scale_constant_two_unit_tasks_is_one():
    stacks = [one_kernel_stack([[1.0]], "a"), one_kernel_stack([[1.0]], "b")]
    est = estimate_scale_constant(stacks, R=1.0, p=2.0)
    assert est.mean == 1.0 and est.exhaustive


def test_scale_constant_zero_kernels():
    stacks = [one_kernel_stack(np.zeros((2, 2)))]
    assert estimate_scale_constant(stacks, R=1.0, p=2.0).mean == 0.0


def test_scale_constant_single_task_matches_complexity():
    rng = np.random.default_rng(5)
    stacks = random_stacks(rng, T=1, N=4, M=2)
    total = stacks[0].n_samples
    est = estimate_scale_constant(stacks, R=1.0, p=2.0)
    mc = rademacher_mc(stacks, [1.0], R=1.0, p=2.0)
    assert mc.mean == pytest.approx(2.0 / total * est.mean, rel=1e-12)


def test_scale_constant_monte_carlo_reproducible_and_near_exhaustive():
    rng = np.random.default_rng(12)
    stacks = random_stacks(rng, T=2, N=4, M=2)
    exact = estimate_scale_constant(stacks, R=1.0, p=2.0)
    a = estimate_scale_constant(stacks, R=1.0, p=2.0, samples=4000, seed=9, exhaustive_limit=0)
    b = estimate_scale_constant(stacks, R=1.0, p=2.0, samples=4000, seed=9, exhaustive_limit=0)
    assert exact.exhaustive and not a.exhaustive and a.std_error > 0 and a.samples == 4000
    assert np.float64([a.mean, a.std_error]).tobytes() == np.float64([b.mean, b.std_error]).tobytes()
    assert abs(a.mean - exact.mean) <= 5 * a.std_error


# ------------------------------------------------- sign engine: oracle, checks

def brute_force_tables(stacks, signs):
    """sigma_t' G_t^m sigma_t by an explicit loop; one (rows, M) table per task."""
    tables = []
    lo = 0
    for stack in stacks:
        n = stack.n_samples
        tables.append(np.array([[s[lo : lo + n] @ G @ s[lo : lo + n] for G in stack.grams] for s in signs]))
        lo += n
    return tables


def drawn_signs(tag, seed, samples, total):
    """The documented Monte Carlo draw: Philox blocks of MC_BLOCK keyed on (tag, seed, block)."""
    blocks = []
    for block, start in enumerate(range(0, samples, MC_BLOCK)):
        rng = np.random.Generator(np.random.Philox(key=derive_seed(tag, seed, block)))
        blocks.append(rng.integers(0, 2, size=(min(MC_BLOCK, samples - start), total)) * 2.0 - 1.0)
    return np.vstack(blocks)


def uneven_stacks():
    rng = np.random.default_rng(13)
    return [random_stacks(rng, T=1, N=n, M=2)[0] for n in (3, 5, 7)]


@pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 2.0])
@pytest.mark.parametrize("exhaustive", [True, False])
def test_estimators_match_brute_force_quadratic_forms(p, exhaustive):
    stacks = uneven_stacks()
    total = 15
    lam = np.array([1.3, 2.2, 3.1])
    gamma = np.array([0.7, 1.4, 1.9])
    R = 1.7
    p_star = conjugate_exponent(p)
    # one full block plus a second block that crosses a contraction-chunk boundary
    samples = MC_BLOCK + CONTRACT_CHUNK + 2
    kwargs = {} if exhaustive else dict(samples=samples, seed=5, exhaustive_limit=0)
    complexity = rademacher_mc(stacks, lam, R=R, p=p, gamma=gamma, **kwargs)
    scale = estimate_scale_constant(stacks, R=R, p=p, **kwargs)
    if exhaustive:
        # every task's own patterns, then all 2^total combinations of them
        own = [np.array(list(itertools.product([-1.0, 1.0], repeat=s.n_samples))) for s in stacks]
        combos = np.array(list(itertools.product(*[range(len(o)) for o in own])))
        tables = [brute_force_tables([s], o)[0][combos[:, t]] for t, (s, o) in enumerate(zip(stacks, own))]
    for tag, est in (("rademacher", complexity), ("scale-const", scale)):
        if not exhaustive:
            tables = brute_force_tables(stacks, drawn_signs(tag, 5, samples, total))
        if tag == "rademacher":
            u = sum(g * g / w * q for g, w, q in zip(gamma, lam, tables))
            values = 2.0 / total * np.sqrt(R * np.linalg.norm(u, ord=p_star, axis=1))
        else:
            values = np.sqrt(R * np.max([np.linalg.norm(q, ord=p_star, axis=1) for q in tables], axis=0))
        assert est.samples == (2**total if exhaustive else samples) and est.exhaustive == exhaustive
        assert abs(est.mean - values.mean()) <= 1e-12 * values.mean()
        if not exhaustive:
            expected_se = values.std(ddof=1) / np.sqrt(samples)
            assert abs(est.std_error - expected_se) <= 1e-9 * expected_se


@pytest.mark.parametrize("samples", [MC_BLOCK, 3 * MC_BLOCK])
def test_monte_carlo_memory_stays_bounded(samples, monkeypatch):
    # the benchmark shape: 4 tasks of 30 samples, 11 kernels, on two threads;
    # a product over a whole block per task, or two blocks alive per thread, would exceed this
    monkeypatch.setattr(bounds, "_workers", lambda: 2)
    stacks = random_stacks(np.random.default_rng(14), T=4, N=30, M=11)
    tracemalloc.start()
    try:
        rademacher_mc(stacks, np.full(4, 2.0), R=1.0, p=2.0, samples=samples, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6, f"traced peak {peak / 1e6:.1f} MB"


def test_monte_carlo_memory_is_one_sign_chunk_not_one_block():
    # 40 tasks of 50 samples, one kernel: a whole block of 4,096 sign vectors
    # as float64 is 65.5 MB, one chunk of CONTRACT_CHUNK is 8.2 MB
    stacks = random_stacks(np.random.default_rng(15), T=40, N=50, M=1)
    total = 40 * 50
    tracemalloc.start()
    try:
        rademacher_mc(stacks, np.full(40, 2.0), R=1.0, p=2.0, samples=MC_BLOCK, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the float chunk, its raw words (half its size) and the tables fit in twice the chunk
    assert peak <= 2 * 8 * total * CONTRACT_CHUNK, f"traced peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("exhaustive_limit", [20, 0])
@pytest.mark.parametrize("samples", [0, -3])
def test_both_estimators_reject_nonpositive_samples(samples, exhaustive_limit):
    stacks = [one_kernel_stack(np.eye(2))]
    with pytest.raises(ValueError, match="samples must be positive"):
        estimate_scale_constant(stacks, R=1.0, p=2.0, samples=samples, exhaustive_limit=exhaustive_limit)
    with pytest.raises(ValueError, match="samples must be positive"):
        rademacher_mc(stacks, [1.0], R=1.0, p=2.0, samples=samples, exhaustive_limit=exhaustive_limit)


def test_both_estimators_reject_empty_stacks():
    with pytest.raises(ValueError, match="at least one task"):
        rademacher_mc([], np.array([]), R=1.0, p=2.0)
    with pytest.raises(ValueError, match="at least one task"):
        estimate_scale_constant([], R=1.0, p=2.0)


@pytest.mark.parametrize("exhaustive_limit", [20, 0])
def test_both_estimators_reject_mixed_kernel_counts(exhaustive_limit):
    two = GramStack(task_id="b", grams=np.stack([np.eye(3), np.eye(3)]))
    stacks = [one_kernel_stack(np.eye(3), "a"), two]
    with pytest.raises(ValueError, match="task 'b' has 2 kernels, task 'a' has 1"):
        rademacher_mc(stacks, [1.0, 1.0], R=1.0, p=2.0, samples=64, exhaustive_limit=exhaustive_limit)
    with pytest.raises(ValueError, match="task 'b' has 2 kernels, task 'a' has 1"):
        estimate_scale_constant(stacks, R=1.0, p=2.0, samples=64, exhaustive_limit=exhaustive_limit)


def test_rejects_task_weights_of_wrong_length():
    stacks = [one_kernel_stack(np.eye(2), "a"), one_kernel_stack(np.eye(2), "b")]
    with pytest.raises(ValueError, match=r"task_weights has shape \(1,\), expected one entry per task \['a', 'b'\]"):
        rademacher_mc(stacks, [1.0], R=1.0, p=2.0)
    with pytest.raises(ValueError, match=r"task_weights has shape \(3,\)"):
        rademacher_mc(stacks, [1.0, 1.0, 1.0], R=1.0, p=2.0)


def test_rejects_gamma_of_wrong_length():
    stacks = [one_kernel_stack(np.eye(2), "a"), one_kernel_stack(np.eye(2), "b")]
    with pytest.raises(ValueError, match=r"gamma has shape \(1,\), expected one entry per task \['a', 'b'\]"):
        rademacher_mc(stacks, [1.0, 1.0], R=1.0, p=2.0, gamma=[2.0])


def test_rejects_task_without_samples():
    # the stack rejects itself when made, so no estimator can be handed one
    with pytest.raises(ValueError, match="task 'empty' has no samples"):
        one_kernel_stack(np.zeros((0, 0)), "empty")


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_both_estimators_reject_non_finite_radius(value):
    stacks = [one_kernel_stack(np.eye(2))]
    with pytest.raises(ValueError, match=f"R must be finite and nonnegative, got {value}"):
        rademacher_mc(stacks, [1.0], R=value, p=2.0)
    with pytest.raises(ValueError, match=f"R must be finite and nonnegative, got {value}"):
        estimate_scale_constant(stacks, R=value, p=2.0)


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_rejects_non_finite_task_weight_and_gamma(value):
    stacks = [one_kernel_stack(np.eye(2), "a"), one_kernel_stack(np.eye(2), "b")]
    with pytest.raises(ValueError, match=f"task_weights of task 'b' must be positive and finite, got {value}"):
        rademacher_mc(stacks, [1.0, value], R=1.0, p=2.0)
    with pytest.raises(ValueError, match=f"gamma of task 'b' must be positive and finite, got {value}"):
        rademacher_mc(stacks, [1.0, 1.0], R=1.0, p=2.0, gamma=[1.0, value])


@pytest.mark.parametrize("value", [float("inf"), -float("inf"), float("nan")])
@pytest.mark.parametrize("exhaustive_limit", [20, 0])
def test_both_estimators_reject_non_finite_gram_entries(value, exhaustive_limit):
    # the stack rejects itself when made; the estimators read only stacks that passed
    grams = np.stack([np.eye(3), np.eye(3), np.eye(3)])
    grams[2, 0, 1] = value
    with pytest.raises(ValueError, match="task 'b' kernel 2 has a non-finite Gram entry"):
        GramStack(task_id="b", grams=grams)
    grams[2, 0, 1] = 0.0
    stacks = [GramStack(task_id="a", grams=np.stack([np.eye(3)] * 3)), GramStack(task_id="b", grams=grams)]
    kwargs = dict(samples=64, exhaustive_limit=exhaustive_limit)
    assert np.isfinite(rademacher_mc(stacks, [1.0, 1.0], R=1.0, p=2.0, **kwargs).mean)
    assert np.isfinite(estimate_scale_constant(stacks, R=1.0, p=2.0, **kwargs).mean)


@pytest.mark.parametrize("samples", [5000.0, True, "64"])
def test_both_estimators_reject_samples_that_are_not_integers(samples):
    stacks = [one_kernel_stack(np.eye(2))]
    with pytest.raises(ValueError, match=f"samples must be an integer, got {samples!r}"):
        rademacher_mc(stacks, [1.0], R=1.0, p=2.0, samples=samples)
    with pytest.raises(ValueError, match=f"samples must be an integer, got {samples!r}"):
        estimate_scale_constant(stacks, R=1.0, p=2.0, samples=samples, exhaustive_limit=0)


def test_numpy_integer_samples_are_accepted():
    stacks = [one_kernel_stack(np.eye(2))]
    a = rademacher_mc(stacks, [1.0], R=1.0, p=2.0, samples=np.int64(64), exhaustive_limit=0)
    b = rademacher_mc(stacks, [1.0], R=1.0, p=2.0, samples=64, exhaustive_limit=0)
    assert a == b


@pytest.mark.parametrize("p, p_star", [(1.0, math.inf), (4.0 / 3.0, 4.0), (2.0, 2.0), (4.0, 4.0 / 3.0), (math.inf, 1.0)])
def test_conjugate_exponent_is_the_hoelder_conjugate(p, p_star):
    assert conjugate_exponent(p) == pytest.approx(p_star)


def test_both_estimators_reject_nan_exponent():
    stacks = [one_kernel_stack(np.eye(2))]
    with pytest.raises(ValueError, match="exponent must be >= 1, got nan"):
        conjugate_exponent(float("nan"))
    with pytest.raises(ValueError, match="exponent must be >= 1, got nan"):
        rademacher_mc(stacks, [1.0], R=1.0, p=float("nan"))
    with pytest.raises(ValueError, match="exponent must be >= 1, got nan"):
        estimate_scale_constant(stacks, R=1.0, p=float("nan"))


# ------------------------------------------ sign engine: stream, golden, identity Grams

@pytest.mark.parametrize(
    "total, samples",
    [(1, 1), (1, MC_BLOCK + 1), (7, 333), (7, MC_BLOCK + 333), (120, 3), (120, 2 * MC_BLOCK + 5)],
)
def test_monte_carlo_sign_blocks_are_the_documented_stream(total, samples):
    # Generator(Philox(key)).integers(0, 2) is the documented draw; a numpy
    # change on either side of this comparison must fail here
    expected = drawn_signs("rademacher", 23, samples, total)
    buffer = np.empty(total * CONTRACT_CHUNK)
    for block, start in enumerate(range(0, samples, MC_BLOCK)):
        chunks = []
        n_block = min(MC_BLOCK, samples - start)
        for at, chunk in _sign_chunks(buffer, total, n_block, block, "rademacher", 23, exhaustive=False):
            assert at == sum(c.shape[1] for c in chunks) and np.shares_memory(chunk, buffer)
            assert chunk.flags.c_contiguous and chunk.dtype == np.float64
            chunks.append(chunk.copy())
        assert all(c.shape[1] == CONTRACT_CHUNK for c in chunks[:-1])
        cols = np.hstack(chunks)
        assert cols.tobytes() == np.ascontiguousarray(expected[start : start + MC_BLOCK].T).tobytes()


def golden_stacks(sizes):
    """A random PSD Gram, the identity, and a unit diagonal with 1e-300 off it, per task."""
    rng = np.random.default_rng(31)
    stacks = []
    for t, n in enumerate(sizes):
        A = rng.standard_normal((n, n + 2))
        tiny = np.full((n, n), 1e-300)
        np.fill_diagonal(tiny, 1.0)
        stacks.append(GramStack(task_id=f"g{t}", grams=np.stack([A @ A.T / (n + 2), np.eye(n), tiny])))
    return stacks


def test_estimates_match_recorded_golden_bits():
    # recorded from the engine that drew signs through Generator.integers and
    # contracted every kernel; any later change must keep these bits
    lam = np.array([1.3, 2.2, 3.1])
    gamma = np.array([0.7, 1.4, 1.9])
    mc = golden_stacks((3, 5, 4))
    exact = golden_stacks((3, 4))
    kwargs = dict(samples=4_996, seed=17, exhaustive_limit=0)
    cases = [
        (rademacher_mc(mc, lam, R=1.7, p=4 / 3, gamma=gamma, **kwargs), "0x1.91fc05c0d1f7ep-1", "0x1.6ae9bba75fb1ep-12"),
        (estimate_scale_constant(mc, R=1.7, p=4 / 3, **kwargs), "0x1.adb9b4aebef14p+1", "0x1.b3e9b3592e62dp-9"),
        (rademacher_mc(exact, lam[:2], R=1.7, p=2.0, gamma=gamma[:2]), "0x1.04f1df8f2b2a3p+0", "0x0.0p+0"),
        (estimate_scale_constant(exact, R=1.7, p=2.0), "0x1.a6649fae8c8ccp+1", "0x0.0p+0"),
    ]
    for est, mean, std_error in cases:
        assert (est.mean.hex(), est.std_error.hex()) == (mean, std_error)
    assert [est.samples for est, _, _ in cases] == [4_996, 4_996, 128, 128]
    assert [est.exhaustive for est, _, _ in cases] == [False, False, True, True]


def full_contraction(cols, stacks):
    """sigma' G sigma for every kernel through the GEMM, CONTRACT_CHUNK columns at a time, none left out."""
    tables = []
    lo = 0
    for stack in stacks:
        M, n, _ = stack.grams.shape
        signs = cols[lo : lo + n]
        lo += n
        table = np.empty((M, cols.shape[1]))
        for start in range(0, cols.shape[1], CONTRACT_CHUNK):
            part = signs[:, start : start + CONTRACT_CHUNK]
            prod = (stack.grams.reshape(M * n, n) @ part).reshape(M, n, part.shape[1])
            np.einsum("mic,ic->mc", prod, part, out=table[:, start : start + CONTRACT_CHUNK])
        tables.append(table)
    return tables


def unit_diagonal(n, row_sum, rng, spread=True):
    """Unit diagonal; each row's off-diagonal |entries| sum to row_sum, with random signs."""
    G = np.eye(n)
    for i in range(n):
        others = [j for j in range(n) if j != i]
        share = rng.uniform(0.5, 1.0, n - 1) if spread else np.eye(1, n - 1, int(rng.integers(n - 1)))[0]
        G[i, others] = rng.choice([-1.0, 1.0], n - 1) * (row_sum * share / share.sum())
    return G


KINDS = {
    "diagonal": (True, lambda n, rng: np.eye(n)),
    "below, spread": (True, lambda n, rng: unit_diagonal(n, 0.999 * 2.0**-56, rng)),
    "below, one entry": (True, lambda n, rng: unit_diagonal(n, 0.999 * 2.0**-56, rng, spread=False)),
    "tiny": (True, lambda n, rng: unit_diagonal(n, 1e-300, rng)),
    "above": (False, lambda n, rng: unit_diagonal(n, 1.01 * 2.0**-56, rng)),
    "above, one entry": (False, lambda n, rng: unit_diagonal(n, 2.0**-55, rng, spread=False)),
    "diagonal 1 - 2^-53": (False, lambda n, rng: np.diag(np.r_[1.0 - 2.0**-53, np.ones(n - 1)])),
    "psd": (False, lambda n, rng: random_stacks(rng, T=1, N=n, M=1)[0].grams[0]),
}


@pytest.mark.parametrize(
    "kinds",
    [
        ["diagonal", "below, spread", "below, one entry", "tiny"],
        ["above", "above, one entry", "diagonal 1 - 2^-53", "psd"],
        ["psd", "diagonal", "above", "below, spread", "psd", "diagonal 1 - 2^-53", "tiny"],
    ],
    ids=["all qualify", "none qualify", "mixed"],
)
def test_identity_grams_skip_the_gemm_with_identical_bytes(kinds):
    rng = np.random.default_rng(37)
    sizes = (2, 9, 30)
    stacks = [
        GramStack(task_id=f"t{t}", grams=np.stack([KINDS[kind][1](n, rng) for kind in kinds]))
        for t, n in enumerate(sizes)
    ]
    expected_keep = [m for m, kind in enumerate(kinds) if not KINDS[kind][0]]
    plan = _contraction_plan(stacks)
    for stack, (M, n, grams, runs) in zip(stacks, plan):
        assert np.shares_memory(grams, stack.grams) and grams.shape == (M * n, n)
        assert [m for a, b, _ in runs for m in range(a, b)] == expected_keep
        for a, b, gemm in runs:
            # a maximal run, and a view of the stack, not a copy
            assert a - 1 not in expected_keep and b not in expected_keep
            assert np.shares_memory(gemm, stack.grams) and gemm.tobytes() == stack.grams[a:b].tobytes()
    # full chunks before a partial one, then every width of a lone partial
    # chunk: the BLAS rounds some partial widths differently by row count
    total = sum(sizes)
    for width in (2 * CONTRACT_CHUNK + 3, *range(1, CONTRACT_CHUNK)):
        chunks = recorded_tables(plan, total, width, [0], "identity", width)
        tables = [np.hstack(parts) for parts in zip(*chunks)]
        cols = np.ascontiguousarray(drawn_signs("identity", width, width, total).T)
        for got, want in zip(tables, full_contraction(cols, stacks)):
            assert got.tobytes() == want.tobytes()
        for n, table in zip(sizes, tables):
            for m, kind in enumerate(kinds):
                if KINDS[kind][0]:
                    assert (table[m] == n).all()


def recorded_tables(plan, total, n_patterns, blocks, tag, seed):
    """Copies of the per-task tables that _block_values hands its reduce, one list per chunk."""
    chunks = []

    def reduce(tables):
        chunks.append([table.copy() for table in tables])
        return tables[0][0]

    for _ in _block_values(plan, total, n_patterns, blocks, tag, seed, False, reduce):
        pass
    return chunks


# ------------------------------------------------- sign engine: threads

def both_estimates(stacks, **kwargs):
    """Hex of mean and std error of both estimators."""
    lam = np.linspace(1.3, 2.9, len(stacks))
    ests = (
        rademacher_mc(stacks, lam, R=1.7, p=4 / 3, gamma=np.linspace(0.7, 1.9, len(stacks)), **kwargs),
        estimate_scale_constant(stacks, R=1.7, p=4 / 3, **kwargs),
    )
    return [(est.mean.hex(), est.std_error.hex(), est.samples) for est in ests]


@pytest.mark.parametrize(
    "sizes, samples",
    [
        ((30, 30, 30, 30), 3 * MC_BLOCK),
        ((30, 30, 30, 30), 2 * MC_BLOCK + 5),  # a narrow last chunk
        ((3, 5, 7), MC_BLOCK + CONTRACT_CHUNK + 1),  # a one-column last chunk
        ((13,), None),  # exhaustive: 2, 4 and 8 blocks
        ((7, 7), None),
        ((3, 5, 7), None),
    ],
)
def test_estimates_have_the_same_bits_at_any_thread_count(sizes, samples, monkeypatch):
    rng = np.random.default_rng(41)
    stacks = [random_stacks(rng, T=1, N=n, M=9)[0] for n in sizes]
    kwargs = {} if samples is None else dict(samples=samples, seed=3, exhaustive_limit=0)
    digests = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(bounds, "_workers", lambda: workers)
        digests.append(both_estimates(stacks, **kwargs))
    assert digests[0] == digests[1] == digests[2]
    assert digests[0][0][2] == (samples or 2 ** sum(sizes))


@pytest.mark.parametrize("seed", range(4))
def test_a_one_column_chunk_is_reduced_with_the_bits_of_a_block_wide_reduce(seed):
    # numpy sums a lone column over the kernels pairwise and a wider table row by row
    stacks = random_stacks(np.random.default_rng(seed), T=2, N=4, M=20)
    plan = _contraction_plan(stacks)
    samples = MC_BLOCK + CONTRACT_CHUNK + 1

    def reduce(tables):
        return _dual_norms(sum(tables), 2.0)

    got = dict(_block_values(plan, 8, samples, [0, 1], "rademacher", seed, False, reduce))
    chunks = recorded_tables(plan, 8, samples, [1], "rademacher", seed)
    # the lone column reaches reduce twice, side by side
    assert [tables[0].shape[1] for tables in chunks] == [CONTRACT_CHUNK, 2]
    for table in chunks[1]:
        assert table[:, :1].tobytes() == table[:, 1:].tobytes()
    wide = reduce([np.hstack([full, lone[:, :1]]) for full, lone in zip(*chunks)])
    assert got[1].tobytes() == wide.tobytes()


def test_an_error_on_a_helper_thread_is_raised_after_every_thread_ended(monkeypatch):
    monkeypatch.setattr(bounds, "_workers", lambda: 3)
    stacks = random_stacks(np.random.default_rng(42), T=2, N=10, M=2)
    before = threading.active_count()
    calls = []

    def reduce(tables):
        calls.append(threading.current_thread() is threading.main_thread())
        if not calls[-1]:
            raise ArithmeticError("helper block")
        return tables[0][0]

    with pytest.raises(ArithmeticError, match="helper block"):
        bounds._sign_expectation(stacks, 8 * MC_BLOCK, "rademacher", 0, False, reduce)
    assert threading.active_count() == before
    assert not all(calls)


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.parametrize(
    "env, pinned",
    [
        ({}, False),
        ({"OPENBLAS_NUM_THREADS": "1"}, True),
        ({"OMP_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),  # OpenBLAS reads the first one set
        ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, True),
        ({"GOTO_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, False),
    ],
)
def test_block_threads_start_only_when_blas_is_pinned_to_one_thread(env, pinned, monkeypatch):
    for name in BLAS_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    assert _workers() == (cpus if pinned else 1)
    if not pinned:
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        rademacher_mc(random_stacks(np.random.default_rng(43), T=2, N=10, M=2), [1.5, 2.0], R=1.0, p=2.0,
                      samples=4 * MC_BLOCK, exhaustive_limit=0)
        assert started == []


def test_helper_threads_call_no_traced_training_or_kernels_function(monkeypatch):
    # the benchmark's tracer keeps one stack of open spans, so only the calling
    # thread may enter a function it wraps
    stacks = random_stacks(np.random.default_rng(44), T=3, N=12, M=4)
    kwargs = dict(samples=4 * MC_BLOCK, seed=1, exhaustive_limit=0)
    expected = both_estimates(stacks, **kwargs)
    for module in (training, kernels):
        for name, fn in list(vars(module).items()):
            if not callable(fn) or isinstance(fn, type) or getattr(fn, "__module__", None) != module.__name__:
                continue

            def guarded(*args, _fn=fn, **kw):
                if threading.current_thread() is not threading.main_thread():
                    raise AssertionError(f"{_fn.__qualname__} called off the main thread")
                return _fn(*args, **kw)

            for owner in [m for key, m in list(sys.modules.items()) if key.startswith("conicmtl")]:
                for attr, value in list(vars(owner).items()):
                    if value is fn:
                        monkeypatch.setattr(owner, attr, guarded)
    monkeypatch.setattr(bounds, "_workers", lambda: 2)
    assert both_estimates(stacks, **kwargs) == expected


# ------------------------------------------------------------- trace bound

def unit_trace_stacks(T, N, M):
    """T tasks of M Grams, each N x N with trace 1."""
    return [GramStack(f"t{t}", np.repeat(np.eye(N)[None] / N, M, axis=0)) for t in range(T)]


def test_trace_bound_plugin_value():
    assert erc_upper_bound_lp(unit_trace_stacks(1, 1, 1), [1.0], 1.0, 2.0) == pytest.approx(4.0, rel=1e-12)


def test_trace_bound_homogeneity_and_weight_decay():
    stacks = unit_trace_stacks(2, 3, 2)
    value = erc_upper_bound_lp(stacks, [1.0, 1.0], 1.0, 2.0)
    assert erc_upper_bound_lp(stacks, [1.0, 1.0], 2.0, 2.0) == pytest.approx(np.sqrt(2) * value, rel=1e-12)
    assert erc_upper_bound_lp(stacks, [1e9, 1e9], 1.0, 2.0) < 1e-3 * value


def test_trace_bound_p1_not_applicable_by_default():
    assert np.isnan(erc_upper_bound_lp(unit_trace_stacks(1, 2, 3), [1.0], 1.0, 1.0))


def test_exhaustive_complexity_below_trace_bound():
    rng = np.random.default_rng(6)
    for _ in range(30):
        T = int(rng.integers(1, 4))
        N = int(rng.integers(1, 5))
        M = int(rng.integers(1, 4))
        stacks = random_stacks(rng, T=T, N=N, M=M)
        p = float(rng.choice([4 / 3, 2.0, 4.0]))
        lam = rng.uniform(1.0, 4.0, T)
        R = float(rng.uniform(0.5, 2.0))
        mc = rademacher_mc(stacks, lam, R=R, p=p).mean
        assert mc <= erc_upper_bound_lp(stacks, lam, R, p) + 1e-12


# ------------------------------------------------------------- bound terms

def bound_values(r_max, N=5, T=2, delta=0.5, rho=1.0):
    """The keywords of both bound totals for T tasks of N samples."""
    return {"r_max": r_max, "total": T * N, "rho": rho, "delta": delta}


@pytest.mark.parametrize(
    "lam, r_max, message",
    [
        ([1.0, float("nan")], 4.0, r"task weights must be finite, got \[ 1. nan\]"),
        ([float("inf"), 1.0], 4.0, r"task weights must be finite, got \[inf  1.\]"),
        ([1.0, 1.0], 1.0, "r_max must exceed 1, got 1.0"),
        ([1.0, 1.0], float("nan"), "r_max must exceed 1, got nan"),
    ],
    ids=["nan-weight", "inf-weight", "cap-one", "cap-nan"],
)
def test_bound_inputs_reject_non_finite_weights_and_a_cap_not_above_one(lam, r_max, message):
    with pytest.raises(ValueError, match=message):
        bound_rhs_any_lambda(0.0, 0.0, task_weights=lam, **bound_values(r_max))


@pytest.mark.parametrize(
    "values, message",
    [
        ({"r_max": 1.0}, "r_max must exceed 1, got 1.0"),
        ({"delta": 1.5}, r"delta must lie in \(0, 1\)"),
        ({"delta": 0.0}, r"delta must lie in \(0, 1\)"),
        ({"rho": 0.0}, "rho must be positive"),
    ],
    ids=["cap-one", "delta-above-one", "delta-zero", "rho-zero"],
)
def test_both_bound_totals_reject_a_bad_cap_delta_or_rho(values, message):
    given = {**bound_values(4.0), **values}
    with pytest.raises(ValueError, match=message):
        bound_rhs_any_lambda(0.0, 0.0, task_weights=[1.5, 2.0], **given)
    with pytest.raises(ValueError, match=message):
        bound_rhs_fixed_lambda(0.0, 0.0, **given)


def test_adaptive_bound_third_term_example():
    with pytest.warns(UserWarning, match="boundary"):
        terms = bound_rhs_any_lambda(0.0, 0.0, task_weights=[2.0, 2.0, 2.0], **bound_values(2.0, N=7, T=3))
    # (2 r / T) sum 1/lam = 2 -> sqrt(9 ln 2 / (T N))
    assert terms.weight_range == pytest.approx(np.sqrt(9 * np.log(2.0) / 21), rel=1e-12)


def test_adaptive_bound_confidence_term_vanishes_as_delta_to_one():
    terms = bound_rhs_any_lambda(0.1, 0.0, task_weights=[1.5, 1.5], **bound_values(4.0, delta=1 - 1e-12))
    assert terms.confidence == pytest.approx(0.0, abs=1e-5)


def test_log_argument_exceeds_one_for_any_in_box_weights():
    # with 1 <= lam <= r the log argument is at least 2, so the clamp
    # can only ever fire on out-of-box exploratory calls
    rng = np.random.default_rng(11)
    for _ in range(50):
        T = int(rng.integers(1, 8))
        r = float(rng.uniform(1.5, 20.0))
        lam = rng.uniform(1.0, r, size=T)
        assert (2.0 * np.ceil(r) / T) * (1.0 / lam).sum() >= 2.0


def test_adaptive_bound_clamps_nonpositive_log_for_out_of_box_weights():
    with pytest.warns(UserWarning, match="clamped"), pytest.warns(UserWarning, match="on the box boundary"):
        terms = bound_rhs_any_lambda(0.0, 0.0, task_weights=np.full(4, 30.0), **bound_values(4.0, T=4))
    assert terms.weight_range == 0.0


def test_adaptive_bound_breakdown_sums_to_total():
    terms = bound_rhs_any_lambda(0.25, 0.1, task_weights=[1.7, 2.5], **bound_values(4.0))
    assert terms.total == pytest.approx(
        0.25 + terms.complexity + terms.weight_range + terms.confidence
    )
    assert terms.r_max_used == 4.0


def test_adaptive_bound_rounds_fractional_weight_cap_up():
    terms = bound_rhs_any_lambda(0.0, 0.1, task_weights=[1.7, 2.0], **bound_values(2.5))
    assert terms.r_max_used == 3.0
    assert terms.complexity == pytest.approx(np.sqrt(2.0) * 3.0 * 0.1, rel=1e-12)


def test_fixed_bound_examples_and_comparison():
    values = bound_values(4.0)
    fixed = bound_rhs_fixed_lambda(0.2, 0.1, **values)
    adaptive = bound_rhs_any_lambda(0.2, 0.1, task_weights=[1.5, 2.0], **values)
    assert fixed < adaptive.total
    assert bound_rhs_fixed_lambda(0.0, 0.0, **values) == pytest.approx(
        np.sqrt(9 * np.log(2.0) / (2 * 2 * 5)), rel=1e-12
    )
    # delta = e^-2 with TN = 9 makes the confidence term exactly 1
    values9 = bound_values(2.0, N=3, T=3, delta=float(np.exp(-2.0)))
    assert bound_rhs_fixed_lambda(0.3, 0.05, **values9) == pytest.approx(
        0.3 + 2.0 * 0.05 + 1.0, rel=1e-12
    )


# ------------------------------------------------------------ model report

def trained_model(seed=0, T=2, N=10):
    data = synth_multitask(T=T, N=N, d=4, task_similarity=0.7, noise=0.6, seed=seed)
    scaler = Scaler().fit(np.vstack([t.X for t in data]))
    tasks = [TaskDataset(t.task_id, scaler.transform(t.X), t.y) for t in data]
    specs = default_kernel_dictionary()
    stacks = [build_gram_stack(t.task_id, t.X, specs) for t in tasks]
    cost = sum(s.trace_norm(2.0) for s in stacks)
    cfg = TrainConfig(C=1.0, p=2.0, budget=0.6 * cost, r_max=8.0, mode="conic")
    return fit(tasks, stacks, cfg, kernel_specs=specs), tasks, stacks


def test_model_radius_matches_combined_kernel_norm():
    model, tasks, stacks = trained_model(seed=7)
    total = 0.0
    for t, task in enumerate(tasks):
        coef = model.duals[t].alpha * task.y
        from conicmtl.kernels import combine

        K = combine(stacks[t], model.theta)
        total += model.task_weights[t] * float(coef @ K @ coef)
    assert model_radius(model) == pytest.approx(total, rel=1e-9)


def test_bound_report_fields_and_consistency():
    model, tasks, stacks = trained_model(seed=8)
    report = bound_report(model, tasks, delta=0.1, rho=1.0, mc_samples=500, seed=3, stacks=stacks)
    vals = report.values
    assert vals["total_fixed"] <= vals["total_adaptive"]
    assert vals["term_empirical"] == pytest.approx(vals["empirical_weighted_loss"])
    assert 0.0 <= vals["test_error"] <= 1.0
    total = (
        vals["term_empirical"]
        + vals["term_complexity"]
        + vals["term_weight_range"]
        + vals["term_confidence"]
    )
    assert vals["total_adaptive"] == pytest.approx(total)
    header = report.csv_header().split(",")
    row = report.csv_row().split(",")
    assert len(header) == len(row)
    assert "complexity_mc" in header


def test_bound_report_test_error_labels_a_zero_decision_value_as_predict_does():
    model, tasks, stacks = trained_model(seed=8)
    assert not model.config.use_bias
    model = replace(model, duals=[replace(d, alpha=np.zeros_like(d.alpha)) for d in model.duals])
    report = bound_report(model, tasks, mc_samples=50, stacks=stacks)
    errors = [float((training.predict(model, t.task_id, t.X)[0] != t.y).mean()) for t in tasks]
    assert 0.0 < np.mean(errors) < 1.0  # every value is 0, labelled +1
    assert report.values["test_error"] == np.mean(errors)


def test_bound_report_names_tasks_of_unequal_size():
    data = synth_multitask(T=2, N=10, d=3, task_similarity=0.7, noise=0.6, seed=4)
    tasks = [data[0], data[1].subset(np.arange(8))]
    specs = default_kernel_dictionary()[:2]
    stacks = [build_gram_stack(t.task_id, t.X, specs) for t in tasks]
    model = fit(tasks, stacks, TrainConfig(mode="average"), kernel_specs=specs)
    with pytest.raises(ValueError) as err:
        bound_report(model, tasks, mc_samples=50, stacks=stacks)
    sizes = {tasks[0].task_id: 10, tasks[1].task_id: 8}
    assert str(err.value) == f"bound reporting requires all tasks to have the same sample count, got {sizes}"


def test_bound_report_keeps_its_field_order():
    model, tasks, stacks = trained_model(seed=8)
    report = bound_report(model, tasks, mc_samples=50, seed=3, stacks=stacks)
    names = (
        "tasks,per_task_samples,kernels,p,rho,delta,r_ball,r_max,r_max_integer,"
        "empirical_weighted_loss,complexity_mc,complexity_mc_stderr,complexity_mc_samples,"
        "complexity_exhaustive,complexity_upper_bound,term_empirical,term_complexity,"
        "term_weight_range,term_confidence,total_adaptive,total_fixed,test_error"
    )
    assert report.csv_header() == names
    assert [line.split(" ")[0] for line in report.lines()] == names.split(",")
    assert report.csv_row().split(",") == [line.split(" ")[1] for line in report.lines()]


def test_bound_report_rejects_a_permuted_stacks_list_before_any_sampling(monkeypatch):
    # equal task sizes pass the shape checks, so only the task ids tell the stacks apart
    model, tasks, stacks = trained_model(seed=8)

    def never(*args, **kwargs):
        raise AssertionError("sampled signs for misaligned stacks")

    monkeypatch.setattr("conicmtl.bounds.rademacher_mc", never)
    with pytest.raises(ValueError, match="stack of task 'synth1' has shape .* for task 'synth0'"):
        bound_report(model, tasks, mc_samples=50, seed=3, stacks=stacks[::-1])


def test_verification_suite_all_pass():
    results = run_verification_suite(seed=1, n_instances=8)
    for result in results:
        assert result.passed, result.line()


@pytest.mark.parametrize("n_instances", [0, -3, True, 2.5])
def test_every_check_rejects_an_instance_count_that_is_not_a_positive_integer(monkeypatch, n_instances):
    def never(*args, **kwargs):
        raise AssertionError("sampled before the instance count was checked")

    for name in ("random_stacks", "rademacher_mc", "estimate_scale_constant", "pareto_lambda", "bound_rhs_any_lambda"):
        monkeypatch.setattr(verification, name, never)
    checks = [getattr(verification, name) for name in dir(verification) if name.startswith("check_")]
    assert len(checks) == 7
    for check in [*checks, run_verification_suite]:
        with pytest.raises(ValueError, match=rf"^n_instances must be a positive integer, got {n_instances!r}$"):
            check(n_instances=n_instances)


# ---------------------------------------------------------- pinned outputs

GOLDEN_REPORTS = {
    "conic-p2": (
        {"mode": "conic"},
        {"mc_samples": 400, "seed": 5},
        """
        tasks 3
        per_task_samples 10
        kernels 11
        p 0x1.0000000000000p+1
        rho 0x1.0000000000000p+0
        delta 0x1.999999999999ap-5
        r_ball 0x1.91bb008531d39p+3
        r_max 0x1.a000000000000p+2
        r_max_integer 0x1.c000000000000p+2
        empirical_weighted_loss 0x1.c2b714e9b4041p-14
        complexity_mc 0x1.d8dddd1afe773p+0
        complexity_mc_stderr 0x1.8027ec1f0f0afp-7
        complexity_mc_samples 400
        complexity_exhaustive 0
        complexity_upper_bound 0x1.d3397367f8debp+1
        term_empirical 0x1.c2b714e9b4041p-14
        term_complexity 0x1.249241c56055fp+4
        term_weight_range 0x1.991c25b929195p-1
        term_confidence 0x1.5737353299671p-1
        total_adaptive 0x1.3c154d4a83a47p+4
        total_fixed 0x1.95a89854a2cc2p+3
        test_error 0x1.6c16c16c16c17p-2
        """,
    ),
    "pareto-bias": (
        {"mode": "pareto", "use_bias": True},
        {"delta": 0.1, "rho": 0.5, "mc_samples": 400, "seed": 5},
        """
        tasks 3
        per_task_samples 10
        kernels 11
        p 0x1.0000000000000p+1
        rho 0x1.0000000000000p-1
        delta 0x1.999999999999ap-4
        r_ball 0x1.583ba47a58744p+4
        r_max 0x1.a000000000000p+2
        r_max_integer 0x1.c000000000000p+2
        empirical_weighted_loss 0x0.0p+0
        complexity_mc 0x1.cd98a2066d9a6p+0
        complexity_mc_stderr 0x1.77eca0cb65614p-7
        complexity_mc_samples 400
        complexity_exhaustive 0
        complexity_upper_bound 0x1.c7e4f51853ad9p+1
        term_empirical 0x0.0p+0
        term_complexity 0x1.1d991c87d7abep+5
        term_weight_range 0x1.5c0f6b73998f4p-1
        term_confidence 0x1.2ce69f06f0447p-1
        total_adaptive 0x1.27bcf4b1c1d33p+5
        total_fixed 0x1.8073389d708f9p+4
        test_error 0x1.7777777777778p-2
        """,
    ),
}


@pytest.mark.parametrize("name", GOLDEN_REPORTS)
def test_bound_report_values_are_pinned_bit_for_bit(name):
    config, options, expected = GOLDEN_REPORTS[name]
    data = synth_multitask(T=3, N=40, d=4, task_similarity=0.6, noise=1.2, seed=21)
    scaler = Scaler().fit(np.vstack([t.X for t in data]))
    scaled = [TaskDataset(t.task_id, scaler.transform(t.X), t.y) for t in data]
    tasks = [TaskDataset(t.task_id, t.X[:10], t.y[:10]) for t in scaled]
    tests = [TaskDataset(t.task_id, t.X[10:], t.y[10:]) for t in scaled]
    specs = default_kernel_dictionary()
    stacks = [build_gram_stack(t.task_id, t.X, specs) for t in tasks]
    cost = sum(s.trace_norm(2.0) for s in stacks)
    cfg = TrainConfig(C=1.0, p=2.0, budget=0.6 * cost, r_max=6.5, **config)
    model = fit(tasks, stacks, cfg, kernel_specs=specs)
    report = bound_report(model, tests, **options)
    got = [f"{key} {value.hex() if isinstance(value, float) else value}" for key, value in report.values.items()]
    assert got == [line.strip() for line in expected.strip().splitlines()]


def test_verification_suite_lines_are_pinned():
    assert [result.line() for result in run_verification_suite(seed=0, n_instances=8)] == [
        "PASS complexity decreases in each task weight: 15 perturbations, 0 violations",
        "PASS complexity grows with each sign scale: 11 perturbations, 0 violations",
        "PASS doubling all task weights divides complexity by sqrt(2): worst relative deviation 1.56e-16",
        "PASS trace-norm upper bound dominates exhaustive complexity: 50 instances, 0 violations",
        "PASS budget-split bound dominates exhaustive complexity: 8 instances, 0 violations",
        "PASS path-tracing weights exceed 1 and fall as the exponent grows: 50 weight vectors, 0 violations",
        "PASS fixed-weights total stays below the uniform total: 10 instances, 0 violations",
    ]


def test_verification_suite_lines_are_pinned_at_a_second_seed():
    assert [result.line() for result in run_verification_suite(seed=4, n_instances=20)] == [
        "PASS complexity decreases in each task weight: 39 perturbations, 0 violations",
        "PASS complexity grows with each sign scale: 41 perturbations, 0 violations",
        "PASS doubling all task weights divides complexity by sqrt(2): worst relative deviation 1.96e-16",
        "PASS trace-norm upper bound dominates exhaustive complexity: 50 instances, 0 violations",
        "PASS budget-split bound dominates exhaustive complexity: 20 instances, 0 violations",
        "PASS path-tracing weights exceed 1 and fall as the exponent grows: 50 weight vectors, 0 violations",
        "PASS fixed-weights total stays below the uniform total: 10 instances, 0 violations",
    ]


def test_verification_suite_fail_lines_are_pinned(monkeypatch):
    """Broken estimators, weights and totals make every check but the sign-scale one fail, with these counts."""
    monkeypatch.setattr(verification, "rademacher_mc", lambda *args, **kwargs: SimpleNamespace(mean=1.0))
    monkeypatch.setattr(verification, "estimate_scale_constant", lambda *args, **kwargs: SimpleNamespace(mean=0.0))
    monkeypatch.setattr(verification, "pareto_lambda", lambda f, p: np.full(len(f), 1.0 if p == 1.0 else 0.5 + p))
    monkeypatch.setattr(verification, "bound_rhs_fixed_lambda", lambda *args, **kwargs: np.inf)
    assert [result.line() for result in run_verification_suite(seed=3, n_instances=6)] == [
        "FAIL complexity decreases in each task weight: 12 perturbations, 12 violations",
        "PASS complexity grows with each sign scale: 11 perturbations, 0 violations",
        "FAIL doubling all task weights divides complexity by sqrt(2): worst relative deviation 2.93e-01",
        "FAIL trace-norm upper bound dominates exhaustive complexity: 50 instances, 8 violations",
        "FAIL budget-split bound dominates exhaustive complexity: 6 instances, 6 violations",
        "FAIL path-tracing weights exceed 1 and fall as the exponent grows: 50 weight vectors, 650 violations",
        "FAIL fixed-weights total stays below the uniform total: 10 instances, 10 violations",
    ]
