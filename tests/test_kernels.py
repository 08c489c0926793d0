"""Correctness of the hot kernels, one code at a time and as a restart stack."""

import numpy as np
import pytest

from stiefelcodes import _kernels


def stacks():
    rng = np.random.default_rng(7)
    real = rng.standard_normal((6, 4, 2)).astype(np.complex128)
    cplx = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    return [real, np.ascontiguousarray(cplx)]


def brute_pairwise(mats):
    n = mats.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = np.sum(np.abs(mats[i] - mats[j]) ** 2)
    return out


@pytest.mark.parametrize("mats", stacks())
def test_pairwise_matches_bruteforce(mats):
    got = _kernels.pairwise_sq_dists(mats)
    assert np.allclose(got, brute_pairwise(mats), atol=1e-12)


@pytest.mark.parametrize("mats", stacks())
def test_gram_matches_bruteforce(mats):
    got = _kernels.gram_real_trace(mats)
    n = mats.shape[0]
    for i in range(n):
        for j in range(n):
            assert got[i, j] == pytest.approx(
                float(np.sum(mats[i].conj() * mats[j]).real), abs=1e-12
            )


@pytest.mark.parametrize("mats", stacks())
def test_softmin_below_min_and_sharpens(mats):
    dsq = brute_pairwise(mats)
    iu = np.triu_indices(mats.shape[0], 1)
    true_min = dsq[iu].min()
    prev = -np.inf
    for beta in (0.5, 2.0, 8.0, 64.0, 512.0):
        f = _kernels.softmin_value(mats, beta)
        assert f <= true_min + 1e-12
        assert f >= prev - 1e-12  # monotone in beta
        prev = f
    assert _kernels.softmin_value(mats, 4096.0) == pytest.approx(true_min, abs=1e-2)


@pytest.mark.parametrize("mats", stacks())
def test_softmin_grad_finite_differences(mats):
    # independent oracle: central differences in random ambient directions
    rng = np.random.default_rng(3)
    beta = 8.0
    _, grad = _kernels.softmin_value_grad(mats, beta)
    h = 1e-6
    for _ in range(10):
        v = rng.standard_normal(mats.shape) + 1j * rng.standard_normal(mats.shape)
        v /= np.linalg.norm(v)
        num = (
            _kernels.softmin_value(mats + h * v, beta)
            - _kernels.softmin_value(mats - h * v, beta)
        ) / (2 * h)
        ana = float(np.vdot(grad, v).real)
        assert ana == pytest.approx(num, abs=1e-6)


def test_value_and_grad_value_agree():
    mats = stacks()[1]
    for beta in (2.0, 100.0):
        f1 = _kernels.softmin_value(mats, beta)
        f2, _ = _kernels.softmin_value_grad(mats, beta)
        assert f1 == pytest.approx(f2, abs=1e-12)


def test_backend_reports_name():
    assert _kernels.backend() == "numpy"


def test_kernels_deterministic():
    mats = stacks()[0]
    a = _kernels.pairwise_sq_dists(mats)
    b = _kernels.pairwise_sq_dists(mats.copy())
    assert np.array_equal(a, b)
    fa, ga = _kernels.softmin_value_grad(mats, 16.0)
    fb, gb = _kernels.softmin_value_grad(mats.copy(), 16.0)
    assert fa == fb and np.array_equal(ga, gb)


def test_pairwise_exact_on_identical_points():
    mats = np.repeat(stacks()[1][:1], 3, axis=0)
    got = _kernels.pairwise_sq_dists(mats)
    assert np.array_equal(got, np.zeros((3, 3)))


def test_restart_stack_matches_single_codes():
    # each restart of a stack gets the same bytes as when it runs alone
    rng = np.random.default_rng(11)
    stack = rng.standard_normal((5, 6, 3, 2)) + 1j * rng.standard_normal((5, 6, 3, 2))
    for beta in (1.0, 256.0):
        values = _kernels.softmin_value(stack, beta)
        fs, grads = _kernels.softmin_value_grad(stack, beta)
        assert values.shape == fs.shape == (5,) and grads.shape == stack.shape
        for k in range(len(stack)):
            f, g = _kernels.softmin_value_grad(stack[k], beta)
            assert values[k] == fs[k] == f == _kernels.softmin_value(stack[k], beta)
            assert np.array_equal(grads[k], g)
