import math

import numpy as np
import pytest

from stiefelcodes import (
    Classification,
    Field,
    OptimizerConfig,
    gradient_check,
    is_stiefel,
    optimize,
    random_stiefel,
)
from stiefelcodes.errors import InvalidParameter
from stiefelcodes.optimize import _retract, _tangent_project

R, C = Field.REAL, Field.COMPLEX

FAST = OptimizerConfig(restarts=4, max_iters=400)


def test_random_stiefel_membership():
    rng = np.random.default_rng(0)
    for field, d, r in [(R, 5, 2), (C, 4, 3), (R, 1, 1), (C, 6, 6)]:
        for _ in range(5):
            x = random_stiefel(field, d, r, rng)
            assert is_stiefel(x.mat, field, 1e-10)


def test_random_stiefel_deterministic():
    a = random_stiefel(C, 4, 2, np.random.default_rng(314)).mat
    b = random_stiefel(C, 4, 2, np.random.default_rng(314)).mat
    assert np.array_equal(a, b)


def test_random_stiefel_mean_inner_product():
    # invariance makes E[Re Tr(X* Y)] = 0; check within 5 standard errors
    rng = np.random.default_rng(42)
    n = 10_000
    vals = np.empty(n)
    for i in range(n):
        x = random_stiefel(R, 3, 1, rng).mat
        y = random_stiefel(R, 3, 1, rng).mat
        vals[i] = float(np.sum(x.conj() * y).real)
    se = vals.std(ddof=1) / math.sqrt(n)
    assert abs(vals.mean()) <= 5 * se


def test_tangent_projection_idempotent_and_tangent():
    rng = np.random.default_rng(5)
    x = _retract(rng.standard_normal((3, 5, 2)) + 1j * rng.standard_normal((3, 5, 2)))
    g = rng.standard_normal((3, 5, 2)) + 1j * rng.standard_normal((3, 5, 2))
    xi = _tangent_project(x, g)
    # projecting twice changes nothing
    assert np.allclose(_tangent_project(x, xi), xi, atol=1e-12)
    # X* xi is skew-Hermitian on the tangent space
    for i in range(3):
        h = x[i].conj().T @ xi[i]
        assert np.allclose(h + h.conj().T, 0.0, atol=1e-12)


def test_retraction_orthonormalizes():
    rng = np.random.default_rng(6)
    y = rng.standard_normal((4, 6, 3))
    q = _retract(y)
    for i in range(4):
        assert is_stiefel(q[i], R, 1e-12)


@pytest.mark.parametrize(
    "field,d,r,n,seed", [(R, 3, 2, 4, 7), (C, 2, 2, 3, 7), (R, 2, 1, 5, 1)]
)
def test_gradient_check(field, d, r, n, seed):
    assert gradient_check(field, d, r, n, seed) <= 1e-5


def test_surrogate_ascends_under_armijo_steps():
    # white-box: a few projected-gradient steps never decrease the surrogate
    from stiefelcodes import _kernels
    from stiefelcodes.optimize import ARMIJO_C, _gaussian_stack

    rng = np.random.default_rng(9)
    x = _retract(_gaussian_stack(R, 3, 1, 4, rng))
    beta = 8.0
    prev = _kernels.softmin_value(x, beta)
    for _ in range(25):
        _, g = _kernels.softmin_value_grad(x, beta)
        xi = _tangent_project(x, g)
        gsq = float(np.vdot(xi, xi).real)
        if gsq <= 1e-20:
            break
        t = 0.5
        for _ in range(30):
            y = _retract(x + t * xi)
            fy = _kernels.softmin_value(y, beta)
            if fy >= prev + ARMIJO_C * t * gsq:
                break
            t *= 0.5
        else:
            break
        assert fy >= prev
        x, prev = y, fy


def test_optimize_two_point_manifold():
    code, report = optimize(R, 1, 1, 2, config=OptimizerConfig(restarts=4, max_iters=10))
    assert report.min_distance == pytest.approx(2.0, abs=1e-12)
    vals = sorted(code.array[:, 0, 0].real)
    assert vals == pytest.approx([-1.0, 1.0], abs=1e-12)


def test_optimize_triangle():
    code, report = optimize(R, 2, 1, 3, config=FAST)
    assert report.min_distance == pytest.approx(math.sqrt(3), abs=1e-3)
    assert report.classification in (Classification.SSC, Classification.SUBOPTIMAL)


def test_optimize_deterministic_rerun():
    a, _ = optimize(C, 2, 1, 3, config=FAST)
    b, _ = optimize(C, 2, 1, 3, config=FAST)
    assert np.array_equal(a.array, b.array)


def test_optimize_restart_bytes_do_not_depend_on_batch():
    # white-box: restart i alone and restart i inside a batch of 16 agree
    from stiefelcodes.optimize import _ascend

    config = OptimizerConfig(restarts=16, max_iters=300, seed=3)
    mins, stack = _ascend(C, 3, 2, 5, config, range(16))
    for i in (0, 5, 15):
        one_min, one = _ascend(C, 3, 2, 5, config, [i])
        assert one_min == [mins[i]]
        assert one[0].tobytes() == stack[i].tobytes()


_BLAS_SNIPPET = """
import hashlib
from stiefelcodes import Field, OptimizerConfig, optimize
code, _ = optimize(Field.REAL, 4, 2, 10, config=OptimizerConfig(restarts=6, max_iters=300))
print(hashlib.sha256(code.array.tobytes()).hexdigest())
"""


def test_optimize_bytes_do_not_depend_on_blas_threads():
    import os
    import subprocess
    import sys

    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        proc = subprocess.run(
            [sys.executable, "-c", _BLAS_SNIPPET],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def test_optimize_iterates_stay_feasible():
    code, report = optimize(C, 3, 2, 4, config=OptimizerConfig(restarts=2, max_iters=100))
    assert report.classification is not Classification.INVALID
    assert code.max_stiefel_error() <= 1e-8


def test_optimize_rejects_bad_parameters():
    with pytest.raises(InvalidParameter):
        optimize(R, 1, 2, 3)
    with pytest.raises(InvalidParameter):
        optimize(R, 2, 1, 1)


def test_config_validation():
    with pytest.raises(InvalidParameter):
        OptimizerConfig(beta_start=10.0, beta_end=1.0)
    with pytest.raises(InvalidParameter):
        OptimizerConfig(beta_growth=1.0)
    with pytest.raises(InvalidParameter):
        OptimizerConfig(restarts=0)


def test_config_beta_schedule_caps_at_end():
    config = OptimizerConfig(beta_start=2.0, beta_end=10.0, beta_growth=2.0)
    assert config.betas() == [2.0, 4.0, 8.0, 10.0]
