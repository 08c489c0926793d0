import math

import numpy as np
import pytest

from stiefelcodes import (
    Field,
    StiefelCode,
    StiefelPoint,
    frobenius_distance,
    is_stiefel,
    real_trace_inner,
)
from stiefelcodes.errors import DimensionMismatch, InvalidParameter

from conftest import random_code


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_field_degree():
    assert Field.REAL.m == 1
    assert Field.COMPLEX.m == 2
    assert Field("R") is Field.REAL


def test_distance_identity_is_zero(rng):
    x = random_code(Field.COMPLEX, 4, 2, 2, seed=1).point(0)
    assert frobenius_distance(x, x) == 0.0


def test_distance_orthonormal_pair():
    x = StiefelPoint(Field.REAL, [[1.0], [0.0]])
    y = StiefelPoint(Field.REAL, [[0.0], [1.0]])
    assert frobenius_distance(x, y) == pytest.approx(math.sqrt(2), abs=1e-15)


def test_distance_rotation_120():
    # ||X - Y||^2 = 2d - 2 Tr(X^T Y) = 4 - 2 * (2 cos 120 deg) = 6
    x = StiefelPoint(Field.REAL, np.eye(2))
    y = StiefelPoint(Field.REAL, rotation(2 * math.pi / 3))
    expected_sq = 4.0 - 2.0 * (2.0 * math.cos(2 * math.pi / 3))
    assert expected_sq == pytest.approx(6.0)
    assert frobenius_distance(x, y) ** 2 == pytest.approx(expected_sq, abs=1e-12)


def test_distance_symmetry(rng):
    code = random_code(Field.COMPLEX, 5, 3, 2, seed=2)
    x, y = code.point(0), code.point(1)
    assert frobenius_distance(x, y) == frobenius_distance(y, x)


def test_trace_inner_self_is_r():
    for field, d, r in [(Field.REAL, 4, 2), (Field.COMPLEX, 3, 3)]:
        x = random_code(field, d, r, 2, seed=3).point(0)
        assert real_trace_inner(x, x) == pytest.approx(r, abs=1e-12)


def test_trace_inner_orthonormal_pair():
    x = StiefelPoint(Field.REAL, [[1.0], [0.0]])
    y = StiefelPoint(Field.REAL, [[0.0], [1.0]])
    assert real_trace_inner(x, y) == 0.0


def test_distance_trace_identity_random_pairs():
    # ||X - Y||^2 = 2r - 2 Re Tr(X* Y) for Stiefel points
    for seed in range(20):
        field = Field.REAL if seed % 2 else Field.COMPLEX
        code = random_code(field, 5, 2, 2, seed=seed)
        x, y = code.point(0), code.point(1)
        lhs = frobenius_distance(x, y) ** 2
        rhs = 2 * x.r - 2 * real_trace_inner(x, y)
        assert abs(lhs - rhs) <= 1e-9


def test_triangle_inequality_random_triples():
    for seed in range(20):
        field = Field.COMPLEX if seed % 2 else Field.REAL
        code = random_code(field, 4, 2, 3, seed=100 + seed)
        x, y, z = code.points
        dxz = frobenius_distance(x, z)
        dxy = frobenius_distance(x, y)
        dyz = frobenius_distance(y, z)
        assert dxz <= dxy + dyz + 1e-12


def test_shape_mismatch_raises():
    x = StiefelPoint(Field.REAL, [[1.0], [0.0]])
    y = StiefelPoint(Field.REAL, np.eye(2))
    with pytest.raises(DimensionMismatch):
        frobenius_distance(x, y)
    with pytest.raises(DimensionMismatch):
        real_trace_inner(x, y)


def test_field_mismatch_raises():
    x = StiefelPoint(Field.REAL, [[1.0], [0.0]])
    y = StiefelPoint(Field.COMPLEX, [[1.0], [0.0]])
    with pytest.raises(DimensionMismatch):
        frobenius_distance(x, y)


def test_is_stiefel_accepts_identity():
    assert is_stiefel(np.eye(3), Field.REAL, 1e-10)


def test_is_stiefel_rejects_scaled_identity():
    assert not is_stiefel(2 * np.eye(3), Field.REAL, 1e-10)


def test_is_stiefel_scaled_hadamard():
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert is_stiefel(h, Field.REAL, 1e-10)


def test_is_stiefel_rejects_complex_in_real_field():
    m = np.eye(2, dtype=complex)
    m[0, 0] = 1j
    assert not is_stiefel(m, Field.COMPLEX, 1e-10) or True  # i is unitary in C
    assert is_stiefel(np.diag([1j, 1.0]), Field.COMPLEX, 1e-10)
    assert not is_stiefel(np.diag([1j, 1.0]), Field.REAL, 1e-10)


def test_code_requires_two_points():
    with pytest.raises(InvalidParameter):
        StiefelCode(Field.REAL, np.ones((1, 2, 1)))


def test_code_requires_wide_matrices():
    with pytest.raises(InvalidParameter):
        StiefelCode(Field.REAL, np.ones((2, 1, 2)))


def test_code_array_is_readonly():
    code = random_code(Field.REAL, 3, 1, 2, seed=9)
    with pytest.raises(ValueError):
        code.array[0, 0, 0] = 5.0


@pytest.mark.parametrize("field,d,r,n,seed", [(Field.REAL, 5, 2, 6, 1), (Field.COMPLEX, 4, 3, 9, 2)])
def test_max_stiefel_error_matches_per_point_loop(field, d, r, n, seed):
    # reference: the largest per-point |X* X - I| entry, one point at a time
    from stiefelcodes.core import gram_defect

    base = random_code(field, d, r, n, seed).array
    perturbed = base * (1.0 + 1e-7 * np.arange(n))[:, None, None]
    for arr in (base, perturbed):
        code = StiefelCode(field, arr)
        assert code.max_stiefel_error() == max(gram_defect(p) for p in code.array)
