import math

import numpy as np
import pytest

from stiefelcodes import (
    Classification,
    Field,
    StiefelCode,
    builtin_design,
    certify,
    min_distance,
    o2_code,
    orthoplex_bound,
    simplex_bound,
    soc_complex_orbit,
    ssc_from_bibd,
    ssc_regular_representation,
    ssc_sphere,
)
from stiefelcodes import _kernels

from conftest import random_code

R, C = Field.REAL, Field.COMPLEX


def bibd_code():
    design, res = builtin_design("k4-edges")
    return ssc_from_bibd(ssc_sphere(R, 1, 2), design, res)


def test_min_distance_two_point_space():
    code = ssc_sphere(R, 1, 2)
    dist, pair = min_distance(code)
    assert dist == pytest.approx(2.0, abs=1e-15)
    assert pair == (0, 1)


def test_min_distance_cube_roots():
    code = ssc_sphere(C, 1, 3)
    dist, pair = min_distance(code)
    assert dist == pytest.approx(math.sqrt(3), abs=1e-12)
    assert pair == (0, 1)  # equiangular: lexicographic tie-break


def test_min_distance_bibd_code():
    dist, pair = min_distance(bibd_code())
    assert dist == pytest.approx(math.sqrt(8), abs=1e-12)
    assert pair == (0, 1)


def test_certify_regular_representation():
    report = certify(ssc_regular_representation(2))
    assert report.classification is Classification.SSC
    assert report.min_distance == pytest.approx(math.sqrt(6), abs=1e-12)
    assert report.centered and report.equiangular
    assert abs(report.simplex_gap) <= 1e-9


def test_certify_orbit_soc():
    report = certify(soc_complex_orbit(2, 2, 16))
    assert report.classification is Classification.SOC
    assert report.min_distance == pytest.approx(2.0, abs=1e-12)
    assert abs(report.orthoplex_gap) <= 1e-9
    assert report.max_real_inner <= 1e-12


def test_certify_below_regime():
    # O(2) with n = 4 reaches distance 2 = sqrt(2r) but n <= mdr + 1 = 5
    report = certify(o2_code(4))
    assert report.classification is Classification.ORTHOPLEX_DISTANCE_BELOW_REGIME
    assert report.min_distance == pytest.approx(2.0, abs=1e-12)


def test_certify_random_code_regression():
    # frozen from one run of this seed; guards against silent behavior drift
    report = certify(random_code(C, 3, 2, 5, seed=2024))
    assert report.classification is Classification.SUBOPTIMAL
    assert report.simplex_gap > 0 and report.orthoplex_gap > 0
    assert report.min_distance == pytest.approx(1.6541338559235614, abs=1e-9)
    assert report.argmin_pair == (2, 4)
    assert report.simplex_gap == pytest.approx(0.5819341215762284, abs=1e-9)
    assert report.orthoplex_gap == pytest.approx(0.34586614407643856, abs=1e-9)


def test_certify_invalid_membership():
    base = ssc_sphere(R, 2, 3)
    scaled = base.array.copy()
    scaled[0] *= 1.01
    report = certify(StiefelCode(R, scaled))
    assert report.classification is Classification.INVALID


def test_certify_invalid_field_storage():
    arr = ssc_sphere(C, 1, 3).array
    report = certify(StiefelCode(R, arr))  # complex entries tagged R
    assert report.classification is Classification.INVALID


def test_certify_tolerance_validation():
    from stiefelcodes.errors import InvalidParameter

    with pytest.raises(InvalidParameter):
        certify(ssc_sphere(R, 2, 3), tol=0.0)


@pytest.mark.parametrize("tol", [math.inf, math.nan])
def test_certify_rejects_non_finite_tolerance(tol):
    # at tol = inf every code would certify as SSC
    from stiefelcodes.errors import InvalidParameter

    with pytest.raises(InvalidParameter):
        certify(random_code(R, 3, 1, 5, seed=1), tol=tol)


def haar_orthogonal(d, rng):
    q, rr = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(rr))


def haar_unitary(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, rr = np.linalg.qr(z)
    return q * (np.diag(rr) / np.abs(np.diag(rr)))


def test_min_distance_isometry_invariance():
    rng = np.random.default_rng(77)
    code = random_code(C, 4, 2, 5, seed=8)
    base, _ = min_distance(code)
    u = haar_unitary(4, rng)  # global left multiplication
    v = haar_unitary(2, rng)  # same right multiplication for every point
    moved = StiefelCode(C, np.einsum("ab,nbc,cd->nad", u, code.array, v))
    dist, _ = min_distance(moved)
    assert dist == pytest.approx(base, abs=1e-9)


def test_min_distance_permutation_invariance():
    code = random_code(R, 3, 2, 6, seed=11)
    base, _ = min_distance(code)
    perm = [3, 0, 5, 1, 4, 2]
    shuffled = StiefelCode(R, code.array[perm])
    dist, _ = min_distance(shuffled)
    assert dist == base


def test_min_distance_never_beats_simplex_bound():
    for seed in range(10):
        field = R if seed % 2 else C
        code = random_code(field, 4, 2, 6, seed=seed)
        dist, _ = min_distance(code)
        assert dist <= simplex_bound(code.r, code.n) + 1e-9


def test_report_serialization_round_trip():
    report = certify(bibd_code())
    data = report.to_dict()
    assert data["classification"] == "SSC"
    assert data["argmin_pair"] == [0, 1]
    assert isinstance(data["min_distance"], float)


def two_kernel_fields(code: StiefelCode, tol: float) -> dict:
    """The distance fields of a report, computed from the separate distance
    and Gram kernels over a freshly built upper triangle."""
    dsq = _kernels.pairwise_sq_dists(code.array)
    gram = _kernels.gram_real_trace(code.array)
    iu = np.triu_indices(code.n, 1)
    vals = dsq[iu]
    k = int(np.argmin(vals))
    mind = float(np.sqrt(vals[k]))
    return {
        "min_distance": mind,
        "argmin_pair": [int(iu[0][k]), int(iu[1][k])],
        "max_real_inner": float(gram[iu].max()),
        "equiangular": bool(float(vals.max()) - float(vals[k]) <= tol),
        "simplex_gap": float(simplex_bound(code.r, code.n) - mind),
        "orthoplex_gap": float(orthoplex_bound(code.r) - mind),
    }


@pytest.mark.parametrize(
    "code",
    [random_code(f, d, r, n, seed=s) for s, (f, d, r, n) in enumerate(
        [(R, 3, 1, 7), (R, 5, 2, 12), (R, 4, 4, 3), (C, 2, 1, 9), (C, 4, 3, 20), (C, 6, 2, 40)]
    )]
    + [bibd_code(), ssc_regular_representation(5), soc_complex_orbit(2, 2, 16), o2_code(7)],
)
def test_certify_matches_two_kernel_computation(code):
    report = certify(code).to_dict()
    expected = two_kernel_fields(code, report["tol"])
    assert {key: report[key] for key in expected} == expected
    dist, pair = min_distance(code)
    assert (dist, list(pair)) == (expected["min_distance"], expected["argmin_pair"])
