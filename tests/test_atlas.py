import math

import numpy as np
import pytest

from stiefelcodes import (
    Classification,
    Field,
    OptimizerConfig,
    best_exact,
    best_known,
    certify,
    circle_code,
    find_ssc,
    o2_code,
    o2_k,
    o2_solution,
)
from stiefelcodes.errors import InvalidParameter

from conftest import brute_min_distance

R, C = Field.REAL, Field.COMPLEX

# published optimal slot counts for n = 2..12
K_TABLE = [2, 3, 4, 4, 4, 4, 4, 5, 5, 6, 6]


def test_o2_k_cases():
    assert o2_k(2, 0) == 2
    assert o2_k(3, 2) == 4  # max{3, 2, 4}
    assert o2_k(5, 0) == 5
    assert o2_k(0, 3) == 3
    with pytest.raises(InvalidParameter):
        o2_k(1, 0)


def test_o2_solution_table():
    assert [o2_solution(n).k for n in range(2, 13)] == K_TABLE


def test_o2_solution_stable_pattern():
    for n in range(8, 1001):
        assert o2_solution(n).k == math.ceil(n / 2)


def test_o2_solution_named_values():
    assert o2_solution(5).k == 4
    assert o2_solution(9).k == 5
    assert o2_solution(20).k == 10


def test_o2_solution_split_is_canonical():
    sol = o2_solution(5)
    a, b = sol.split
    assert a >= b and a + b == 5
    assert o2_k(a, b) == sol.k
    # the lexicographically smallest optimal split with a >= b
    for a2 in range((5 + 1) // 2, a):
        assert o2_k(a2, 5 - a2) > sol.k


@pytest.mark.parametrize("n", list(range(2, 16)))
def test_o2_code_matches_closed_form(n):
    sol = o2_solution(n)
    code = o2_code(n)
    assert code.n == n
    expected = math.sqrt(4.0 - 4.0 * math.cos(2.0 * math.pi / sol.k))
    assert brute_min_distance(code) == pytest.approx(expected, abs=1e-9)
    assert certify(code).classification is not Classification.INVALID


def test_o2_code_three_rotations():
    code = o2_code(3)
    assert brute_min_distance(code) == pytest.approx(math.sqrt(6), abs=1e-12)
    for i in range(3):
        assert np.linalg.det(code.array[i].real) == pytest.approx(1.0, abs=1e-12)


def test_o2_code_twelve():
    assert brute_min_distance(o2_code(12)) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_circle_code_values():
    assert brute_min_distance(circle_code(2)) == pytest.approx(2.0, abs=1e-12)
    assert brute_min_distance(circle_code(4)) == pytest.approx(math.sqrt(2), abs=1e-12)
    assert brute_min_distance(circle_code(6)) == pytest.approx(1.0, abs=1e-12)  # 2 sin(pi/6)


def test_circle_code_certifies():
    report = certify(circle_code(3))
    assert report.classification is Classification.SSC


def test_best_known_u2_orbit():
    code, report, prov = best_known(C, 2, 2, 16)
    assert prov == "soc_complex_orbit"
    assert report.classification is Classification.SOC
    assert report.min_distance == pytest.approx(2.0, abs=1e-9)


def test_best_known_bibd_chain():
    code, report, prov = best_known(R, 6, 3, 4)
    assert prov == "ssc_from_bibd(k4-edges, ssc_sphere)"
    assert report.min_distance == pytest.approx(math.sqrt(8), abs=1e-9)
    assert report.classification is Classification.SSC


def test_best_known_o2_seven():
    code, report, prov = best_known(R, 2, 2, 7)
    assert prov == "o2_code"
    assert report.min_distance == pytest.approx(2.0, abs=1e-9)  # 4 - 4 cos(pi/2) = 4


def test_best_known_putative_fallback():
    config = OptimizerConfig(restarts=2, max_iters=200)
    code, report, prov = best_known(R, 3, 2, 7, config=config)
    assert prov == "optimizer(putative)"
    assert (code.d, code.r, code.n) == (3, 2, 7)


def test_best_exact_none_when_nothing_applies():
    assert best_exact(R, 3, 2, 7) is None
    assert best_exact(R, 3, 3, 20) is None  # beyond the orthoplex cap


def test_find_ssc_transform_chains():
    code, prov = find_ssc(R, 4, 2, 3)
    assert certify(code).classification is Classification.SSC
    code, prov = find_ssc(C, 5, 1, 8)
    assert prov == "ssc_sphere"
    code, prov = find_ssc(R, 7, 3, 4)  # pad of the (6, 3, 4) design code
    assert prov.startswith("ssc_pad_row(ssc_from_bibd")
    assert certify(code).classification is Classification.SSC


def test_best_exact_never_crashes_on_grid():
    # dispatcher sweep: every in-range parameter tuple either yields a
    # certified code of the right shape or cleanly reports None
    for field in (R, C):
        for d in range(1, 6):
            for r in range(1, d + 1):
                for n in range(2, 2 * field.m * d * r + 2):
                    found = best_exact(field, d, r, n)
                    if found is None:
                        continue
                    code, report, prov = found
                    assert (code.field, code.d, code.r, code.n) == (field, d, r, n), prov
                    assert report.classification is not Classification.INVALID, prov


@pytest.mark.parametrize(
    "field,d", [(R, 6), (R, 7), (R, 8), (R, 9), (C, 7), (C, 8), (C, 9)]
)
def test_best_exact_skips_designs_without_a_sub_manifold(field, d):
    # r = 6 over the 4-point designs asks for a (d // b, 2) sub-code with
    # d // b < 2; the route is skipped and the tuple certifies elsewhere
    code, report, prov = best_exact(field, d, 6, 4)
    assert (code.field, code.d, code.r, code.n) == (field, d, 6, 4)
    assert report.classification is Classification.SSC, prov
    assert report.min_distance == pytest.approx(4.0, abs=1e-9)
    assert brute_min_distance(code) == pytest.approx(4.0, abs=1e-9)
    assert "ssc_from_bibd" not in prov


def test_best_known_dispatch_completeness():
    # the dispatcher never loses to an individual construction it knows
    from stiefelcodes import (
        soc_complex_orbit,
        soc_real_hadamard,
        soc_sphere_real,
        ssc_radon_hurwitz,
        ssc_regular_representation,
        ssc_sphere,
        ssc_symplectic_lift,
    )

    cases = []
    cases += [(R, 3, 1, 4, ssc_sphere(R, 3, 4))]
    cases += [(C, 2, 1, 5, ssc_sphere(C, 2, 5))]
    cases += [(R, 4, 4, 5, ssc_radon_hurwitz(R, 4, 5))]
    cases += [(R, 3, 3, 4, ssc_regular_representation(3))]
    cases += [(C, 4, 2, 9, ssc_symplectic_lift(C, 4, 9))]
    cases += [(R, 4, 1, 8, soc_sphere_real(4, 8))]
    cases += [(C, 2, 2, 14, soc_complex_orbit(2, 2, 14))]
    cases += [(R, 3, 2, 12, soc_real_hadamard(3, 2))]
    for field, d, r, n, reference in cases:
        _, report, prov = best_known(field, d, r, n)
        ref_dist = certify(reference).min_distance
        assert report.min_distance >= ref_dist - 1e-9, (field, d, r, n, prov)
