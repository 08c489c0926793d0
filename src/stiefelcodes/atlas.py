"""Closed-form optimal codes in low dimensions, plus a dispatcher that
returns the best implemented construction for given parameters.

The 2x2 orthogonal group splits into two circles of radius sqrt(2) (rotations
and reflections) at constant cross distance 2, so the optimal n-point code
there is governed by k(a, b), the effective number of "slots" used by a
points on one circle and b on the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .bounds import radon_hurwitz
from .core import Field, StiefelCode
from .designs import BUILTIN_DESIGN_NAMES, builtin_design
from .errors import (
    InvalidParameter,
    NoKnownConstruction,
    UnsupportedDimension,
    UnsupportedResidue,
)
from .optimize import OptimizerConfig, optimize
from .orthoplex import soc_complex_orbit, soc_real_hadamard, soc_sphere_real
from .simplex import (
    ssc_complexify,
    ssc_from_bibd,
    ssc_kronecker,
    ssc_pad_row,
    ssc_radon_hurwitz,
    ssc_realify,
    ssc_regular_representation,
    ssc_sphere,
    ssc_symplectic_lift,
)
from .verify import CodeReport, certify


@dataclass(frozen=True)
class O2Solution:
    n: int
    k: int
    split: tuple[int, int]
    min_distance: float


def o2_k(a: int, b: int) -> int:
    """Effective slot count for a rotations and b reflections:
    max(a, b) when one circle is empty, else max(a, b, 4)."""
    if a < 0 or b < 0 or a + b < 2:
        raise InvalidParameter(f"need a, b >= 0 with a + b >= 2, got ({a}, {b})")
    if min(a, b) == 0:
        return max(a, b)
    return max(a, b, 4)


def o2_solution(n: int) -> O2Solution:
    """Optimal split of n points between the two circles of O(2).

    Minimizes k(a, b) over a + b = n; ties resolve to the lexicographically
    smallest (a, b) with a >= b.  The optimal min distance is
    sqrt(4 - 4 cos(2 pi / k_n)).
    """
    if n < 2:
        raise InvalidParameter(f"need n >= 2, got {n}")
    best = min(o2_k(a, n - a) for a in range(n + 1))
    a = next(a for a in range((n + 1) // 2, n + 1) if o2_k(a, n - a) == best)
    dist = math.sqrt(4.0 - 4.0 * math.cos(2.0 * math.pi / best))
    return O2Solution(n=n, k=best, split=(a, n - a), min_distance=dist)


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _reflection(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [s, -c]])


def o2_code(n: int) -> StiefelCode:
    """Optimal n-point code in O(2): uniformly spaced rotations and
    reflections per the optimal split (both phase offsets zero; every
    rotation-reflection pair is at distance 2 regardless of offset)."""
    a, b = o2_solution(n).split
    mats = [_rotation(2.0 * math.pi * t / a) for t in range(a)]
    mats += [_reflection(2.0 * math.pi * t / b) for t in range(b)]
    return StiefelCode.from_points(Field.REAL, mats)


def circle_code(n: int) -> StiefelCode:
    """n uniformly spaced unit vectors in the plane; min distance 2 sin(pi/n)."""
    if n < 2:
        raise InvalidParameter(f"need n >= 2, got {n}")
    angles = 2.0 * math.pi * np.arange(n) / n
    mats = np.stack([np.cos(angles), np.sin(angles)], axis=1)[:, :, None]
    return StiefelCode(Field.REAL, mats)


def _u1_code(n: int) -> StiefelCode:
    # The unit circle of C is the real circle, so uniform spacing is optimal.
    angles = 2.0 * math.pi * np.arange(n) / n
    return StiefelCode(Field.COMPLEX, np.exp(1j * angles)[:, None, None])


@lru_cache(maxsize=None)
def _builtin_designs():
    return tuple((name, *builtin_design(name)) for name in BUILTIN_DESIGN_NAMES)


def _check_key(d: int, r: int, n: int) -> None:
    if d < r or r < 1 or n < 2:
        raise InvalidParameter(f"need d >= r >= 1 and n >= 2, got ({d}, {r}, {n})")


def _ssc_routes(field: Field, d: int, r: int, n: int):
    """Every SSC route whose own condition holds for (field, d, r, n), in
    dispatch order, as (label, sub_key, build).  A route with sub_key None
    builds with build() and its label is the provenance; otherwise build
    maps the SSC found for sub_key to this one, and label.format(sub
    provenance) is the provenance."""
    m = field.m
    if r == 1 and n <= m * d + 1:
        yield "ssc_sphere", None, partial(ssc_sphere, field, d, n)
    if r == d and n <= radon_hurwitz(field, d) + 1:
        yield "ssc_radon_hurwitz", None, partial(ssc_radon_hurwitz, field, d, n)
    if field is Field.REAL and r == d and n == d + 1:
        yield "ssc_regular_representation", None, partial(ssc_regular_representation, d)
    if r == 2 and d % 2 == 0 and n <= m * d + 1:
        yield "ssc_symplectic_lift", None, partial(ssc_symplectic_lift, field, d, n)
    for name, design, res in _builtin_designs():
        if n == design.v and d % design.b == 0 and r % design.rep == 0:
            sub_key = (field, d // design.b, r // design.rep, design.k)
            build = partial(ssc_from_bibd, design=design, res=res)
            yield f"ssc_from_bibd({name}, {{}})", sub_key, build
    if field is Field.COMPLEX:
        yield "ssc_complexify({})", (Field.REAL, d, r, n), ssc_complexify
    yield "ssc_pad_row({})", (field, d - 1, r, n), ssc_pad_row
    for k in range(2, math.gcd(d, r) + 1):
        if d % k == 0 and r % k == 0:
            build = partial(ssc_kronecker, k=k)
            yield f"ssc_kronecker(k={k}, {{}})", (field, d // k, r // k, n), build
    if field is Field.REAL and d % 2 == 0 and r % 2 == 0:
        yield "ssc_realify({})", (Field.COMPLEX, d // 2, r // 2, n), ssc_realify


def _find_ssc(key: tuple, memo: dict):
    """First SSC reachable for key = (field, d, r, n) along the route order,
    or None.  Returns (code, provenance).  Every key, sub-keys included, is
    checked here: no SSC exists outside d >= r >= 1, n <= m*d*r + 1."""
    field, d, r, n = key
    if not d >= r >= 1 or n > field.m * d * r + 1:
        return None
    if key in memo:
        return memo[key]
    memo[key] = None  # guard against revisits while this key is in progress
    for label, sub_key, build in _ssc_routes(*key):
        if sub_key is None:
            try:
                memo[key] = build(), label
            except UnsupportedDimension:  # real 16 | d: no built-in family
                continue
        else:
            sub = _find_ssc(sub_key, memo)
            if sub is None:
                continue
            code, prov = sub
            memo[key] = build(code), label.format(prov)
        break
    return memo[key]


def find_ssc(field: Field, d: int, r: int, n: int):
    """Search all SSC routes (including transforms) for the parameters;
    returns (code, provenance) or None."""
    _check_key(d, r, n)
    return _find_ssc((field, d, r, n), {})


def _exact_candidates(field: Field, d: int, r: int, n: int):
    """Every exact construction that applies, as (code, provenance), in
    tie-break order: circle/O(2), the first SSC route, SOC, u1_cyclic."""
    m = field.m
    if field is Field.REAL and d == 2 and r == 1:
        yield circle_code(n), "circle_code"
    if field is Field.REAL and d == 2 and r == 2:
        yield o2_code(n), "o2_code"
    found = find_ssc(field, d, r, n)
    if found is not None:
        yield found
    if m * d * r + 1 < n <= 2 * m * d * r:
        if field is Field.COMPLEX:
            yield soc_complex_orbit(d, r, n), "soc_complex_orbit"
        elif r == 1:
            yield soc_sphere_real(d, n), "soc_sphere_real"
        else:
            try:
                full = soc_real_hadamard(d, r)
            except (UnsupportedResidue, NoKnownConstruction):
                return  # u1_cyclic, the one later candidate, is complex
            if n == full.n:
                yield full, "soc_real_hadamard"
            elif n < full.n:
                prefix = StiefelCode(Field.REAL, full.array[:n])
                yield prefix, f"soc_real_hadamard(prefix of {full.n})"
    if field is Field.COMPLEX and d == 1 and r == 1:
        # uniform spacing is optimal on the circle of C for every n; listed
        # last so bound-achieving routes keep ties (they cover n <= 4)
        yield _u1_code(n), "u1_cyclic"


def best_exact(field: Field, d: int, r: int, n: int):
    """Best exact construction for the parameters, or None when nothing
    implemented applies.  Returns (code, report, provenance)."""
    _check_key(d, r, n)
    best = None
    for code, prov in _exact_candidates(field, d, r, n):
        report = certify(code)
        if best is None or report.min_distance > best[1].min_distance + 1e-12:
            best = (code, report, prov)
    return best


def best_known(
    field: Field, d: int, r: int, n: int, config: OptimizerConfig | None = None
) -> tuple[StiefelCode, CodeReport, str]:
    """Best implemented construction for the parameters, with provenance.

    Takes `best_exact` when any exact construction applies.  When nothing
    applies, falls back to the numerical optimizer and marks the result
    putative.
    """
    best = best_exact(field, d, r, n)
    if best is not None:
        return best
    code, report = optimize(field, d, r, n, config=config)
    return code, report, "optimizer(putative)"
