"""Certification of arbitrary Stiefel codes against the simplex and
orthoplex bounds.

All equality tests run on squared distances against the exact rational
targets 2rn/(n-1) and 2r, so no square-root round-off enters; the default
tolerance applies to those squared values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .bounds import orthoplex_bound, orthoplex_bound_sq, simplex_bound, simplex_bound_sq, simplex_cap
from .core import Field, StiefelCode
from .errors import InvalidParameter

DEFAULT_CERTIFY_TOL = 1e-8


class Classification(enum.Enum):
    SSC = "SSC"
    SOC = "SOC"
    ORTHOPLEX_DISTANCE_BELOW_REGIME = "OrthoplexDistanceBelowRegime"
    SUBOPTIMAL = "Suboptimal"
    INVALID = "Invalid"


@dataclass(frozen=True)
class CodeReport:
    """Certification summary for one code.

    Gaps are bound minus achieved minimum distance (nonnegative up to noise
    for the simplex bound, either sign for the orthoplex bound).
    """

    min_distance: float
    argmin_pair: tuple[int, int]
    max_real_inner: float
    equiangular: bool
    centered: bool
    simplex_gap: float
    orthoplex_gap: float
    classification: Classification
    tol: float

    def to_dict(self) -> dict:
        return {
            "min_distance": self.min_distance,
            "argmin_pair": list(self.argmin_pair),
            "max_real_inner": self.max_real_inner,
            "equiangular": self.equiangular,
            "centered": self.centered,
            "simplex_gap": self.simplex_gap,
            "orthoplex_gap": self.orthoplex_gap,
            "classification": self.classification.value,
            "tol": self.tol,
        }


def _min_pair(dsq: np.ndarray, iu) -> tuple[float, tuple[int, int]]:
    """Smallest of the squared distances `dsq` of the pairs `iu`, and its pair."""
    k = int(np.argmin(dsq))  # first minimum = lexicographically smallest pair
    return float(dsq[k]), (int(iu[0][k]), int(iu[1][k]))


def min_distance(code: StiefelCode) -> tuple[float, tuple[int, int]]:
    """Exact minimum over all pairs, with the lexicographically first
    achieving pair."""
    if code.n < 2:
        raise InvalidParameter("need at least 2 points")
    iu = _kernels._upper(code.n)
    sq, pair = _min_pair(_kernels.pairwise_sq_dists(code.array)[iu], iu)
    return float(np.sqrt(sq)), pair


def certify(code: StiefelCode, tol: float = DEFAULT_CERTIFY_TOL) -> CodeReport:
    """Full certification: Stiefel membership, distance statistics, bound
    comparison, and SSC/SOC classification.

    Classification precedence: SSC when the squared min distance matches
    2rn/(n-1) and the code is equiangular and centered; else SOC when n
    exceeds the simplex cap and the squared min distance matches 2r; else
    the orthoplex distance below the orthoplex regime; else suboptimal.
    Codes with a point failing the membership check at `tol` are invalid.
    """
    if not 0 < tol < np.inf:  # also false for nan
        raise InvalidParameter(f"need a finite tol > 0, got {tol}")
    n, _, r = code.array.shape
    iu = _kernels._upper(n)
    gram = _kernels.gram_real_trace(code.array)
    dsq = _kernels.gram_sq_dists(gram)[iu]
    min_sq, pair = _min_pair(dsq, iu)
    max_sq = float(dsq.max())
    max_inner = float(gram[iu].max())

    equiangular = (max_sq - min_sq) <= tol
    center_norm = float(np.linalg.norm(code.array.sum(axis=0)))
    centered = center_norm <= tol * np.sqrt(n * r)

    mind = float(np.sqrt(min_sq))
    s_gap = simplex_bound(r, n) - mind
    o_gap = orthoplex_bound(r) - mind

    valid = code.max_stiefel_error() <= tol
    if code.field is Field.REAL and not code.is_real_storage():
        valid = False

    if not valid:
        cls = Classification.INVALID
    elif abs(min_sq - simplex_bound_sq(r, n)) <= tol and equiangular and centered:
        cls = Classification.SSC
    elif abs(min_sq - orthoplex_bound_sq(r)) <= tol:
        if n > simplex_cap(code.field, code.d, r):
            cls = Classification.SOC
        else:
            cls = Classification.ORTHOPLEX_DISTANCE_BELOW_REGIME
    else:
        cls = Classification.SUBOPTIMAL

    return CodeReport(
        min_distance=mind,
        argmin_pair=pair,
        max_real_inner=max_inner,
        equiangular=bool(equiangular),
        centered=bool(centered),
        simplex_gap=float(s_gap),
        orthoplex_gap=float(o_gap),
        classification=cls,
        tol=float(tol),
    )
