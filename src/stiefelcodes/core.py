"""Stiefel points and codes under the chordal (Frobenius) distance.

A point of St_F(d, r) is a d x r matrix over F in {R, C} with orthonormal
columns.  Entries are always stored as complex128; a real-field object is
one whose imaginary parts are exactly zero, so there is a single code path
and the field constraint is a testable invariant.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidParameter

# Orthonormality tolerance for codes we construct ourselves.
DEFAULT_STIEFEL_TOL = 1e-10


class Field(enum.Enum):
    """Scalar field of a Stiefel manifold: the reals or the complexes."""

    REAL = "R"
    COMPLEX = "C"

    @property
    def m(self) -> int:
        """Dimension of the field as a vector space over the reals."""
        return 1 if self is Field.REAL else 2

    def __str__(self) -> str:
        return self.value


def _as_complex_matrix(mat) -> np.ndarray:
    arr = np.array(mat, dtype=np.complex128, order="C")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StiefelPoint:
    """A single d x r matrix with (approximately) orthonormal columns."""

    field: Field
    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", _as_complex_matrix(self.mat))
        if self.mat.ndim != 2:
            raise InvalidParameter(f"expected a matrix, got ndim={self.mat.ndim}")
        d, r = self.mat.shape
        if d < r or r < 1:
            raise InvalidParameter(f"need d >= r >= 1, got ({d}, {r})")

    @property
    def d(self) -> int:
        return self.mat.shape[0]

    @property
    def r(self) -> int:
        return self.mat.shape[1]


@dataclass(frozen=True)
class StiefelCode:
    """An ordered list of n points of St_F(d, r), stored as an (n, d, r) array."""

    field: Field
    array: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "array", _as_complex_matrix(self.array))
        if self.array.ndim != 3:
            raise InvalidParameter(f"expected an (n, d, r) array, got ndim={self.array.ndim}")
        n, d, r = self.array.shape
        if n < 2:
            raise InvalidParameter(f"a code needs at least 2 points, got n={n}")
        if d < r or r < 1:
            raise InvalidParameter(f"need d >= r >= 1, got ({d}, {r})")

    @classmethod
    def from_points(cls, field: Field, mats) -> "StiefelCode":
        return cls(field, np.stack([np.asarray(m, dtype=np.complex128) for m in mats]))

    @property
    def n(self) -> int:
        return self.array.shape[0]

    @property
    def d(self) -> int:
        return self.array.shape[1]

    @property
    def r(self) -> int:
        return self.array.shape[2]

    def point(self, i: int) -> StiefelPoint:
        return StiefelPoint(self.field, self.array[i])

    @property
    def points(self) -> list[StiefelPoint]:
        return [self.point(i) for i in range(self.n)]

    def max_stiefel_error(self) -> float:
        """Largest entry of |X* X - I| over all points of the code."""
        g = np.conj(np.swapaxes(self.array, 1, 2)) @ self.array
        return float(np.max(np.abs(g - np.eye(self.r))))

    def is_real_storage(self) -> bool:
        """True iff every stored imaginary part is exactly zero."""
        return bool(np.all(self.array.imag == 0.0))


def _check_compatible(x: StiefelPoint, y: StiefelPoint) -> None:
    if x.field is not y.field:
        raise DimensionMismatch(f"field mismatch: {x.field} vs {y.field}")
    if x.mat.shape != y.mat.shape:
        raise DimensionMismatch(f"shape mismatch: {x.mat.shape} vs {y.mat.shape}")


def frobenius_distance(x: StiefelPoint, y: StiefelPoint) -> float:
    """Chordal distance ||X - Y||_F between two points."""
    _check_compatible(x, y)
    return float(np.linalg.norm(x.mat - y.mat))


def real_trace_inner(x: StiefelPoint, y: StiefelPoint) -> float:
    """Re Tr(X* Y).  For Stiefel points, ||X - Y||_F^2 = 2r - 2 Re Tr(X* Y)."""
    _check_compatible(x, y)
    return float(np.sum(x.mat.conj() * y.mat).real)


def gram_defect(mat: np.ndarray) -> float:
    """Max-norm of M* M - I, the deviation from orthonormal columns."""
    mat = np.asarray(mat, dtype=np.complex128)
    g = mat.conj().T @ mat
    return float(np.max(np.abs(g - np.eye(mat.shape[1]))))


def is_stiefel(mat, field: Field, tol: float = DEFAULT_STIEFEL_TOL) -> bool:
    """True iff ||M* M - I||_max <= tol, and M is real when the field is R."""
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] < mat.shape[1]:
        return False
    if field is Field.REAL and np.any(mat.imag != 0.0):
        return False
    return gram_defect(mat) <= tol
