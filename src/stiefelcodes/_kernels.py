"""Hot numeric kernels: the Gram matrix of real trace inner products, pairwise
chordal distances, and the smoothed min-distance objective used by the
optimizer.

Every kernel runs on one product.  A stack of n points of shape (d, r) is
viewed as n real rows, ``V = mats.view(np.float64).reshape(n, -1)``: rows of
length d*r for a float64 (real-field) stack, where the view is the identity,
and of length 2*d*r for a complex128 stack.  ``V @ V.T`` is Re Tr(X_i* X_j)
exactly: one real GEMM, with no complex product.  Squared distances come
from its diagonal, d2_ij = G_ii + G_jj - 2 G_ij, and the gradient of a
weighted sum of squared distances is ``2 (diag(rowsum W) - W) V``.

The two softmin kernels also accept a leading restart axis, (R, n, d, r), and
then return one value per restart.  Each restart's numbers do not depend on
the others in the stack, and every kernel is deterministic run to run.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=4)
def _upper(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle of an n x n matrix,
    read-only because every caller shares them.  Only a few recent sizes are
    kept: `certify` sees every n of a sweep, and all n up to 324 would hold
    about 90 MB of indices."""
    idx = np.triu_indices(n, 1)
    for a in idx:
        a.setflags(write=False)
    return idx


def _stack(mats) -> np.ndarray:
    """`mats` as a C-contiguous float64 or complex128 array."""
    mats = np.asarray(mats)
    return np.ascontiguousarray(mats, dtype=np.result_type(mats, np.float64))


def _rows(mats) -> np.ndarray:
    """The (..., n, m*d*r) float64 view of an (..., n, d, r) stack: the
    identity for float64 (m = 1), real and imaginary parts interleaved for
    complex128 (m = 2)."""
    mats = _stack(mats)
    return mats.view(np.float64).reshape(*mats.shape[:-2], -1)


def _gram(v: np.ndarray) -> np.ndarray:
    return v @ np.swapaxes(v, -1, -2)


def gram_real_trace(mats: np.ndarray) -> np.ndarray:
    """(n, n) matrix of Re Tr(X_i* X_j)."""
    return _gram(_rows(mats))


def pairwise_sq_dists(mats: np.ndarray) -> np.ndarray:
    """Symmetric (n, n) matrix of squared Frobenius distances."""
    return gram_sq_dists(_gram(_rows(mats)))


def gram_sq_dists(g: np.ndarray) -> np.ndarray:
    """`pairwise_sq_dists` from an already computed (n, n) Gram matrix."""
    sq = np.diagonal(g)
    out = sq[:, None] + sq[None, :]
    out -= 2.0 * g
    np.maximum(out, 0.0, out=out)
    np.fill_diagonal(out, 0.0)
    return out


def row_sums(a: np.ndarray) -> np.ndarray:
    """Sums along the last axis in plain left-to-right order.

    ``a.sum(axis=-1)`` picks pairwise or sequential summation by the shape of
    the whole array, so a row's sum would change with the size of the stack
    it sits in; an accumulation has only one order.
    """
    return np.add.accumulate(a, axis=-1)[..., -1]


def _softmin_terms(v: np.ndarray, beta: float):
    """Normalised pair weights and the objective, per leading index of the
    row stack `v`."""
    iu, ju = _upper(v.shape[-2])
    g = _gram(v)
    sq = np.diagonal(g, axis1=-2, axis2=-1)
    vals = sq[..., iu] + sq[..., ju] - 2.0 * g[..., iu, ju]
    m = vals.min(axis=-1)
    e = np.exp(-beta * (vals - m[..., None]))
    tot = row_sums(e)
    return e / tot[..., None], m - np.log(tot) / beta


def _scalar(f: np.ndarray, mats: np.ndarray):
    return float(f) if np.ndim(mats) == 3 else f


def softmin_value(mats: np.ndarray, beta: float):
    """Smooth lower proxy for the minimum squared pairwise distance.

    Equals min_{i<j} d2_ij - log(sum_{i<j} exp(-beta (d2_ij - min))) / beta;
    a float for one (n, d, r) code, an (R,) array for an (R, n, d, r) stack.
    """
    _, f = _softmin_terms(_rows(mats), beta)
    return _scalar(f, mats)


def softmin_value_grad(mats: np.ndarray, beta: float):
    """Value and ambient (Euclidean) gradient of the smoothed objective,
    shaped and typed like `mats` (float64 stays real)."""
    mats = _stack(mats)
    v = _rows(mats)
    w, f = _softmin_terms(v, beta)
    n = v.shape[-2]
    iu, ju = _upper(n)
    lap = np.zeros(v.shape[:-1] + (n,))
    lap[..., iu, ju] = -w
    lap += np.swapaxes(lap, -1, -2)
    diag = np.arange(n)
    lap[..., diag, diag] = -row_sums(lap)
    grad = 2.0 * (lap @ v)
    return _scalar(f, mats), grad.view(mats.dtype).reshape(mats.shape)


def backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"
