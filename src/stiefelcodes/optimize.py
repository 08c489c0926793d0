"""Max-min search on Stiefel manifolds.

The nonsmooth objective min_{i<j} ||X_i - X_j||_F^2 is replaced by the
smooth surrogate -(1/beta) log sum exp(-beta d2_ij), ascended by projected
gradient with a QR retraction and Armijo backtracking while beta grows on a
geometric schedule.  All restarts advance together as one (R, n, d, r)
stack; each has its own Armijo search, warm-started at twice its last
accepted step (Wen & Yin, Math. Prog. 2013), and its own stop rules.
Everything is deterministic for a fixed configuration: restart streams come
from a counter-based split of the master seed, a restart's bytes do not
depend on the rest of the stack, and the best restart is chosen by
(min distance, lowest restart index).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .bounds import simplex_bound
from .core import Field, StiefelCode, StiefelPoint
from .errors import InvalidParameter, NumericalFailure
from .verify import CodeReport, certify

ARMIJO_C = 1e-4
MAX_BACKTRACKS = 30


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 16
    max_iters: int = 2000
    seed: int = 0
    beta_start: float = 4.0
    beta_end: float = 4096.0
    beta_growth: float = 2.0
    step_size: float = 0.5
    backtrack: float = 0.5
    grad_tol: float = 1e-9
    distance_tol: float = 1e-6

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1:
            raise InvalidParameter("restarts and max_iters must be positive")
        if not (0 < self.beta_start <= self.beta_end):
            raise InvalidParameter("need 0 < beta_start <= beta_end")
        if self.beta_growth <= 1:
            raise InvalidParameter("beta must grow: need growth > 1")
        if self.step_size <= 0 or not (0 < self.backtrack < 1):
            raise InvalidParameter("need step_size > 0 and 0 < backtrack < 1")
        if self.grad_tol <= 0 or self.distance_tol <= 0:
            raise InvalidParameter("tolerances must be positive")

    def betas(self) -> list[float]:
        out = [self.beta_start]
        while out[-1] < self.beta_end:
            out.append(min(out[-1] * self.beta_growth, self.beta_end))
        return out


def _retract(mats: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of each point (thin QR, positive diagonal);
    any leading axes are a batch."""
    q, rr = np.linalg.qr(mats)
    diag = np.diagonal(rr, axis1=-2, axis2=-1)
    absd = np.abs(diag)
    phase = np.where(absd == 0, 1.0 + 0j, diag / np.where(absd == 0, 1.0, absd))
    return q * phase[..., None, :]


def _tangent_project(mats: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Project ambient gradients onto the tangent spaces: G - X herm(X* G)."""
    xtg = np.conj(np.swapaxes(mats, -1, -2)) @ grads
    herm = 0.5 * (xtg + np.conj(np.swapaxes(xtg, -1, -2)))
    return grads - mats @ herm


def _gaussian_stack(field: Field, d: int, r: int, n: int, rng: np.random.Generator) -> np.ndarray:
    out = rng.standard_normal((n, d, r)).astype(np.complex128)
    if field is Field.COMPLEX:
        out += 1j * rng.standard_normal((n, d, r))
    return out


def random_stiefel(field: Field, d: int, r: int, rng: np.random.Generator) -> StiefelPoint:
    """A point drawn from the invariant measure: Gaussian entries followed by
    column orthonormalization."""
    if d < r or r < 1:
        raise InvalidParameter(f"need d >= r >= 1, got ({d}, {r})")
    mats = _retract(_gaussian_stack(field, d, r, 1, rng))
    return StiefelPoint(field, mats[0])


def _restart_rng(seed: int, index: int) -> np.random.Generator:
    key = (int(seed) & ((1 << 64) - 1)) | (index << 64)
    return np.random.Generator(np.random.Philox(key=key))


def _sq_norms(stack: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each code in an (R, n, d, r) stack."""
    flat = stack.view(np.float64).reshape(len(stack), -1)
    return _kernels.row_sums(flat * flat)


def _ascend(field: Field, d: int, r: int, n: int, config: OptimizerConfig, indices):
    """Run the restarts `indices` as one (R, n, d, r) stack.

    Each restart has its own Armijo search, started at twice its last
    accepted step (capped at `step_size`), and leaves a beta stage when its
    projected gradient vanishes or its search fails.  A restart's bytes do
    not depend on which other restarts share the stack.  Returns the min
    squared distance of each restart and the final stack.
    """
    indices = list(indices)
    x = _retract(
        np.stack([_gaussian_stack(field, d, r, n, _restart_rng(config.seed, i)) for i in indices])
    )
    step = np.full(len(indices), config.step_size)
    betas = config.betas()
    per_epoch = max(1, config.max_iters // len(betas))
    for beta in betas:
        live = np.arange(len(indices))
        for _ in range(per_epoch):
            xs = x[live]
            f, g = _kernels.softmin_value_grad(xs, beta)
            bad = np.flatnonzero(~np.isfinite(f))
            if bad.size:
                raise NumericalFailure(f"non-finite objective in restart {indices[live[bad[0]]]}")
            xi = _tangent_project(xs, g)
            gsq = _sq_norms(xi)
            moving = gsq > config.grad_tol**2
            if not moving.all():
                live, xs, f, xi, gsq = live[moving], xs[moving], f[moving], xi[moving], gsq[moving]
            t = np.minimum(config.step_size, 2.0 * step[live])
            pending = np.ones(live.size, dtype=bool)
            for _ in range(MAX_BACKTRACKS):
                p = np.flatnonzero(pending)
                if p.size == 0:
                    break
                y = _retract(xs[p] + t[p, None, None, None] * xi[p])
                fy = _kernels.softmin_value(y, beta)
                ok = fy >= f[p] + ARMIJO_C * t[p] * gsq[p]
                x[live[p[ok]]] = y[ok]
                pending[p[ok]] = False
                t[p[~ok]] *= config.backtrack
            step[live[~pending]] = t[~pending]
            live = live[~pending]
            if live.size == 0:
                break
    iu = np.triu_indices(n, 1)
    return [float(_kernels.pairwise_sq_dists(code)[iu].min()) for code in x], x


def optimize(
    field: Field,
    d: int,
    r: int,
    n: int,
    config: OptimizerConfig | None = None,
) -> tuple[StiefelCode, CodeReport]:
    """Best code over independent random restarts, with its certification.

    All restarts advance together as one batch; the best is the largest
    min distance, the lowest restart index on ties.
    """
    if d < r or r < 1 or n < 2:
        raise InvalidParameter(f"need d >= r >= 1 and n >= 2, got ({d}, {r}, {n})")
    config = config or OptimizerConfig()
    mins, stack = _ascend(field, d, r, n, config, range(config.restarts))
    best_idx = int(np.argmax(mins))

    code = StiefelCode(field, stack[best_idx])
    report = certify(code)
    if report.min_distance > simplex_bound(r, n) + config.distance_tol:
        raise NumericalFailure(
            f"min distance {report.min_distance} exceeds the simplex bound"
        )
    return code, report


def gradient_check(
    field: Field,
    d: int,
    r: int,
    n: int,
    seed: int,
    beta: float = 16.0,
    directions: int = 20,
    step: float = 1e-6,
) -> float:
    """Max relative discrepancy between the projected gradient of the
    smoothed objective and central finite differences along random tangent
    directions (unit-norm; zero-norm draws are rejected and redrawn)."""
    rng = np.random.default_rng(seed)
    x = _retract(_gaussian_stack(field, d, r, n, rng))
    _, g = _kernels.softmin_value_grad(x, beta)
    pg = _tangent_project(x, g)
    worst = 0.0
    done = 0
    while done < directions:
        xi = _tangent_project(x, _gaussian_stack(field, d, r, n, rng))
        nrm = float(np.linalg.norm(xi))
        if nrm < 1e-12:
            continue
        xi /= nrm
        analytic = float(np.vdot(pg, xi).real)
        fp = _kernels.softmin_value(x + step * xi, beta)
        fm = _kernels.softmin_value(x - step * xi, beta)
        numeric = (fp - fm) / (2 * step)
        err = abs(analytic - numeric) / max(1.0, abs(numeric))
        worst = max(worst, err)
        done += 1
    return worst
