"""Fixed-point solver for the coupled running-max / running-min system.

Given the values a_0, ..., a_n of a driving path, the running maximum M and
running minimum I of the perturbed path x = a + alpha*M + beta*I solve the
coupled identities

    (1-alpha) * M_k = max_{j<=k} (a_j + beta * I_j)
    (beta-1)  * I_k = max_{j<=k} (-a_j - alpha * M_j)

Eliminating I gives a self-map of M whose sup-norm contraction factor is
|rho| = |alpha*beta| / ((1-alpha)(1-beta)) < 1, so plain iteration converges
geometrically.  All maxima are taken over grid indices, so the times of the
grid never enter and a driving path is its 1-d array of values; ties resolve
to the earliest index (running maxima of arrays do this naturally).

``max_min_rows`` is the only implementation of the iteration: it sweeps a
(rows, n+1) block of driving paths along the last axis, and each row stops
at its own tolerance.  The identities couple each time only to its past, so
floors that carry a prefix's extremes let it solve a path piece by piece.
``solve_max_min`` is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError
from .params import PerturbationParams

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 200


@dataclass(frozen=True)
class MaxMinSolution:
    """Converged (M, I) pair with iteration diagnostics."""

    m_path: np.ndarray
    i_path: np.ndarray
    iterations: int
    residual: float

    def perturbed_path(self, a: np.ndarray, params: PerturbationParams) -> np.ndarray:
        """Reconstruct x = a + alpha*M + beta*I from the driving path's values a."""
        return np.asarray(a, dtype=float) + params.alpha * self.m_path + params.beta * self.i_path


def _driving_values(a) -> np.ndarray:
    """A driving path's values as a float array; ValueError unless non-empty, 1-d and finite."""
    values = np.asarray(a, dtype=float)
    if values.ndim != 1 or not values.size:
        raise ValueError("driving-path values must be a non-empty 1-d array")
    if not np.all(np.isfinite(values)):
        raise ValueError("driving-path values must be finite")
    return values


def _running_max(v: np.ndarray, floor: np.ndarray) -> np.ndarray:
    # running max along the last axis of max(floor, v_0), v_1, ...; v is a
    # temporary, so its first column takes the floor in place
    np.maximum(v[..., 0], floor, out=v[..., 0])
    return np.maximum.accumulate(v, axis=-1)


def _sweep(av: np.ndarray, m: np.ndarray, alpha: float, beta: float, bounds: np.ndarray) -> np.ndarray:
    # One Gauss-Seidel sweep of the M self-map along the last axis: the inner
    # running max is the (beta-1)*I candidate built from the current M iterate,
    # and bounds holds the rows' (hi, lo) floors.
    inner = _running_max(-av - alpha * m, bounds[1])
    return _running_max(av + beta / (beta - 1.0) * inner, bounds[0]) / (1.0 - alpha)


def max_min_rows(
    av: np.ndarray,
    alpha: float,
    beta: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    m_init: np.ndarray | None = None,
    floors: tuple = (-np.inf, -np.inf),
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Iterate the M self-map on every row of a (rows, n+1) block of driving paths.

    Each row starts from M == its a_0 (or its row of ``m_init``, a warm
    start) and stops sweeping at the first sweep whose sup-norm residual is
    within ``tol``; a stopped row is never swept again, so its arithmetic,
    iterate and residuals do not depend on the other rows of the block.  A
    row that never stops keeps its iterate after ``max_iter`` sweeps.  I is
    recovered from the (beta-1)*I identity with each row's final M.

    ``floors`` = (hi, lo), scalars or one value per row, continue a path
    whose prefix the block does not hold: with the prefix's extremes,
    hi = (1-alpha)*M_s and lo = (beta-1)*I_s, the running maxima behind
    (1-alpha)*M and (beta-1)*I start from them, and the block's columns
    solve the whole path's system after s.  The default floors of -inf
    change no bit.

    Returns (m, i, sweeps, history): sweeps[r] is the number of sweeps row r
    took, 0 if it was still above ``tol`` after ``max_iter``, and
    history[k, r] the residual of its sweep k + 1 (valid for k < sweeps[r],
    every k for a row that did not converge).  Never raises on a row that
    fails to converge; see :func:`no_convergence`.
    """
    m = np.repeat(av[:, :1], av.shape[1], axis=1) if m_init is None else np.array(m_init, dtype=float)
    bounds = np.empty((2, len(av)))
    bounds[0], bounds[1] = floors
    sweeps = np.zeros(len(av), dtype=int)
    history = np.empty((max_iter, len(av)))
    live = np.arange(len(av))
    a_live, m_live, bounds_live = av, m, bounds
    for k in range(max_iter):
        m_next = _sweep(a_live, m_live, alpha, beta, bounds_live)
        residual = np.maximum.reduce(np.abs(m_next - m_live), axis=-1)
        history[k, live] = residual
        m_live = m_next
        done = residual <= tol
        if done.any():
            m[live[done]] = m_live[done]
            sweeps[live[done]] = k + 1
            left = ~done
            live, a_live, m_live, bounds_live = live[left], a_live[left], m_live[left], bounds_live[:, left]
        if not len(live):
            break
    m[live] = m_live
    i = _running_max(-av - alpha * m, bounds[1]) / (beta - 1.0)
    return m, i, sweeps, history


def no_convergence(history: np.ndarray, tol: float, path: int) -> NoConvergenceError:
    """The failure of row ``path`` of :func:`max_min_rows`, with its residual history."""
    return NoConvergenceError(
        f"max/min fixed point above tol={tol} after {len(history)} sweeps "
        f"(last residual {history[-1]:.3e})",
        history.tolist(),
        path=path,
    )


def solve_max_min(
    a: np.ndarray,
    params: PerturbationParams,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> MaxMinSolution:
    """Iterate the M self-map on driving-path values ``a`` to sup-norm tolerance ``tol``.

    A batch of one of :func:`max_min_rows`: starts from M == a_0 (constant),
    and after M converges, I is recovered from the (beta-1)*I identity with
    the final M.  Raises ValueError unless ``a`` is a non-empty, finite 1-d
    array, and :class:`NoConvergenceError` when the residual is still above
    ``tol`` after ``max_iter`` sweeps.
    """
    values = _driving_values(a)
    if tol <= 0.0:
        raise ValueError("tol must be > 0")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    m, i, sweeps, history = max_min_rows(values[None, :], params.alpha, params.beta, tol, max_iter)
    iterations = int(sweeps[0])
    if not iterations:
        raise no_convergence(history[:, 0], tol, path=0)
    return MaxMinSolution(m_path=m[0], i_path=i[0], iterations=iterations, residual=float(history[iterations - 1, 0]))


def contraction_rate(
    a: np.ndarray,
    params: PerturbationParams,
    n_sweeps: int,
) -> np.ndarray:
    """Successive sup-norm update ratios of the M iteration on driving-path values ``a``.

    Returns r_m = ||M^(m+1) - M^(m)|| / ||M^(m) - M^(m-1)||, dropping terms
    whose denominator has fallen into floating-point noise.  Degenerate case
    alpha*beta == 0 converges exactly in one sweep: an empty array is
    returned.  Raises ValueError unless ``a`` is a non-empty, finite 1-d
    array.
    """
    values = _driving_values(a)
    if n_sweeps < 2:
        raise ValueError("n_sweeps must be >= 2")
    if params.alpha * params.beta == 0.0:
        return np.empty(0)
    # tol = 0 sweeps until M stops moving: the updates after that are all zero
    m, _, sweeps, history = max_min_rows(values[None], params.alpha, params.beta, 0.0, n_sweeps)
    deltas = history[: sweeps[0] or n_sweeps, 0]
    scale = max(1.0, float(np.max(np.abs(m))))
    floor = 1e3 * np.finfo(float).eps * scale
    ratios = [
        deltas[k] / deltas[k - 1]
        for k in range(1, len(deltas))
        if deltas[k - 1] > floor
    ]
    return np.asarray(ratios)
