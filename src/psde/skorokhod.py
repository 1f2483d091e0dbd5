"""Fixed-point solver for the coupled running-max / running-min system.

Given a driving path a on a grid, the running maximum M and running minimum I
of the perturbed path x = a + alpha*M + beta*I solve the coupled identities

    (1-alpha) * M_k = max_{j<=k} (a_j + beta * I_j)
    (beta-1)  * I_k = max_{j<=k} (-a_j - alpha * M_j)

Eliminating I gives a self-map of M whose sup-norm contraction factor is
|rho| = |alpha*beta| / ((1-alpha)(1-beta)) < 1, so plain iteration converges
geometrically.  All maxima are taken over grid indices; ties resolve to the
earliest index (running maxima of arrays do this naturally).

``max_min_rows`` is the only implementation of the iteration: it sweeps a
(rows, n+1) block of driving paths along the last axis, and each row stops
at its own tolerance.  ``solve_max_min`` is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError
from .params import PerturbationParams

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 200


@dataclass(frozen=True)
class DrivingPath:
    """Uniform time grid and driving-path values, a_0 = seed value x."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.shape != values.shape or times.ndim != 1:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if len(times) >= 2 and not np.all(np.diff(times) > 0.0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("driving-path values must be finite")


@dataclass(frozen=True)
class MaxMinSolution:
    """Converged (M, I) pair with iteration diagnostics."""

    m_path: np.ndarray
    i_path: np.ndarray
    iterations: int
    residual: float

    def perturbed_path(self, a: DrivingPath, params: PerturbationParams) -> np.ndarray:
        """Reconstruct x = a + alpha*M + beta*I."""
        return a.values + params.alpha * self.m_path + params.beta * self.i_path


def _sweep(av: np.ndarray, m: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    # One Gauss-Seidel sweep of the M self-map along the last axis: the inner
    # running max is the (beta-1)*I candidate built from the current M iterate.
    inner = np.maximum.accumulate(-av - alpha * m, axis=-1)
    return np.maximum.accumulate(av + beta / (beta - 1.0) * inner, axis=-1) / (1.0 - alpha)


def max_min_rows(
    av: np.ndarray,
    alpha: float,
    beta: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    m_init: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Iterate the M self-map on every row of a (rows, n+1) block of driving paths.

    Each row starts from M == its a_0 (or its row of ``m_init``) and stops
    sweeping at the first sweep whose sup-norm residual is within ``tol``;
    a stopped row is never swept again, so its arithmetic, iterate and
    residuals do not depend on the other rows of the block.  A row that
    never stops keeps its iterate after ``max_iter`` sweeps.  I is
    recovered from the (beta-1)*I identity with each row's final M.

    Returns (m, i, sweeps, history): sweeps[r] is the number of sweeps row r
    took, 0 if it was still above ``tol`` after ``max_iter``, and
    history[k, r] the residual of its sweep k + 1 (valid for k < sweeps[r],
    every k for a row that did not converge).  Never raises on a row that
    fails to converge; see :func:`no_convergence`.
    """
    m = np.repeat(av[:, :1], av.shape[1], axis=1) if m_init is None else np.array(m_init, dtype=float)
    sweeps = np.zeros(len(av), dtype=int)
    history = np.empty((max_iter, len(av)))
    live = np.arange(len(av))
    a_live, m_live = av, m
    for k in range(max_iter):
        m_next = _sweep(a_live, m_live, alpha, beta)
        residual = np.max(np.abs(m_next - m_live), axis=-1)
        history[k, live] = residual
        m_live = m_next
        done = residual <= tol
        if done.any():
            m[live[done]] = m_live[done]
            sweeps[live[done]] = k + 1
            left = ~done
            live, a_live, m_live = live[left], a_live[left], m_live[left]
        if not len(live):
            break
    m[live] = m_live
    i = np.maximum.accumulate(-av - alpha * m, axis=-1) / (beta - 1.0)
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
    a: DrivingPath,
    params: PerturbationParams,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    m_init: np.ndarray | None = None,
) -> MaxMinSolution:
    """Iterate the M self-map to sup-norm tolerance ``tol``: a batch of one.

    Starts from M == a_0 (constant) unless a warm start ``m_init`` is given.
    After M converges, I is recovered from the (beta-1)*I identity with the
    final M.  Raises :class:`NoConvergenceError` when the residual is still
    above ``tol`` after ``max_iter`` sweeps.
    """
    if tol <= 0.0:
        raise ValueError("tol must be > 0")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    m_rows = None if m_init is None else np.asarray(m_init, dtype=float)[None, :]
    m, i, sweeps, history = max_min_rows(a.values[None, :], params.alpha, params.beta, tol, max_iter, m_rows)
    iterations = int(sweeps[0])
    if not iterations:
        raise no_convergence(history[:, 0], tol, path=0)
    return MaxMinSolution(m_path=m[0], i_path=i[0], iterations=iterations, residual=float(history[iterations - 1, 0]))


def contraction_rate(
    a: DrivingPath,
    params: PerturbationParams,
    n_sweeps: int,
) -> np.ndarray:
    """Successive sup-norm update ratios of the M iteration.

    Returns r_m = ||M^(m+1) - M^(m)|| / ||M^(m) - M^(m-1)||, dropping terms
    whose denominator has fallen into floating-point noise.  Degenerate case
    alpha*beta == 0 converges exactly in one sweep: an empty array is
    returned.
    """
    if n_sweeps < 2:
        raise ValueError("n_sweeps must be >= 2")
    if params.alpha * params.beta == 0.0:
        return np.empty(0)
    # tol = 0 sweeps until M stops moving: the updates after that are all zero
    m, _, sweeps, history = max_min_rows(a.values[None], params.alpha, params.beta, 0.0, n_sweeps)
    deltas = history[: sweeps[0] or n_sweeps, 0]
    scale = max(1.0, float(np.max(np.abs(m))))
    floor = 1e3 * np.finfo(float).eps * scale
    ratios = [
        deltas[k] / deltas[k - 1]
        for k in range(1, len(deltas))
        if deltas[k - 1] > floor
    ]
    return np.asarray(ratios)
