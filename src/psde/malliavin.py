"""Discrete first-variation (Malliavin derivative) field along a path.

For r <= t the derivative D_r X_t satisfies

    D_r X_t = sigma(X_r) + int_r^t sigma'(X_s) D_r X_s dW_s
                         + int_r^t b'(X_s) D_r X_s ds
                         + alpha * D_r(max_{s<=t} X_s) + beta * D_r(min_{s<=t} X_s),

where the derivative of a running extreme localizes at its (earliest) argmax
or argmin.  On the grid, with rows j (the differentiation time r_j) and
columns k (the evaluation time t_k):

    d[j,k] = [ sigma(x_j) + sum_{i=j}^{k-1} (sigma'(x_i) dW_i + b'(x_i) dt) d[j,i]
               + alpha * d[j, p_k] + beta * d[j, q_k] ] / den,

with p_k/q_k the running argmax/argmin indices.  A self-referencing extreme
(p_k == k and/or q_k == k) moves to the left side, giving divisors 1,
(1-alpha), (1-beta) or (1-alpha-beta); an extreme attained before r_j
contributes nothing (the derivative of an earlier value vanishes).  The
recursion is run column by column with running sums, O(n^2) total, over a
batch of paths at once (state laid out (n+1, batch)).  Besides the output it
keeps four columns per path: the running source, the current column, and the
columns at the path's current argmax and argmin.  A batch of one that stores
every column is the full field of :func:`derivative_field`, capped at
MAX_FIELD_STEPS; :func:`terminal_h_norms` stores none and needs only
O(batch * n) memory for the terminal H-norms of a whole batch.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EpsTooSmallWarning, PathFailure
from .models import CoefficientModel
from .params import PerturbationParams
from .simulate import (
    Path,
    SimConfig,
    _fresh_max,
    brownian_driver,
    path_drivers,
    per_step_terminal_chunk,
    running_argmax,
    running_argmin,
)

MAX_FIELD_STEPS = 4096
H_NORM_CHUNK = 128  # paths per terminal_h_norms batch, each batch holds ~12 (n+1, chunk) arrays


@dataclass(frozen=True)
class DerivativeField:
    """Lower-triangular grid derivative d[j,k] = D_{r_j} X_{t_k}, j <= k."""

    grid: np.ndarray
    d: np.ndarray
    argmax_idx: np.ndarray
    argmin_idx: np.ndarray

    @property
    def dt(self) -> float:
        return float(self.grid[1] - self.grid[0])

    @property
    def n_steps(self) -> int:
        return len(self.grid) - 1


@dataclass(frozen=True)
class HNorm:
    """Squared H-norm of D X at one grid time, by left-point quadrature."""

    t_index: int
    value: float


@dataclass(frozen=True)
class CameronMartinResult:
    """Finite-difference directional derivative along an indicator direction."""

    value: float
    eps: float
    base_terminal: float
    shifted_terminal: float
    eps_too_small: bool


def _fresh_paths(fresh: np.ndarray) -> list:
    """For each grid index k, the batch columns flagged in fresh[k] (None if none)."""
    ks, paths = np.nonzero(fresh)
    bounds = np.searchsorted(ks, np.arange(len(fresh) + 1)).tolist()
    return [paths[lo:hi] if lo < hi else None for lo, hi in zip(bounds[:-1], bounds[1:])]


def _field_columns(
    x: np.ndarray,
    dw: np.ndarray,
    dt: float,
    model: CoefficientModel,
    params: PerturbationParams,
    store: np.ndarray | None = None,
) -> np.ndarray:
    """Forward recursion over columns k = 0..n for a batch of paths.

    ``x`` is (n+1, batch) path values and ``dw`` (n, batch) driver
    increments.  Returns the terminal column d[:, n] of every path as an
    (n+1, batch) array; with ``store`` (n+1, n+1, batch) every column k is
    written to store[:, k] as well.  Each entry follows the arithmetic order
    of the per-path formula in the module docstring, so results are
    bit-identical for any batch.
    """
    n = x.shape[0] - 1
    alpha, beta = params.alpha, params.beta
    sig = np.asarray(model.sigma(x), dtype=float)
    step_weight = np.asarray(model.sigma_prime(x[:-1]), dtype=float) * dw + np.asarray(
        model.b_prime(x[:-1]), dtype=float
    ) * dt
    fresh_max = _fresh_max(x)
    fresh_min = _fresh_max(-x)
    den = np.where(fresh_max, 1.0 - alpha, 1.0)
    den = np.where(fresh_min, den - beta, den)
    new_max = _fresh_paths(fresh_max)
    new_min = _fresh_paths(fresh_min)
    new_any = _fresh_paths(fresh_max | fresh_min)
    source = np.zeros(x.shape)  # source[j] = sigma(x_j) + accumulated integral terms
    # Adding -0.0 leaves every value, signed zeros included, unchanged: it
    # stands for "no term", both in rows past an extreme's index (where the
    # field is zero) and on a path whose extreme is fresh at k.
    alpha_max = np.full(x.shape, -0.0)  # alpha * (column at the argmax)
    beta_min = np.full(x.shape, -0.0)  # beta * (column at the argmin)
    col = np.zeros(x.shape)
    for k in range(n + 1):
        if k > 0:  # col holds column k-1 until it is overwritten below
            col[:k] *= step_weight[k - 1]
            source[:k] += col[:k]
        source[k] = sig[k]
        up, down, fresh = new_max[k], new_min[k], new_any[k]
        if up is not None:
            alpha_max[: k + 1, up] = -0.0
        if down is not None:
            beta_min[: k + 1, down] = -0.0
        out = col[: k + 1]
        np.add(source[: k + 1], alpha_max[: k + 1], out=out)
        out += beta_min[: k + 1]
        if fresh is not None:
            out[:, fresh] /= den[k, fresh]
        if up is not None:
            alpha_max[: k + 1, up] = alpha * out[:, up]
        if down is not None:
            beta_min[: k + 1, down] = beta * out[:, down]
        if store is not None:
            store[: k + 1, k] = out
    return col


def derivative_field(
    path: Path,
    model: CoefficientModel,
    params: PerturbationParams,
    max_steps: int = MAX_FIELD_STEPS,
) -> DerivativeField:
    """Full field of one path: the column recursion on a batch of one."""
    x = path.x
    n = len(x) - 1
    if n > max_steps:
        raise ValueError(f"full field restricted to n <= {max_steps} steps, got {n}")
    dt = float(path.grid[1] - path.grid[0])
    d = np.zeros((n + 1, n + 1))
    _field_columns(x[:, None], np.diff(path.w)[:, None], dt, model, params, store=d[:, :, None])
    if not np.all(np.isfinite(d)):
        raise FloatingPointError("non-finite entries in derivative field")
    return DerivativeField(
        grid=path.grid, d=d, argmax_idx=running_argmax(x), argmin_idx=running_argmin(x)
    )


def h_norm(field: DerivativeField, k: int) -> HNorm:
    """||D X_{t_k}||_H^2 ~ dt * sum_{j<k} d[j,k]^2 (left-point in r)."""
    if not 0 <= k <= field.n_steps:
        raise ValueError(f"k={k} outside grid with {field.n_steps} steps")
    col = field.d[:k, k]
    return HNorm(t_index=k, value=float(np.sum(col * col)) * field.dt)


def h_norm_profile(field: DerivativeField) -> np.ndarray:
    """H-norm quadrature at every grid time, h[k] = dt * sum_{j<k} d[j,k]^2."""
    sq = field.d * field.d
    diag = np.diagonal(sq)
    return (sq.sum(axis=0) - diag) * field.dt


def terminal_h_norms(
    model: CoefficientModel,
    params: PerturbationParams,
    cfg: SimConfig,
    n_paths: int,
    chunk_size: int = H_NORM_CHUNK,
) -> np.ndarray:
    """||D X_T||_H^2 ~ dt * sum_{j<n} d[j,n]^2 for paths p < n_paths.

    Path p runs on the driver of seed ``path_seed(cfg.rng_seed, p)``.  Each
    chunk of paths goes through the batched per-step kernel (one bound check
    per chunk) and the column recursion without storing columns, so memory
    is O(chunk_size * n) and :data:`MAX_FIELD_STEPS` does not apply.
    Every value equals ``h_norm(derivative_field(path), n).value`` bit for
    bit.  Raises FloatingPointError wherever that field would: a non-finite
    entry feeds its row's running source, which then stays non-finite, so it
    reaches the terminal column.
    """
    n = cfg.n_steps
    grid = cfg.grid()
    dt = float(grid[1] - grid[0])  # the field's dt, as in h_norm
    values = np.empty(n_paths)
    for start in range(0, n_paths, chunk_size):
        stop = min(start + chunk_size, n_paths)
        drivers = path_drivers(cfg, start, stop)
        x = np.empty((n + 1, stop - start))
        try:
            _, lo, hi = per_step_terminal_chunk(model, params, cfg.x0_seed_value, cfg.dt, drivers, x)
        except PathFailure as err:
            err.renumber(start)
            raise
        model.check_bounds(lo, hi)
        w = np.zeros(x.shape)
        np.cumsum(drivers.T, axis=0, out=w[1:])
        terminal = _field_columns(x, np.diff(w, axis=0), dt, model, params)
        if not np.all(np.isfinite(terminal)):
            raise FloatingPointError("non-finite entries in derivative field")
        rows = np.ascontiguousarray(terminal[:n].T)  # per-path sums in h_norm's order
        values[start:stop] = np.sum(rows * rows, axis=1) * dt
    return values


def _window_steps(r_lo: float, r_hi: float, dt: float, n_steps: int) -> tuple[int, int]:
    """Grid steps j_lo <= j < j_hi of the window (r_lo, r_hi]."""
    j_lo = int(round(r_lo / dt))
    j_hi = int(round(r_hi / dt))
    if not 0 <= j_lo < j_hi <= n_steps:
        raise ValueError(f"interval ({r_lo}, {r_hi}] does not map to grid steps")
    return j_lo, j_hi


def directional_from_field(field: DerivativeField, r_lo: float, r_hi: float) -> float:
    """<D X_T, 1_(r_lo, r_hi]>_H from the terminal column of the field."""
    j_lo, j_hi = _window_steps(r_lo, r_hi, field.dt, field.n_steps)
    col = field.d[j_lo:j_hi, field.n_steps]
    return float(np.sum(col)) * field.dt


def cameron_martin_directional(
    model: CoefficientModel,
    params: PerturbationParams,
    cfg: SimConfig,
    windows: Sequence[tuple[float, float]],
    eps: float = 1e-4,
) -> list[CameronMartinResult]:
    """Finite-difference oracle for the directional derivative, per window.

    For each window (r_lo, r_hi], re-simulates on the same Brownian driver
    shifted by eps * int_0^s h(u) du with h the window's indicator: every
    increment inside the window gains eps*dt.  The base path is simulated
    once, as row 0 of one per-step kernel batch whose other rows are the
    shifted drivers, under one bound check.  Each quotient
    (X^eps_T - X_T)/eps matches the field-based sum up to O(eps) + O(dt).
    """
    if eps <= 0.0:
        raise ValueError("eps must be > 0")
    if not windows:
        raise ValueError("need at least one window")
    dt = cfg.dt
    steps = [_window_steps(r_lo, r_hi, dt, cfg.n_steps) for r_lo, r_hi in windows]
    increments = brownian_driver(cfg.n_steps, cfg.horizon, cfg.rng_seed)
    drivers = np.tile(increments, (len(steps) + 1, 1))
    for row, (j_lo, j_hi) in zip(drivers[1:], steps):
        row[j_lo:j_hi] += eps * dt
    terminals, lo, hi = per_step_terminal_chunk(model, params, cfg.x0_seed_value, dt, drivers)
    model.check_bounds(lo, hi)
    x_t, *bumped = terminals.tolist()
    floor = 10.0 * np.spacing(max(abs(x_t), 1.0))
    results = []
    for x_eps in bumped:
        diff = x_eps - x_t
        too_small = bool(abs(diff) < floor)
        if too_small:
            warnings.warn(
                f"finite difference {diff:.3e} below 10 ulp of X_T; increase eps",
                EpsTooSmallWarning,
                stacklevel=2,
            )
        results.append(
            CameronMartinResult(
                value=diff / eps,
                eps=eps,
                base_terminal=x_t,
                shifted_terminal=x_eps,
                eps_too_small=too_small,
            )
        )
    return results


@dataclass(frozen=True)
class PositivityReport:
    """Distribution summary of terminal H-norms across sampled paths."""

    n_paths: int
    t: float
    minimum: float
    quantiles: dict
    fraction_at_or_below: dict
    hypothesis_ok: bool

    def to_dict(self) -> dict:
        return {
            "n_paths": self.n_paths,
            "t": self.t,
            "minimum": self.minimum,
            "quantiles": self.quantiles,
            "fraction_at_or_below": self.fraction_at_or_below,
            "hypothesis_ok": self.hypothesis_ok,
        }


def positivity_report(
    h_norms: Sequence[float],
    t: float,
    sigma_inf: float,
    thresholds: Sequence[float] = (0.0,),
) -> PositivityReport:
    """Summarize terminal H-norms; hypothesis_ok records inf|sigma| > 0.

    Under the absolute-continuity hypotheses every H-norm is positive, so the
    fraction at threshold 0 must be 0.  With sigma degenerate the report only
    flags the hypothesis violation.
    """
    values = np.asarray(h_norms, dtype=float)
    qs = (0.0, 0.01, 0.05, 0.25, 0.5, 0.75, 1.0)
    quantiles = {str(q): float(np.quantile(values, q)) for q in qs}
    fractions = {repr(th): float(np.mean(values <= th)) for th in thresholds}
    return PositivityReport(
        n_paths=len(values),
        t=float(t),
        minimum=float(np.min(values)),
        quantiles=quantiles,
        fraction_at_or_below=fractions,
        hypothesis_ok=sigma_inf > 0.0,
    )


def field_closed_form_singly_perturbed(field: DerivativeField, alpha: float) -> np.ndarray:
    """Reference field for beta=0, sigma=1, b=0, seed 0.

    Differentiating X = W + (alpha/(1-alpha)) max W with the local property:
    d[j,k] = 1 + (alpha/(1-alpha)) * 1{argmax_idx[k] >= j}, for j <= k.
    """
    n = field.n_steps
    c = alpha / (1.0 - alpha)
    j = np.arange(n + 1)[:, None]
    k = np.arange(n + 1)[None, :]
    ref = 1.0 + c * (field.argmax_idx[None, :] >= j)
    return np.where(j <= k, ref, 0.0)
