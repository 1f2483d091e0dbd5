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
forward recursion runs one path column by column with running sums, O(n^2)
total.  Besides the current column it keeps three: the running source and
the columns at the current argmax and argmin.  :func:`derivative_field`
stores every column, capped at MAX_FIELD_STEPS; :func:`field_profile`
stores none and returns the H-norm profile and terminal column.

Every row obeys the same linear column map, so one backward (adjoint) sweep,
O(n) per path, gives the whole terminal column d[:, n] at once (Giles &
Glasserman 2006).  :func:`terminal_h_norms` runs it on the paths of an
ensemble through the block runner ``run_ensemble`` of :mod:`psde.simulate`,
as the density's ensembles run, in O(block * n) memory.  Its values are
bit-identical for any block budget, thread count and batch of one, and
agree with the forward field's to 1e-12 relative (the sweep builds the
column in another order).  The same sweep gives :func:`scheme_tangent`, the
exact derivative of the discrete scheme's X_T in each driver increment.

Every reader of the H-norm quadrature h[k] = dt * sum_{j<k} d[j,k]^2
(:func:`h_norm_profile`, :func:`field_profile` and :func:`terminal_h_norms`)
calls :func:`_quadrature`, so the same column gives the same value bit for
bit, and a non-finite value raises FloatingPointError.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import EpsTooSmallWarning, PathFailure
from .models import CoefficientModel
from .params import PerturbationParams
from .simulate import (
    Path,
    SimConfig,
    _fresh_max,
    per_step_path,
    per_step_terminal_chunk,
    run_ensemble,
    running_argmax,
)

MAX_FIELD_STEPS = 4096
# 128 rows at n = 1000, each of 8 * (n+1) bytes; a terminal_h_norms block
# peaks at ~7.3 (n+1, rows) arrays, its drivers included (tracemalloc on
# smooth-generic at n = 1000), so ~7.5 MB
_H_NORM_BLOCK_BYTES = 8 * 1001 * 128


@dataclass(frozen=True)
class DerivativeField:
    """Grid derivative d[j,k] = D_{r_j} X_{t_k}, zero below the diagonal (j > k)."""

    grid: np.ndarray
    d: np.ndarray

    @property
    def dt(self) -> float:
        """The horizon grid[-1] over the step count, as ``Path.dt``."""
        return float(self.grid[-1] / self.n_steps)

    @property
    def n_steps(self) -> int:
        return len(self.grid) - 1


@dataclass(frozen=True)
class CameronMartinResult:
    """Finite-difference directional derivative along an indicator direction."""

    value: float
    base_terminal: float
    shifted_terminal: float
    eps_too_small: bool


def _column_map(x: np.ndarray, dw: np.ndarray, dt: float, model: CoefficientModel, params: PerturbationParams):
    """Per-column coefficients of the recursion shared by the field and its adjoint.

    ``x`` (n+1, ...) holds path values and ``dw`` (n, ...) driver increments
    along axis 0, for one path or a batch.  Returns sigma(x), the step
    weights w_k = sigma'(x_k) dW_k + b'(x_k) dt, the divisors den and the
    fresh-maximum and fresh-minimum flags, each shaped like x (w like dw).
    """
    alpha, beta = params.alpha, params.beta
    sig = np.asarray(model.sigma(x), dtype=float)
    step_weight = np.asarray(model.sigma_prime(x[:-1]), dtype=float) * dw + np.asarray(
        model.b_prime(x[:-1]), dtype=float
    ) * dt
    fresh_max = _fresh_max(x)
    fresh_min = _fresh_max(-x)
    den = np.where(fresh_max, 1.0 - alpha, 1.0)
    den = np.where(fresh_min, den - beta, den)
    return sig, step_weight, den, fresh_max, fresh_min


def _columns(
    x: np.ndarray,
    dw: np.ndarray,
    dt: float,
    model: CoefficientModel,
    params: PerturbationParams,
) -> Iterator[np.ndarray]:
    """Forward recursion over columns k = 0..n of one path's field.

    ``x`` holds the n+1 path values and ``dw`` the n driver increments.
    Yields column k, d[:k+1, k], as a view that the next column
    overwrites, in the arithmetic order of the formula in the module
    docstring; the last one is the terminal column d[:, n].
    """
    n = len(x) - 1
    alpha, beta = params.alpha, params.beta
    sig, step_weight, den, fresh_max, fresh_min = _column_map(x, dw, dt, model, params)
    source = np.zeros(n + 1)  # source[j] = sigma(x_j) + accumulated integral terms
    # Adding -0.0 leaves every value, signed zeros included, unchanged: it
    # stands for "no term", both in rows past an extreme's index (where the
    # field is zero) and while the extreme is fresh at k.
    alpha_max = np.full(n + 1, -0.0)  # alpha * (column at the argmax)
    beta_min = np.full(n + 1, -0.0)  # beta * (column at the argmin)
    col = np.zeros(n + 1)
    for k in range(n + 1):
        if k > 0:  # col holds column k-1 until it is overwritten below
            col[:k] *= step_weight[k - 1]
            source[:k] += col[:k]
        source[k] = sig[k]
        up, down = fresh_max[k], fresh_min[k]
        if up:
            alpha_max[: k + 1] = -0.0
        if down:
            beta_min[: k + 1] = -0.0
        out = col[: k + 1]
        np.add(source[: k + 1], alpha_max[: k + 1], out=out)
        out += beta_min[: k + 1]
        if up or down:
            out /= den[k]
        if up:
            np.multiply(out, alpha, out=alpha_max[: k + 1])
        if down:
            np.multiply(out, beta, out=beta_min[: k + 1])
        yield out


def _terminal_adjoint(
    x: np.ndarray,
    dw: np.ndarray,
    dt: float,
    model: CoefficientModel,
    params: PerturbationParams,
) -> tuple[np.ndarray, np.ndarray]:
    """One backward sweep over columns k = n..0 for a batch of paths.

    Every row of the field obeys the same linear column map and differs
    only by its injection sigma(x_j) at column j, so the terminal column is
    d[j, n] = sigma(x_j) * S[j], with the adjoint S computed backwards from
    S[n+1] = 0:

        C_k = [k = n] + w_k S[k+1] + the carry of each extreme fresh at k,
        g_k = C_k / den_k,   S[k] = g_k + S[k+1],

    where a fresh extreme's carry is reset to 0 once collected, and a column
    that is not a fresh maximum (minimum) adds alpha g_k (beta g_k) to the
    maximum's (minimum's) carry: those columns read the earlier argmax
    (argmin) column.  Each column finds its fresh-maximum and fresh-minimum
    rows itself.
    Returns sigma(x) (n+1, batch) and S (n+2, batch), in O(n * batch) work
    and memory; every operation is elementwise over the batch, so a path's
    values do not depend on the batch.
    """
    n = x.shape[0] - 1
    alpha, beta = params.alpha, params.beta
    sig, step_weight, den, fresh_max, fresh_min = _column_map(x, dw, dt, model, params)
    adj = np.zeros((n + 2, x.shape[1]))
    carry_max = np.zeros(x.shape[1])
    carry_min = np.zeros(x.shape[1])
    g = np.ones(x.shape[1])  # C_n = 1
    term = np.empty(x.shape[1])
    for k in range(n, -1, -1):
        if k < n:
            np.multiply(step_weight[k], adj[k + 1], out=g)
        up, down = fresh_max[k].nonzero()[0], fresh_min[k].nonzero()[0]
        g[up] += carry_max[up]
        g[down] += carry_min[down]
        g /= den[k]
        np.add(g, adj[k + 1], out=adj[k])
        # every column adds to both carries; a fresh extreme's carry is then
        # reset, which drops what its own column added
        carry_max += np.multiply(g, alpha, out=term)
        carry_min += np.multiply(g, beta, out=term)
        carry_max[up] = 0.0
        carry_min[down] = 0.0
    return sig, adj


def _quadrature(col: np.ndarray, dt: float, out: np.ndarray):
    """The H-norm quadrature dt * sum_j col[j]^2, squared into ``out`` and summed down axis 0.

    ``np.add.accumulate`` adds rows j = 0, 1, ... in order, where ``np.sum``
    would add a one-column block pairwise.  Raises FloatingPointError on a
    non-finite value: a non-finite entry, or squares whose sum overflows.
    """
    sq = np.multiply(col, col, out=out)
    h = np.add.accumulate(sq, axis=0, out=sq)[-1] * dt
    if not np.isfinite(h).all():
        raise FloatingPointError("non-finite H-norm: a derivative field entry or its square overflows")
    return h


def _terminal_h_norms(
    x: np.ndarray,
    dw: np.ndarray,
    dt: float,
    model: CoefficientModel,
    params: PerturbationParams,
) -> np.ndarray:
    """dt * sum_{j<n} d[j, n]^2 per path of an (n+1, batch) trajectory block."""
    n = x.shape[0] - 1
    sig, adj = _terminal_adjoint(x, dw, dt, model, params)
    terminal = np.multiply(sig, adj[:-1], out=sig)
    return _quadrature(terminal[:n], dt, out=terminal[:n])


def derivative_field(path: Path, model: CoefficientModel, params: PerturbationParams) -> DerivativeField:
    """Full field of one path, its columns stored by the forward recursion.

    Raises ValueError for a path of more than :data:`MAX_FIELD_STEPS` steps,
    read when called, and FloatingPointError on a non-finite entry.
    """
    x = path.x
    n = len(x) - 1
    if n > MAX_FIELD_STEPS:
        raise ValueError(f"full field restricted to n <= {MAX_FIELD_STEPS} steps, got {n}")
    d = np.zeros((n + 1, n + 1))
    for k, col in enumerate(_columns(x, path.dw, path.dt, model, params)):
        d[: k + 1, k] = col
    if not np.all(np.isfinite(d)):
        raise FloatingPointError("non-finite entries in derivative field")
    return DerivativeField(grid=path.grid, d=d)


def h_norm_profile(field: DerivativeField) -> np.ndarray:
    """||D X_{t_k}||_H^2 ~ h[k] = dt * sum_{j<k} d[j,k]^2 (left-point in r) at every grid time.

    Column k of the strict upper triangle is summed down its rows, so h[k]
    is the sum of rows 0..k-1 in order bit for bit: the zeros add nothing.
    """
    sq = np.triu(field.d, 1)
    return _quadrature(sq, field.dt, out=sq)


def field_profile(
    path: Path, model: CoefficientModel, params: PerturbationParams
) -> tuple[np.ndarray, np.ndarray]:
    """``h_norm_profile`` and terminal column d[:, n] of one path's field, without storing it.

    The forward recursion, in O(n) memory and without the
    :data:`MAX_FIELD_STEPS` cap; both arrays equal those read off
    ``derivative_field(path, ...)`` bit for bit: h[k] is column k's rows
    0..k-1 summed by :func:`_quadrature`.  Raises FloatingPointError
    wherever that field would, or its ``h_norm_profile``: a non-finite
    entry feeds its row's running source, which then stays non-finite, so
    it reaches the terminal column.
    """
    x, dt = path.x, path.dt
    profile = np.zeros(len(x))
    sq = np.empty(len(x))
    for k, col in enumerate(_columns(x, path.dw, dt, model, params)):
        if k:
            profile[k] = _quadrature(col[:k], dt, out=sq[:k])
    if not np.all(np.isfinite(col)):
        raise FloatingPointError("non-finite entries in derivative field")
    return profile, col


def _kernel_pass(
    model: CoefficientModel,
    params: PerturbationParams,
    cfg: SimConfig,
    n_paths: int,
    windows: Sequence[tuple[float, float]] | None = None,
    eps: float = 0.0,
) -> tuple[dict, np.ndarray]:
    """One ``run_ensemble`` run of paths p < n_paths, and of path 0 with windows.

    Path 0's block then also runs, after its paths, one row per window:
    path 0's driver plus eps*dt on the window's steps.  Returns the oracle
    ({"path": path 0, "shifted": those rows' terminals}, {} without
    windows) and the terminal H-norms of paths p < n_paths.
    """
    n, dt = cfg.n_steps, cfg.dt
    if n_paths < 0:
        raise ValueError(f"n_paths must be >= 0, got {n_paths}")
    steps = []
    if windows is not None:
        if not eps > 0.0:
            raise ValueError("eps must be > 0")
        if not windows:
            raise ValueError("need at least one window")
        steps = [_window_steps(r_lo, r_hi, dt, n) for r_lo, r_hi in windows]
    oracle = {}

    def kernel(first, drivers):
        n_rows = len(drivers)
        shifts = steps if first == 0 else ()
        if shifts:
            block = np.empty((n_rows + len(shifts), n), order="F")
            block[:n_rows] = drivers
            block[n_rows:] = drivers[0]
            for row, (j_lo, j_hi) in zip(block[n_rows:], shifts):
                row[j_lo:j_hi] += eps * dt
            drivers = block
        x = np.empty((n + 1, len(drivers)))
        try:
            _, lo, hi = per_step_terminal_chunk(model, params, cfg.x0_seed_value, dt, drivers, x)
        except PathFailure as err:
            if err.path >= n_rows:
                err.args = (f"{err.args[0]} (Cameron-Martin shift of window {err.path - n_rows})",)
                err.path = None
            raise
        if shifts:
            oracle.update(path=per_step_path(cfg, x[:, 0].copy(), drivers[0].copy()), shifted=x[n, n_rows:].tolist())
        if not n_paths:  # path 0 ran for the oracle alone
            return np.empty(0), lo, hi
        return _terminal_h_norms(x[:, :n_rows], drivers[:n_rows].T, dt, model, params), lo, hi

    runs = max(n_paths, 1) if steps else n_paths
    return oracle, run_ensemble(model, cfg, runs, kernel, 8 * (n + 1), _H_NORM_BLOCK_BYTES)


def terminal_h_norms(
    model: CoefficientModel,
    params: PerturbationParams,
    cfg: SimConfig,
    n_paths: int,
) -> np.ndarray:
    """||D X_T||_H^2 ~ dt * sum_{j<n} d[j,n]^2 for paths p < n_paths.

    Path p runs on the driver of seed ``path_seed(cfg.rng_seed, p)``.  Each
    ``run_ensemble`` block (128 paths at n = 1000) runs the batched per-step
    kernel and one backward sweep for the terminal column, in O(rows * n)
    work and memory, so :data:`MAX_FIELD_STEPS` does not apply.  Values are
    bit-identical for any block budget, any PSDE_THREADS and a batch of one
    on the path's own driver.  The sweep builds the column in another order
    than the forward recursion, so a value agrees with
    ``h_norm_profile(derivative_field(path))[n]`` to 1e-12 relative, not
    bit for bit; the quadrature over the column, :func:`_quadrature`, is the
    same.  The sweep reads the drivers the kernel consumed, as a path's
    ``dw`` holds them.  Raises FloatingPointError on a non-finite H-norm,
    before the bound check.  It is :func:`malliavin_pass` without windows,
    and gives the same values.
    """
    return _kernel_pass(model, params, cfg, n_paths)[1]


def scheme_tangent(path: Path, model: CoefficientModel, params: PerturbationParams) -> np.ndarray:
    """Exact derivative dX_T/d(dW_j), j < n, of the per-step scheme along a path.

    A kick to the increment dW_j first moves x_{j+1}, by sigma(x_j), so the
    tangent is sigma(x_j) * S[j+1] with S the adjoint of the terminal
    column's backward sweep.  The field's d[j, n] = sigma(x_j) * S[j] instead
    propagates the kick through step j, which differs by O(dt).  So
    dt * (sum over a window's steps) is the eps -> 0 limit of
    ``cameron_martin_directional``'s quotient for that window.
    """
    sig, adj = _terminal_adjoint(path.x[:, None], path.dw[:, None], path.dt, model, params)
    return sig[:-1, 0] * adj[1:-1, 0]


def _window_steps(r_lo: float, r_hi: float, dt: float, n_steps: int) -> tuple[int, int]:
    """Grid steps j_lo <= j < j_hi of the window (r_lo, r_hi]."""
    j_lo = int(round(r_lo / dt))
    j_hi = int(round(r_hi / dt))
    if not 0 <= j_lo < j_hi <= n_steps:
        raise ValueError(f"interval ({r_lo}, {r_hi}] does not map to grid steps")
    return j_lo, j_hi


def directional_from_column(column: np.ndarray, dt: float, r_lo: float, r_hi: float) -> float:
    """<D X_T, 1_(r_lo, r_hi]>_H from a terminal column d[:, n] of n + 1 entries."""
    j_lo, j_hi = _window_steps(r_lo, r_hi, dt, len(column) - 1)
    return float(np.sum(column[j_lo:j_hi])) * dt


def directional_from_field(field: DerivativeField, r_lo: float, r_hi: float) -> float:
    """<D X_T, 1_(r_lo, r_hi]>_H from the terminal column of the field."""
    return directional_from_column(field.d[:, field.n_steps], field.dt, r_lo, r_hi)


def _finite_differences(oracle: dict, eps: float) -> list[CameronMartinResult]:
    """The quotients (X^eps_T - X_T)/eps of a ``_kernel_pass`` oracle; a
    warning points at the call of the public function that called this one."""
    x_t = float(oracle["path"].x[-1])
    floor = 10.0 * np.spacing(max(abs(x_t), 1.0))
    results = []
    for x_eps in oracle["shifted"]:
        diff = x_eps - x_t
        too_small = bool(abs(diff) < floor)
        if too_small:
            warnings.warn(
                f"finite difference {diff:.3e} below 10 ulp of X_T; increase eps",
                EpsTooSmallWarning,
                stacklevel=3,
            )
        results.append(
            CameronMartinResult(
                value=diff / eps,
                base_terminal=x_t,
                shifted_terminal=x_eps,
                eps_too_small=too_small,
            )
        )
    return results


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
    increment inside the window gains eps*dt.  The base path is path 0 of
    the ensemble on cfg.rng_seed, which must be a master seed, below 2**64,
    as for :func:`terminal_h_norms`: it is simulated once, and the shifted
    drivers run as further rows of its one per-step kernel batch, under one
    bound check.  It is :func:`malliavin_pass` without positivity paths,
    and gives the same values.  Each quotient (X^eps_T - X_T)/eps matches
    the field-based sum up to O(eps) + O(dt).
    """
    return _finite_differences(_kernel_pass(model, params, cfg, 0, windows, eps)[0], eps)


def malliavin_pass(
    model: CoefficientModel,
    params: PerturbationParams,
    cfg: SimConfig,
    windows: Sequence[tuple[float, float]],
    eps: float,
    n_paths: int,
) -> tuple[Path, list[CameronMartinResult], np.ndarray]:
    """Path 0, its Cameron-Martin quotients and the terminal H-norms of paths
    p < n_paths, from one run of the per-step kernel.

    Returns what ``simulate_per_step`` on cfg, ``cameron_martin_directional``
    on windows and eps, and ``terminal_h_norms`` on n_paths return, bit for
    bit: path 0's driver runs once, as row 0 of its ``run_ensemble`` block,
    and its shifted drivers as further rows of that block, after its paths.
    So a failure is that of the lowest failing block, and in path 0's block
    that of its lowest failing path before any shifted row.  A path's
    failure names its ensemble path p; a shifted row's names its window, by
    its index in windows, and no path (``path`` None).  One bound check
    covers every row's range.
    """
    oracle, h_norms = _kernel_pass(model, params, cfg, n_paths, windows, eps)
    return oracle["path"], _finite_differences(oracle, eps), h_norms


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
        return asdict(self)


def _quantile(ordered: list, q: float) -> float:
    """``np.quantile(values, q)`` from the values sorted, bit for bit, without
    the numpy.ma import of its first call: numpy's linear method at the
    index v = (n-1)*q, whose neighbours a, b are both the last value where
    v >= n-1 (then its weight g = v + 1), and a + (b-a)*g, or b - (b-a)*(1-g)
    where g >= 0.5."""
    v = (len(ordered) - 1) * q
    lo = -1 if v >= len(ordered) - 1 else math.floor(v)
    a, b = ordered[lo], ordered[lo + 1 if lo >= 0 else -1]
    g = v - lo
    return b - (b - a) * (1.0 - g) if g >= 0.5 else a + (b - a) * g


def positivity_report(h_norms: Sequence[float], t: float, sigma_inf: float) -> PositivityReport:
    """Summarize terminal H-norms; hypothesis_ok records inf|sigma| > 0.

    Under the absolute-continuity hypotheses every H-norm is positive, so
    ``fraction_at_or_below["0.0"]``, the share of H-norms <= 0, must be 0.
    With sigma degenerate the report only flags the hypothesis violation.
    The quantiles are ``np.quantile``'s, bit for bit.  Raises ValueError
    unless there is at least one H-norm and every one is finite.
    """
    values = np.asarray(h_norms, dtype=float)
    if not (len(values) and np.isfinite(values).all()):
        raise ValueError("positivity_report needs at least one H-norm, all finite")
    ordered = np.sort(values).tolist()
    qs = (0.0, 0.01, 0.05, 0.25, 0.5, 0.75, 1.0)
    quantiles = {str(q): _quantile(ordered, q) for q in qs}
    return PositivityReport(
        n_paths=len(values),
        t=float(t),
        minimum=float(np.min(values)),
        quantiles=quantiles,
        fraction_at_or_below={"0.0": float(np.mean(values <= 0.0))},
        hypothesis_ok=sigma_inf > 0.0,
    )


def field_closed_form_singly_perturbed(path: Path, alpha: float) -> np.ndarray:
    """Reference field of a path for beta=0, sigma=1, b=0.

    Differentiating X = W + (alpha/(1-alpha)) max W with the local property:
    d[j,k] = 1 + (alpha/(1-alpha)) * 1{p_k >= j} for j <= k, with p the
    path's running argmax.
    """
    argmax_idx = running_argmax(path.x)
    c = alpha / (1.0 - alpha)
    j = np.arange(len(argmax_idx))[:, None]
    ref = 1.0 + c * (argmax_idx[None, :] >= j)
    return np.where(j <= j.T, ref, 0.0)
