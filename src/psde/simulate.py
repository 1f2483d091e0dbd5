"""Path generation for the doubly perturbed diffusion.

Two independent schemes on the same uniform grid and Brownian driver:

* ``simulate_per_step``: explicit Euler candidate, then an implicit one-step
  solve whenever the candidate exits the current [min, max] band.  A fresh
  maximum solves x' = u + alpha*(x' - m), i.e. x' = (u - alpha*m)/(1-alpha);
  symmetrically with (1-beta) for a fresh minimum.
* ``simulate_picard``: the outer fixed-point iteration.  Each pass freezes
  the coefficients along the previous iterate, forms the driving path
  a_k = x + sum sigma(X_i) dW_i + sum b(X_i) dt by left-point sums, solves
  the running max/min system for a, and recombines X = a + alpha*M + beta*I.

Both start from X_0 = x/(1-alpha-beta): at time zero the maximum and minimum
both equal X_0, so the dynamics force that value.  Drivers are bit
reproducible per seed via a counter-based generator; ensemble work derives
per-path seeds as (seed XOR path_index).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CaseInconsistentError, NoConvergenceError, SimulationAborted
from .models import CoefficientModel
from .params import PerturbationParams
from .skorokhod import DrivingPath, solve_max_min


class Scheme(enum.Enum):
    PER_STEP = "per-step"
    PICARD = "picard"


@dataclass(frozen=True)
class SimConfig:
    """Grid, seed and scheme selection for one path."""

    x0_seed_value: float
    horizon: float
    n_steps: int
    rng_seed: int
    scheme: Scheme = Scheme.PER_STEP
    picard_outer_iters: int = 50
    fixed_point_tol: float = 1e-10

    def __post_init__(self):
        if self.horizon <= 0.0:
            raise ValueError("horizon must be > 0")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def describe(self) -> dict:
        return {
            "x0_seed_value": self.x0_seed_value,
            "horizon": self.horizon,
            "n_steps": self.n_steps,
            "rng_seed": self.rng_seed,
            "scheme": self.scheme.value,
            "picard_outer_iters": self.picard_outer_iters,
            "fixed_point_tol": self.fixed_point_tol,
        }


@dataclass(frozen=True)
class Path:
    """A sample path with its running extremes and Brownian driver values."""

    grid: np.ndarray
    x: np.ndarray
    m: np.ndarray
    i: np.ndarray
    w: np.ndarray


def path_residual(path: Path, model: CoefficientModel, params: PerturbationParams) -> np.ndarray:
    """x[k+1]-x[k] - sigma(x[k])dW - b(x[k])dt - alpha*dm - beta*di per step."""
    dt = path.grid[1] - path.grid[0]
    dw = np.diff(path.w)
    return (
        np.diff(path.x)
        - np.asarray(model.sigma(path.x[:-1])) * dw
        - np.asarray(model.b(path.x[:-1])) * dt
        - params.alpha * np.diff(path.m)
        - params.beta * np.diff(path.i)
    )


def brownian_driver(n_steps: int, horizon: float, seed: int) -> np.ndarray:
    """n_steps independent N(0, dt) increments, bit-reproducible per seed."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    dt = horizon / n_steps
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.standard_normal(n_steps) * math.sqrt(dt)


def refine_increments(increments: np.ndarray, horizon: float, seed: int) -> np.ndarray:
    """Split each increment in two by Brownian-bridge midpoints.

    The refined sequence drives the same Brownian path at twice the
    resolution; fresh midpoint noise comes from a dedicated stream.
    """
    increments = np.asarray(increments, dtype=float)
    n = len(increments)
    dt = horizon / n
    rng = np.random.Generator(np.random.Philox(key=seed))
    z = rng.standard_normal(n)
    first = 0.5 * increments + 0.5 * math.sqrt(dt) * z
    out = np.empty(2 * n)
    out[0::2] = first
    out[1::2] = increments - first
    return out


def _coef_scalar(fn, x: float) -> float:
    return float(np.asarray(fn(x)))


def simulate_per_step(
    model: CoefficientModel,
    params: PerturbationParams,
    cfg: SimConfig,
    increments: np.ndarray | None = None,
) -> Path:
    """Per-step implicit Euler scheme (see module docstring for the cases)."""
    n = cfg.n_steps
    dt = cfg.dt
    alpha, beta = params.alpha, params.beta
    if increments is None:
        increments = brownian_driver(n, cfg.horizon, cfg.rng_seed)
    x = np.empty(n + 1)
    m = np.empty(n + 1)
    i_arr = np.empty(n + 1)
    x0 = cfg.x0_seed_value / (1.0 - alpha - beta)
    x[0] = m[0] = i_arr[0] = x0
    xk, mk, ik = x0, x0, x0
    for k in range(n):
        dw = increments[k]
        u = xk + _coef_scalar(model.sigma, xk) * dw + _coef_scalar(model.b, xk) * dt
        if u > mk:
            xk = (u - alpha * mk) / (1.0 - alpha)
            if not xk > mk:
                raise CaseInconsistentError(
                    f"fresh-max solve landed at {xk} <= current max {mk} at step {k}", k
                )
            mk = xk
        elif u < ik:
            xk = (u - beta * ik) / (1.0 - beta)
            if not xk < ik:
                raise CaseInconsistentError(
                    f"fresh-min solve landed at {xk} >= current min {ik} at step {k}", k
                )
            ik = xk
        else:
            # ties (u == m or u == i) classify as "no update": no division by
            # a perturbation weight for a vacuous extreme increment
            xk = u
        x[k + 1] = xk
        m[k + 1] = mk
        i_arr[k + 1] = ik
    if not np.all(np.isfinite(x)):
        bad = int(np.argmax(~np.isfinite(x)))
        raise SimulationAborted(f"non-finite path value at step {bad}")
    model.check_bounds(float(np.min(x)), float(np.max(x)))
    w = np.concatenate(([0.0], np.cumsum(increments)))
    return Path(grid=cfg.grid(), x=x, m=m, i=i_arr, w=w)


def per_step_terminal_chunk(
    model: CoefficientModel,
    params: PerturbationParams,
    x0_seed_value: float,
    dt: float,
    drivers: np.ndarray,
    trajectories: np.ndarray | None = None,
) -> tuple[np.ndarray, float, float]:
    """Vectorized per-step scheme over a (n_paths, n_steps) driver matrix.

    Operation order mirrors :func:`simulate_per_step` exactly, so path p of a
    chunk is bit-identical to the scalar simulation on drivers[p], and a
    fresh-extreme solve that lands inside the band raises the same
    :class:`CaseInconsistentError`.  Returns terminal values plus the realized
    value range (for a bounds spot-check), read off the final running extremes.

    With ``trajectories``, a caller-supplied (n_steps + 1, n_paths) array,
    row k receives every path's value at step k (column p equals
    ``simulate_per_step(...).x`` on drivers[p]), and every recorded value,
    not only the terminal one, must be finite.
    """
    alpha, beta = params.alpha, params.beta
    n_steps = drivers.shape[1]
    x0 = x0_seed_value / (1.0 - alpha - beta)
    x = np.full(drivers.shape[0], x0)
    m = x.copy()
    i_arr = x.copy()
    if trajectories is not None:
        trajectories[0] = x
    for k in range(n_steps):
        dw = drivers[:, k]
        u = x + np.asarray(model.sigma(x)) * dw + np.asarray(model.b(x)) * dt
        up = u > m
        down = u < i_arr
        x = np.where(up, (u - alpha * m) / (1.0 - alpha), np.where(down, (u - beta * i_arr) / (1.0 - beta), u))
        inconsistent = (up & ~(x > m)) | (down & ~(x < i_arr))
        if inconsistent.any():
            p = int(np.argmax(inconsistent))
            raise CaseInconsistentError(
                f"fresh-extreme solve on chunk path {p} landed at {x[p]} inside "
                f"[{i_arr[p]}, {m[p]}] at step {k}",
                k,
            )
        m = np.where(up, x, m)
        i_arr = np.where(down, x, i_arr)
        if trajectories is not None:
            trajectories[k + 1] = x
    finite = np.isfinite(x) if trajectories is None else np.isfinite(trajectories).all(axis=0)
    if not finite.all():
        bad = int(np.argmax(~finite))
        raise SimulationAborted(f"non-finite path value on chunk path {bad}")
    return x, float(np.min(i_arr)), float(np.max(m))


def simulate_picard(
    model: CoefficientModel,
    params: PerturbationParams,
    cfg: SimConfig,
    increments: np.ndarray | None = None,
) -> Path:
    """Outer fixed-point iteration over whole paths (see module docstring)."""
    n = cfg.n_steps
    dt = cfg.dt
    alpha, beta = params.alpha, params.beta
    if increments is None:
        increments = brownian_driver(n, cfg.horizon, cfg.rng_seed)
    grid = cfg.grid()
    w = np.concatenate(([0.0], np.cumsum(increments)))
    x_iter = np.full(n + 1, cfg.x0_seed_value / (1.0 - alpha))
    history = []
    solution = None
    for _ in range(cfg.picard_outer_iters):
        sig = np.asarray(model.sigma(x_iter[:-1]))
        drift = np.asarray(model.b(x_iter[:-1]))
        a_vals = cfg.x0_seed_value + np.concatenate(([0.0], np.cumsum(sig * increments + drift * dt)))
        if not np.all(np.isfinite(a_vals)):
            raise SimulationAborted("non-finite driving path in outer iteration")
        solution = solve_max_min(DrivingPath(times=grid, values=a_vals), params)
        x_next = a_vals + alpha * solution.m_path + beta * solution.i_path
        change = float(np.max(np.abs(x_next - x_iter)))
        history.append(change)
        x_iter = x_next
        if change <= cfg.fixed_point_tol:
            break
    else:
        raise NoConvergenceError(
            f"outer iteration above tol={cfg.fixed_point_tol} after "
            f"{cfg.picard_outer_iters} passes (last change {history[-1]:.3e})",
            history,
        )
    model.check_bounds(float(np.min(x_iter)), float(np.max(x_iter)))
    return Path(grid=grid, x=x_iter, m=solution.m_path, i=solution.i_path, w=w)


def simulate(
    model: CoefficientModel,
    params: PerturbationParams,
    cfg: SimConfig,
    increments: np.ndarray | None = None,
) -> Path:
    if cfg.scheme is Scheme.PER_STEP:
        return simulate_per_step(model, params, cfg, increments)
    return simulate_picard(model, params, cfg, increments)


def with_resolution(cfg: SimConfig, n_steps: int) -> SimConfig:
    """Same experiment at a different grid resolution."""
    return replace(cfg, n_steps=n_steps)
