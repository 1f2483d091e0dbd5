"""Path generation for the doubly perturbed diffusion.

Two independent schemes on the same uniform grid and Brownian driver:

* ``per_step_terminal_chunk``: explicit Euler candidate, then an implicit
  one-step solve whenever the candidate exits the current [min, max] band.
  A fresh maximum solves x' = u + alpha*(x' - m), i.e.
  x' = (u - alpha*m)/(1-alpha); symmetrically with (1-beta) for a fresh
  minimum.  It is the only implementation of the step and runs a batch of
  paths at once; ``simulate_per_step`` is a batch of one.
* ``simulate_picard``: the outer fixed-point iteration.  Each pass freezes
  the coefficients along the previous iterate, forms the driving path
  a_k = x + sum sigma(X_i) dW_i + sum b(X_i) dt by left-point sums, solves
  the running max/min system for a, and recombines X = a + alpha*M + beta*I.

Both start from X_0 = x/(1-alpha-beta): at time zero the maximum and minimum
both equal X_0, so the dynamics force that value.

Drivers are bit reproducible per seed on the counter-based Philox generator
(Salmon et al. 2011, "Parallel random numbers: as easy as 1, 2, 3").  A seed
below 2**64 is a master seed; path p of its ensemble has seed
``path_seed(master, p) = master | (p << 64)``.  A seed's stream has key
(purpose tag, master) and starts at counter (0, p, 0, 0): normals consume
only counter word 0, so every path owns 2**64 blocks and can be drawn on its
own, bit-identical to its row of any ensemble chunk.  Drivers and bridge
midpoints use different tags, so they never share draws.
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


_MASK64 = (1 << 64) - 1
_DRIVER_TAG = 0
_BRIDGE_TAG = 1
_BLOCK_BYTES = 1 << 19  # one block of normals stays in L2


def path_seed(master_seed: int, path_index: int) -> int:
    """Seed of path path_index of the ensemble on master_seed: master | (p << 64)."""
    if not (0 <= master_seed <= _MASK64 and 0 <= path_index <= _MASK64):
        raise ValueError(f"path_seed needs 0 <= master, path < 2**64, got {master_seed}, {path_index}")
    return int(master_seed) | (int(path_index) << 64)


def _philox(tag: int, seed: int) -> np.random.Philox:
    """Stream of seed for one purpose: key (tag, master), counter (0, p, 0, 0)."""
    if not 0 <= seed < 1 << 128:
        raise ValueError(f"seed must lie in [0, 2**128), got {seed}")
    key = np.array([tag, seed & _MASK64], dtype=np.uint64)
    return np.random.Philox(key=key, counter=np.array([0, seed >> 64, 0, 0], dtype=np.uint64))


def _normal_rows(tag: int, seed: int, out: np.ndarray, scale: float) -> np.ndarray:
    """Fill out[r] with scale * standard normals of seed + r * 2**64 (path p + r).

    One generator serves every row: each row resets its state to counter
    word 1 = its path, which costs far less than a fresh Philox.  Rows are
    drawn into a C-order block of at most 64 paths and _BLOCK_BYTES, then
    scaled into ``out`` in whatever order it has.
    """
    n_rows, n = out.shape
    gen = np.random.Generator(_philox(tag, seed))
    state = gen.bit_generator.state
    counter = state["state"]["counter"]
    first = seed >> 64
    rows = max(1, min(64, _BLOCK_BYTES // (8 * n)))
    block = np.empty((min(rows, n_rows), n))
    for start in range(0, n_rows, rows):
        part = block[: min(rows, n_rows - start)]
        for r, row in enumerate(part, start):
            counter[1] = first + r
            gen.bit_generator.state = state
            gen.standard_normal(out=row)
        np.multiply(part, scale, out=out[start : start + len(part)])
    return out


def brownian_driver(n_steps: int, horizon: float, seed: int) -> np.ndarray:
    """n_steps independent N(0, dt) increments, bit-reproducible per seed.

    ``brownian_driver(n, T, path_seed(s, p))`` is row p of the ensemble
    drivers on master seed s.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    dt = horizon / n_steps
    return _normal_rows(_DRIVER_TAG, seed, np.empty((1, n_steps)), math.sqrt(dt))[0]


def path_drivers(cfg: SimConfig, start: int, stop: int) -> np.ndarray:
    """Drivers of paths start <= p < stop of the ensemble on cfg.rng_seed.

    cfg.rng_seed must be a master seed, below 2**64 (ValueError otherwise):
    a per-path seed ``path_seed(s, p)`` has no ensemble of its own.  Row
    p - start is ``brownian_driver(cfg.n_steps, cfg.horizon,
    path_seed(cfg.rng_seed, p))``.  The array is column-major (Fortran
    order), so the per-step kernel reads each step's column contiguously.
    """
    drivers = np.empty((stop - start, cfg.n_steps), order="F")
    return _normal_rows(_DRIVER_TAG, path_seed(cfg.rng_seed, start), drivers, math.sqrt(cfg.dt))


def refine_increments(increments: np.ndarray, horizon: float, seed: int) -> np.ndarray:
    """Split each increment in two by Brownian-bridge midpoints.

    The refined sequence drives the same Brownian path at twice the
    resolution; fresh midpoint noise comes from the bridge stream of seed,
    which shares no draws with any driver.
    """
    increments = np.asarray(increments, dtype=float)
    n = len(increments)
    dt = horizon / n
    z = _normal_rows(_BRIDGE_TAG, seed, np.empty((1, n)), 1.0)[0]
    first = 0.5 * increments + 0.5 * math.sqrt(dt) * z
    out = np.empty(2 * n)
    out[0::2] = first
    out[1::2] = increments - first
    return out


def refinement_ladder(cfg: SimConfig, n_levels: int) -> list[tuple[SimConfig, np.ndarray]]:
    """(config, increments) of n_levels resolutions of one Brownian path.

    Level 0 is cfg's driver; level l > 0 halves every step of level l - 1 by
    bridge midpoints on seed ``path_seed(cfg.rng_seed, l)``, so cfg.rng_seed
    must be a master seed, below 2**64 (ValueError otherwise, even for one
    level).  To refine ensemble path p, pass its driver to
    ``refine_increments`` with seeds of your own choosing.
    """
    if not 0 <= cfg.rng_seed <= _MASK64:
        raise ValueError(f"refinement_ladder needs a master seed below 2**64, got {cfg.rng_seed}")
    levels = [(cfg, brownian_driver(cfg.n_steps, cfg.horizon, cfg.rng_seed))]
    for level in range(1, n_levels):
        level_cfg, increments = levels[-1]
        levels.append(
            (
                with_resolution(level_cfg, 2 * level_cfg.n_steps),
                refine_increments(increments, cfg.horizon, path_seed(cfg.rng_seed, level)),
            )
        )
    return levels


def _fresh_max(x: np.ndarray) -> np.ndarray:
    """Fresh running maxima along axis 0: x_k > max_{j<k} x_j, and k = 0."""
    fresh = np.ones(x.shape, dtype=bool)
    fresh[1:] = x[1:] > np.maximum.accumulate(x, axis=0)[:-1]
    return fresh


def running_argmax(x: np.ndarray) -> np.ndarray:
    """Earliest index attaining the running maximum at each position."""
    x = np.asarray(x, dtype=float)
    return np.maximum.accumulate(np.where(_fresh_max(x), np.arange(len(x)), -1))


def running_argmin(x: np.ndarray) -> np.ndarray:
    return running_argmax(-np.asarray(x, dtype=float))


def _solve_fresh(x, extreme, weight, beyond, k):
    """Fresh-extreme solve x' = (u - weight*e)/(1-weight) at step k, in place.

    Runs only on the paths whose candidate u = x is beyond(u, e) of their
    running extreme e; a solve that lands back inside the band raises.
    """
    fresh = beyond(x, extreme)
    if not np.count_nonzero(fresh):  # cheaper than fresh.any() on a batch of one
        return
    p = np.flatnonzero(fresh)
    solved = (x[p] - weight * extreme[p]) / (1.0 - weight)
    inside = ~beyond(solved, extreme[p])
    if inside.any():
        q = int(np.argmax(inside))
        raise CaseInconsistentError(
            f"fresh-extreme solve on chunk path {p[q]} landed at {solved[q]}, inside its "
            f"running extreme {extreme[p[q]]}, at step {k}",
            step=k,
            path=int(p[q]),
        )
    x[p] = solved
    extreme[p] = solved


def per_step_terminal_chunk(
    model: CoefficientModel,
    params: PerturbationParams,
    x0_seed_value: float,
    dt: float,
    drivers: np.ndarray,
    trajectories: np.ndarray | None = None,
) -> tuple[np.ndarray, float, float]:
    """Per-step scheme over a (n_paths, n_steps) driver matrix.

    Each step forms the Euler candidate u = x + sigma(x) dW + b(x) dt on
    every path and divides only where u leaves the [i, m] band.  Drivers are
    read column by column, drivers[:, k] at step k, so a column-major matrix
    (as ``path_drivers`` builds) is read contiguously; results do not depend
    on the layout.  The
    arithmetic of a path does not depend on the batch, so path p of a chunk
    is bit-identical to a batch of one on drivers[p].  Returns terminal
    values plus the realized value range (for a bounds spot-check), read off
    the final running extremes.

    With ``trajectories``, a caller-supplied (n_steps + 1, n_paths) array,
    row k receives every path's value at step k, and every recorded value,
    not only the terminal one, must be finite (the abort names its step).
    """
    alpha, beta = params.alpha, params.beta
    x0 = x0_seed_value / (1.0 - alpha - beta)
    x = np.full(drivers.shape[0], x0)
    m = x.copy()
    i_arr = x.copy()
    if trajectories is not None:
        trajectories[0] = x
    for k in range(drivers.shape[1]):
        noise = np.asarray(model.sigma(x)) * drivers[:, k]
        drift = np.asarray(model.b(x)) * dt
        x += noise
        x += drift
        # a fresh maximum lands above the minimum, so the minimum solve sees
        # only unsolved candidates; ties (u == m or u == i) solve nothing
        _solve_fresh(x, m, alpha, np.greater, k)
        _solve_fresh(x, i_arr, beta, np.less, k)
        if trajectories is not None:
            trajectories[k + 1] = x
    finite = np.isfinite(x if trajectories is None else trajectories)
    if not finite.all():
        *step, path = (int(v) for v in np.argwhere(~finite)[0])
        step = step[0] if step else None
        at = "" if step is None else f" at step {step}"
        raise SimulationAborted(f"non-finite path value on chunk path {path}{at}", step=step, path=path)
    return x, float(np.min(i_arr)), float(np.max(m))


def simulate_per_step(
    model: CoefficientModel,
    params: PerturbationParams,
    cfg: SimConfig,
    increments: np.ndarray | None = None,
) -> Path:
    """Per-step implicit Euler scheme: the chunk kernel on a batch of one.

    m and i are the values at the earliest running argmax/argmin, as the
    kernel keeps them (np.maximum.accumulate may take the later of -0.0, 0.0).
    """
    if increments is None:
        increments = brownian_driver(cfg.n_steps, cfg.horizon, cfg.rng_seed)
    increments = np.asarray(increments, dtype=float)
    x = np.empty((cfg.n_steps + 1, 1))
    _, lo, hi = per_step_terminal_chunk(model, params, cfg.x0_seed_value, cfg.dt, increments[None, :], x)
    model.check_bounds(lo, hi)
    x = x.reshape(-1)
    w = np.concatenate(([0.0], np.cumsum(increments)))
    return Path(grid=cfg.grid(), x=x, m=x[running_argmax(x)], i=x[running_argmin(x)], w=w)


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
        finite = np.isfinite(a_vals)
        if not finite.all():
            step = int(np.argmin(finite))
            raise SimulationAborted(f"non-finite driving path in outer iteration at step {step}", step=step, path=0)
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
