"""Path generation for the doubly perturbed diffusion.

Two independent schemes on the same uniform grid and Brownian driver:

* ``per_step_terminal_chunk``: explicit Euler candidate, then an implicit
  one-step solve whenever the candidate exits the current [min, max] band.
  A fresh maximum solves x' = u + alpha*(x' - m), i.e.
  x' = (u - alpha*m)/(1-alpha); symmetrically with (1-beta) for a fresh
  minimum.  A solve that rounds back onto or inside its extreme is a tie:
  the path stays at the extreme, which does not move.  It is the only
  implementation of the step and runs a batch of paths at once, each row
  with its own step and step count if need be; ``simulate_per_step_levels``
  runs single paths, such as the levels of a refinement ladder, as one
  batch, and ``simulate_per_step`` is a batch of one.
* ``picard_chunk``: the outer fixed-point iteration.  Each pass freezes
  the coefficients along the previous iterate, forms the driving path
  a_k = x + sum sigma(X_i) dW_i + sum b(X_i) dt by left-point sums, solves
  the running max/min system for a, and recombines X = a + alpha*M + beta*I.
  Step k couples only to steps before it, so the passes run window by
  window in time order (the windowed waveform relaxation of Lelarasmee,
  Ruehli & Sangiovanni-Vincentelli 1982).  It is the only implementation
  of the scheme and runs a block of paths at once, each stopping at its own
  tolerance in each window; ``simulate_picard`` is a batch of one.

Both start from X_0 = x/(1-alpha-beta): at time zero the maximum and minimum
both equal X_0, so the dynamics force that value.

Drivers are bit reproducible per seed on the counter-based Philox generator
(Salmon et al. 2011, "Parallel random numbers: as easy as 1, 2, 3").  A seed
below 2**64 is a master seed; path p of its ensemble has seed
``path_seed(master, p) = master | (p << 64)``.  A seed's stream has key
(purpose tag, master) and starts at counter (0, p, 0, 0): normals consume
only counter word 0, so every path owns 2**64 blocks and can be drawn on its
own, bit-identical to its row of any ensemble block.  Drivers and bridge
midpoints use different tags, so they never share draws.  ``run_ensemble``
is the one loop over the blocks of an ensemble.
"""

from __future__ import annotations

import enum
import math
import os
import threading
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from .errors import NoConvergenceError, SimulationAborted
from .models import CoefficientModel
from .params import PerturbationParams
from .skorokhod import DEFAULT_TOL, max_min_rows, no_convergence


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
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be finite and > 0, got {self.horizon}")
        if not math.isfinite(self.x0_seed_value):
            raise ValueError(f"x0_seed_value must be finite, got {self.x0_seed_value}")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.picard_outer_iters < 1:
            raise ValueError("picard_outer_iters must be >= 1")
        if not self.fixed_point_tol > 0.0:
            raise ValueError("fixed_point_tol must be > 0")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def describe(self) -> dict:
        return {**asdict(self), "scheme": self.scheme.value}


@dataclass(frozen=True)
class Path:
    """A sample path with its running extremes and the increments that drove it.

    ``dw`` is the path's own copy of the n driver increments its kernel
    consumed, the one source of the driver: the Brownian values ``w`` and
    the step ``dt`` are derived from the record.
    """

    grid: np.ndarray
    x: np.ndarray
    m: np.ndarray
    i: np.ndarray
    dw: np.ndarray

    @property
    def w(self) -> np.ndarray:
        """Brownian values on the grid, 0 and then the running sums of dw; a new array per read."""
        return np.concatenate(([0.0], np.cumsum(self.dw)))

    @property
    def dt(self) -> float:
        """The horizon grid[-1] over the step count: ``SimConfig.dt`` bit for bit."""
        return float(self.grid[-1] / len(self.dw))


def path_residual(path: Path, model: CoefficientModel, params: PerturbationParams) -> np.ndarray:
    """x[k+1]-x[k] - sigma(x[k])dW - b(x[k])dt - alpha*dm - beta*di per step.

    A tie step, whose fresh-extreme solve rounds onto its extreme e, leaves
    e - u for its candidate u: a few ulp at ordinary weights, but O(u - e)
    where alpha*dm cannot be represented (0.287 at alpha = -1e17).
    """
    return (
        np.diff(path.x)
        - np.asarray(model.sigma(path.x[:-1])) * path.dw
        - np.asarray(model.b(path.x[:-1])) * path.dt
        - params.alpha * np.diff(path.m)
        - params.beta * np.diff(path.i)
    )


_MASK64 = (1 << 64) - 1
_DRIVER_TAG = 0
_BRIDGE_TAG = 1
_BLOCK_BYTES = 1 << 20  # one block of normals stays in L2
_BLOCK_ROWS = 128
_PICARD_WINDOW = 200  # steps per causal window of picard_chunk, chosen by measurement
# steps of a refinement ladder's finest level, 1 048 576: at the cap, on 1
# step and 21 levels (tracemalloc, smooth-generic), the per-step levels
# peaked at 138 MB and a whole lamperti-check at 256 MB, so a ladder at the
# cap stays under 0.5 GB
MAX_LADDER_STEPS = 1 << 20
# drivers and trajectory values, 16 bytes a cell, of one simulate_per_step_levels
# batch: one batch of those 21 levels would hold 352 MB (peak 416 MB)
_LEVEL_BATCH_BYTES = 1 << 26


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
    drawn into a C-order block of at most _BLOCK_ROWS paths and _BLOCK_BYTES
    (128 rows at n = 1000), then scaled into ``out`` through transposed
    views, so a column-major ``out`` is written along its columns.
    """
    n_rows, n = out.shape
    gen = np.random.Generator(_philox(tag, seed))
    state = gen.bit_generator.state
    counter = state["state"]["counter"]
    first = seed >> 64
    rows = max(1, min(_BLOCK_ROWS, _BLOCK_BYTES // (8 * n)))
    block = np.empty((min(rows, n_rows), n))
    for start in range(0, n_rows, rows):
        part = block[: min(rows, n_rows - start)]
        for r, row in enumerate(part, start):
            counter[1] = first + r
            gen.bit_generator.state = state
            gen.standard_normal(out=row)
        np.multiply(part.T, scale, out=out[start : start + len(part)].T)
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


def path_drivers(cfg: SimConfig, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
    """Drivers of paths start <= p < stop of the ensemble on cfg.rng_seed.

    cfg.rng_seed must be a master seed, below 2**64 (ValueError otherwise):
    a per-path seed ``path_seed(s, p)`` has no ensemble of its own.  Row
    p - start is ``brownian_driver(cfg.n_steps, cfg.horizon,
    path_seed(cfg.rng_seed, p))``.  The drivers are written into ``out``,
    a (stop - start, n_steps) array, and returned; by default a new
    column-major (Fortran order) one, so the per-step kernel reads each
    step's column contiguously.  The values do not depend on the layout of
    ``out`` or on what it held.
    """
    if out is None:
        out = np.empty((stop - start, cfg.n_steps), order="F")
    return _normal_rows(_DRIVER_TAG, path_seed(cfg.rng_seed, start), out, math.sqrt(cfg.dt))


def refine_increments(increments: np.ndarray, horizon: float, seed: int) -> np.ndarray:
    """Split each increment in two by Brownian-bridge midpoints.

    The refined sequence drives the same Brownian path at twice the
    resolution; fresh midpoint noise comes from the bridge stream of seed,
    which shares no draws with any driver.  ValueError unless increments
    is a non-empty 1-d array.
    """
    increments = np.asarray(increments, dtype=float)
    if increments.ndim != 1 or not len(increments):
        raise ValueError(f"increments must be a non-empty 1-d array, got shape {increments.shape}")
    n = len(increments)
    dt = horizon / n
    z = _normal_rows(_BRIDGE_TAG, seed, np.empty((1, n)), 1.0)[0]
    first = 0.5 * increments + 0.5 * math.sqrt(dt) * z
    out = np.empty(2 * n)
    out[0::2] = first
    out[1::2] = increments - first
    return out


def check_ladder(n_steps: int, n_levels: int) -> None:
    """ValueError unless there is at least one level and n_levels halvings
    of n_steps steps end at most at :data:`MAX_LADDER_STEPS` steps,
    n_steps * 2**(n_levels - 1), read when called."""
    if n_levels < 1:
        raise ValueError(f"a ladder needs n_levels >= 1, got {n_levels}")
    # 2**(n_levels - 1) <= cap // n_steps, without forming the power of a huge n_levels
    if n_levels - 1 >= (MAX_LADDER_STEPS // n_steps).bit_length():
        raise ValueError(
            f"{n_levels} levels on {n_steps} steps pass MAX_LADDER_STEPS = {MAX_LADDER_STEPS} "
            f"steps at the finest level"
        )


def refinement_ladder(cfg: SimConfig, n_levels: int) -> list[tuple[SimConfig, np.ndarray]]:
    """(config, increments) of n_levels resolutions of one Brownian path.

    Level 0 is cfg's driver; level l > 0 halves every step of level l - 1 by
    bridge midpoints on seed ``path_seed(cfg.rng_seed, l)``, so cfg.rng_seed
    must be a master seed, below 2**64 (ValueError otherwise, even for one
    level).  To refine ensemble path p, pass its driver to
    ``refine_increments`` with seeds of your own choosing.  A ladder that
    ``check_ladder`` refuses raises its ValueError before anything is drawn.
    """
    if not 0 <= cfg.rng_seed <= _MASK64:
        raise ValueError(f"refinement_ladder needs a master seed below 2**64, got {cfg.rng_seed}")
    check_ladder(cfg.n_steps, n_levels)
    levels = [(cfg, brownian_driver(cfg.n_steps, cfg.horizon, cfg.rng_seed))]
    for level in range(1, n_levels):
        level_cfg, increments = levels[-1]
        levels.append(
            (
                replace(level_cfg, n_steps=2 * level_cfg.n_steps),
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


def _solve_fresh(x, extreme, weight, beyond):
    """Fresh-extreme solve x' = (u - weight*e)/(1-weight), in place.

    Runs only on the paths whose candidate u = x is beyond(u, e) of their
    running extreme e.  A solve that rounds back onto or inside e (u a few
    ulp past it at ordinary weights, or within |weight| ulp at a huge one)
    is a tie: the path stays at e, within a couple of ulp of the exact
    e + (u - e)/(1 - weight), and the extreme does not move.  A NaN solve
    (inf - inf where u overflowed) is not inside e, so it stays NaN for the
    non-finite check.  A zero weight only moves the extreme: (u - 0*e)/1 is
    u bit for bit unless u = -0.0, and a sum is -0.0 only if the previous
    value was, which lies inside the band, so u is never beyond.
    """
    if weight == 0.0:
        np.copyto(extreme, x, where=beyond(x, extreme))
        return
    p = beyond(x, extreme).nonzero()[0]
    if not len(p):
        return
    e = extreme[p]
    solved = (x[p] - weight * e) / (1.0 - weight)
    x[p] = extreme[p] = np.where(beyond(e, solved), e, solved)


def per_step_terminal_chunk(
    model: CoefficientModel,
    params: PerturbationParams,
    x0_seed_value: float,
    dt: float | np.ndarray,
    drivers: np.ndarray,
    trajectories: np.ndarray | None = None,
    n_steps: np.ndarray | None = None,
) -> tuple[np.ndarray, float, float]:
    """Per-step scheme over a (n_paths, n_steps) driver matrix.

    Each step forms the Euler candidate u = x + sigma(x) dW + b(x) dt on
    every path and divides only where u leaves the [i, m] band.  Drivers are
    read column by column, drivers[:, k] at step k, so a column-major matrix
    (as ``path_drivers`` builds) is read contiguously; results do not depend
    on the layout.  A constant coefficient (``model.constant_value``) enters
    as its scalar value.  The
    arithmetic of a path does not depend on the batch, so path p of a chunk
    is bit-identical to a batch of one on drivers[p].  Returns terminal
    values plus the realized value range (for a bounds spot-check), read off
    the final running extremes.

    ``dt`` is one step for every row or an array of one per row.  Rows may
    also differ in length: ``n_steps``, one count per row and non-increasing
    (longest row first), makes row p run drivers[p, :n_steps[p]] only, so
    the live rows are a prefix of the batch that shrinks as rows end.  Each
    row is still bit-identical to a batch of one on its own dt and steps,
    and its terminal value is the value at its own last step.  Without
    ``n_steps`` every row runs all drivers.shape[1] steps.

    With ``trajectories``, a caller-supplied (n_steps + 1, n_paths) array,
    row k receives the value at step k of every path live at step k; a
    row's entries past its own steps are not written.  A non-finite terminal
    value aborts with the lowest such path and its first non-finite step,
    read off the trajectory or, without one, off a replay of that path as a
    batch of one.
    """
    alpha, beta = params.alpha, params.beta
    x0 = x0_seed_value / (1.0 - alpha - beta)
    n_paths, width = drivers.shape
    x = np.full(n_paths, x0)
    m = x.copy()
    i_arr = x.copy()
    sigma_c, b_c = model.constant_value("sigma"), model.constant_value("b")
    if trajectories is not None:
        trajectories[0] = x
    counts = np.full(n_paths, width) if n_steps is None else np.asarray(n_steps)
    if counts.shape != (n_paths,) or np.any(counts[1:] > counts[:-1]) or np.any((counts < 0) | (counts > width)):
        raise ValueError(f"n_steps must be {n_paths} non-increasing counts of 0 to {width} steps")
    # (last step, live rows) of each stretch of steps on one live prefix, read
    # off the last row of each run of equal counts: no Python int per row
    stretches = [(int(counts[j]), j + 1) for j in np.flatnonzero(np.diff(counts, append=-1))[::-1].tolist()]
    start = 0
    for stop, live in stretches:
        xs, ms, is_, dws = x[:live], m[:live], i_arr[:live], drivers[:live]
        dts = dt[:live] if np.ndim(dt) else dt
        traj = None if trajectories is None else trajectories[:, :live]
        drift_c = None if b_c is None else b_c * dts
        for k in range(start, stop):
            noise = (np.asarray(model.sigma(xs)) if sigma_c is None else sigma_c) * dws[:, k]
            drift = np.asarray(model.b(xs)) * dts if drift_c is None else drift_c
            xs += noise
            xs += drift
            # a fresh maximum lands above the minimum, so the minimum solve sees
            # only unsolved candidates; ties (u == m or u == i) solve nothing
            _solve_fresh(xs, ms, alpha, np.greater)
            _solve_fresh(xs, is_, beta, np.less)
            if traj is not None:
                traj[k + 1] = xs
        start = stop
    # a non-finite value stays non-finite under the Euler step and the
    # fresh-extreme solve, so the terminal values name every failing path
    finite = np.isfinite(x)
    if not finite.all():
        path = int(np.argmin(finite))
        count = int(counts[path])
        if trajectories is None:
            # only terminal values were kept: replay the path as a batch of
            # one, bit-identical, with its trajectory for the step
            try:
                per_step_terminal_chunk(
                    model,
                    params,
                    x0_seed_value,
                    dt[path] if np.ndim(dt) else dt,
                    drivers[path : path + 1, :count],
                    np.empty((count + 1, 1)),
                )
            except SimulationAborted as replayed:
                step = replayed.step
        else:
            step = int(np.argmin(np.isfinite(trajectories[: count + 1, path])))
        raise SimulationAborted(f"non-finite path value on chunk path {path} at step {step}", step=step, path=path)
    return x, float(np.min(i_arr)), float(np.max(m))


def _path_increments(cfg: SimConfig, increments: np.ndarray | None) -> np.ndarray:
    """A single path's own copy of its driver: cfg.rng_seed's by default, else
    the given increments, which must be a 1-d array of cfg.n_steps values."""
    if increments is None:
        return brownian_driver(cfg.n_steps, cfg.horizon, cfg.rng_seed)
    dw = np.array(increments, dtype=float)
    if dw.shape != (cfg.n_steps,):
        raise ValueError(f"increments must have shape (n_steps,) = ({cfg.n_steps},), got {dw.shape}")
    return dw


def simulate_per_step_levels(
    model: CoefficientModel,
    params: PerturbationParams,
    levels: list[tuple[SimConfig, np.ndarray | None]],
) -> list[Path]:
    """Per-step paths of every (config, increments) level, as one kernel batch.

    The levels, at least one, share cfg.x0_seed_value bit for bit
    (ValueError otherwise) and may differ in step count, step and driver:
    a ``refinement_ladder`` is one.  Each level's increments are checked as
    for ``simulate_per_step``, before the kernel runs.  The levels run as
    rows of one ``per_step_terminal_chunk`` call, longest first with each
    its own dt and step count, so every Path is bit-identical to its level
    run alone; they come back in the given order, and each level's range is
    checked by its own ``check_bounds``, in that order.  A batch that fails
    (a SimulationAborted, or a NoConvergenceError or FloatingPointError of a
    coefficient such as the reduced drift's G^-1) raises the error of the
    first level, in the given order, that fails on its own.

    A batch holds (rows, longest + 1) drivers and trajectory values, so
    rows shorter than the longest waste the cells past their ends.  A
    level therefore joins the batch of the longer levels before it only
    while the batch stays within _LEVEL_BATCH_BYTES, and starts the next
    call otherwise: a ladder whose finest level has at most 2**17 steps
    runs as one call.
    """
    levels = [(cfg, _path_increments(cfg, increments)) for cfg, increments in levels]
    if len({float(cfg.x0_seed_value).hex() for cfg, _ in levels}) != 1:  # -0.0 is not 0.0
        raise ValueError("a batch needs at least one level, and its levels must share x0_seed_value")
    order = sorted(range(len(levels)), key=lambda level: -levels[level][0].n_steps)
    batches = [order[:1]]
    for level in order[1:]:
        if 16 * (len(batches[-1]) + 1) * (levels[batches[-1][0]][0].n_steps + 1) > _LEVEL_BATCH_BYTES:
            batches.append([])
        batches[-1].append(level)
    paths = [None] * len(levels)
    try:
        for batch in batches:
            counts = np.array([levels[level][0].n_steps for level in batch])
            drivers = np.zeros((len(batch), counts[0]), order="F")
            for row, level in enumerate(batch):
                drivers[row, : counts[row]] = levels[level][1]
            x = np.empty((counts[0] + 1, len(batch)))
            dts = np.array([levels[level][0].dt for level in batch])
            per_step_terminal_chunk(model, params, levels[0][0].x0_seed_value, dts, drivers, x, counts)
            for row, level in enumerate(batch):
                cfg, dw = levels[level]
                paths[level] = per_step_path(cfg, x[: cfg.n_steps + 1, row].copy(), dw)
    except (SimulationAborted, NoConvergenceError, FloatingPointError):
        if len(levels) == 1:
            raise
        # a row fails alone as in its batch, so the levels run alone in the
        # given order raise the first failing level's own error
        for level in levels:
            simulate_per_step(model, params, *level)
        raise
    for path in paths:
        # a path's m and i end at the kernel's running extremes, bit for bit
        model.check_bounds(float(path.i[-1]), float(path.m[-1]))
    return paths


def simulate_per_step(
    model: CoefficientModel,
    params: PerturbationParams,
    cfg: SimConfig,
    increments: np.ndarray | None = None,
) -> Path:
    """Per-step implicit Euler scheme: ``simulate_per_step_levels`` on one level.

    ``increments`` defaults to the driver of cfg.rng_seed; given, it must be
    cfg.n_steps values (ValueError otherwise, before the kernel runs).  m
    and i are the values at the earliest running argmax/argmin, as the
    kernel keeps them (np.maximum.accumulate may take the later of -0.0, 0.0).
    """
    return simulate_per_step_levels(model, params, [(cfg, increments)])[0]


def per_step_path(cfg: SimConfig, x: np.ndarray, dw: np.ndarray) -> Path:
    """The Path of per-step values x on cfg's grid, driven by dw: m and i are
    the values at the earliest running argmax/argmin, as the kernel keeps them."""
    return Path(grid=cfg.grid(), x=x, m=x[running_argmax(x)], i=x[running_argmin(x)], dw=dw)


def ensemble_block_rows(n_rows: int, row_bytes: int, budget: int) -> int:
    """Rows per block when n_rows paths of row_bytes each are cut into the
    fewest equal blocks of at most budget bytes (one row if a row exceeds it)."""
    n_blocks = -(-n_rows // max(1, budget // row_bytes))
    return -(-n_rows // n_blocks)


def run_ensemble(
    model: CoefficientModel,
    cfg: SimConfig,
    n_paths: int,
    kernel: Callable[[int, np.ndarray], tuple[np.ndarray, float, float]],
    row_bytes: int,
    budget: int,
) -> np.ndarray:
    """kernel's values of paths p < n_paths of the ensemble on cfg.rng_seed.

    Each block of ``ensemble_block_rows(n_paths, row_bytes, budget)`` paths
    draws its ``path_drivers`` into its thread's one reused buffer and runs
    kernel(first, drivers) -> (values, low, high of its realized range):
    row r of drivers is path first + r, and the values of the block's paths
    come in row order.  A kernel may run rows of its own past the block's
    paths, for values that are no ensemble path's; a failure on such a row
    must name no path (``path`` None).  Blocks run on PSDE_THREADS threads
    (default 1; the pool is imported only for more).  The lowest failing
    block's SimulationAborted or NoConvergenceError is raised, a block's row
    renumbered to its ensemble path p.  One ``check_bounds`` covers the
    range of every block.  A negative n_paths, or a PSDE_THREADS that is not
    an integer >= 1, raises ValueError before any draw.
    """
    if n_paths < 0:
        raise ValueError(f"n_paths must be >= 0, got {n_paths}")
    if not n_paths:
        return np.empty(0)
    rows = ensemble_block_rows(n_paths, row_bytes, budget)
    buffers = threading.local()

    def run_block(first: int):
        if not hasattr(buffers, "drivers"):
            buffers.drivers = np.empty((rows, cfg.n_steps), order="F")
        last = min(first + rows, n_paths)
        try:
            return kernel(first, path_drivers(cfg, first, last, buffers.drivers[: last - first]))
        except (SimulationAborted, NoConvergenceError) as err:
            err.renumber(first)
            raise

    starts = range(0, n_paths, rows)
    value = os.environ.get("PSDE_THREADS", "1")
    try:
        threads = int(value)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"PSDE_THREADS must be an integer >= 1, got {value!r}")
    if threads > 1 and len(starts) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_block, starts))
    else:
        results = [run_block(first) for first in starts]
    model.check_bounds(min(r[1] for r in results), max(r[2] for r in results))
    return np.concatenate([r[0] for r in results])


def picard_chunk(
    model: CoefficientModel,
    params: PerturbationParams,
    cfg: SimConfig,
    drivers: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outer fixed-point iteration over a (rows, n_steps) driver block, window by window.

    Row r is the path on drivers[r], and X_0 = M_0 = I_0 = x/(1-alpha-beta).
    Column k of the scheme depends only on columns < k, so the columns are
    found in time order, in windows (s, s+L] of L = ``_PICARD_WINDOW``
    steps.  With the columns up to s fixed, each pass of a window evaluates
    sigma and b as arrays (a constant coefficient too) along every live
    row's previous iterate of it, forms the driving path onward from a_s,
    and solves the window's max/min system in one ``max_min_rows`` call: the
    prefix extremes (1-alpha)*M_s and (beta-1)*I_s are its floors, and the
    previous pass's M its warm start (the first pass starts from M == M_s).
    A row whose change on the window falls to cfg.fixed_point_tol leaves it
    with those columns fixed, and cfg.picard_outer_iters caps the passes per
    window.  Every operation is
    row-wise, so row r is bit-identical to a batch of one on drivers[r].
    Returns the (rows, n_steps + 1) arrays x, m, i.

    A row that fails (non-finite driving path, max/min or outer iteration
    above tolerance) is dropped from the later windows; when every row is
    done, the failure of the lowest failing row is raised with ``path`` =
    that row.  A failed outer iteration carries its window's change history.
    """
    alpha, beta = params.alpha, params.beta
    rows, n = drivers.shape
    x = np.empty((rows, n + 1))
    x[:, 0] = cfg.x0_seed_value / (1.0 - alpha - beta)
    m, i = x.copy(), x.copy()
    a_end = np.full(rows, float(cfg.x0_seed_value))  # each row's a_s
    alive = np.ones(rows, dtype=bool)
    failures = {}
    for s in range(0, n, _PICARD_WINDOW):
        e = min(s + _PICARD_WINDOW, n)
        live = np.flatnonzero(alive)
        x_live = np.repeat(x[live, s : s + 1], e - s + 1, axis=1)  # column 0 is the fixed X_s
        m_live = np.repeat(m[live, s : s + 1], e - s, axis=1)
        inc_live = np.asarray(drivers[live, s:e], dtype=float)
        history = np.empty((cfg.picard_outer_iters, rows))
        for k in range(cfg.picard_outer_iters):
            sig, drift = np.asarray(model.sigma(x_live[:, :-1])), np.asarray(model.b(x_live[:, :-1]))
            a = np.cumsum(sig * inc_live + drift * cfg.dt, axis=1)
            a += a_end[live, None]
            # a cumulative sum stays non-finite, so the last column names every failing row
            ok = np.isfinite(a[:, -1])
            if not ok.all():
                for r in (~ok).nonzero()[0]:
                    step, path = s + 1 + int(np.argmin(np.isfinite(a[r]))), int(live[r])
                    failures[path] = SimulationAborted(
                        f"non-finite driving path on chunk path {path} in outer iteration at step {step}",
                        step=step,
                        path=path,
                    )
                live, x_live, m_live, inc_live, a = (v[ok] for v in (live, x_live, m_live, inc_live, a))
            floors = ((1.0 - alpha) * m[live, s], (beta - 1.0) * i[live, s])
            m_live, i_live, sweeps, sweep_history = max_min_rows(a, alpha, beta, m_init=m_live, floors=floors)
            stuck = sweeps == 0
            for r in stuck.nonzero()[0]:
                failures[int(live[r])] = no_convergence(sweep_history[:, r], DEFAULT_TOL, path=int(live[r]))
            x_next = a + alpha * m_live + beta * i_live
            change = np.maximum.reduce(np.abs(x_next - x_live[:, 1:]), axis=1)
            history[k, live] = change
            done = (change <= cfg.fixed_point_tol) & ~stuck
            fixed = live[done]
            x[fixed, s + 1 : e + 1], m[fixed, s + 1 : e + 1], i[fixed, s + 1 : e + 1] = (
                x_next[done], m_live[done], i_live[done]
            )
            a_end[fixed] = a[done, -1]
            left = ~(done | stuck)
            if not left.all():
                live, x_live, m_live, inc_live, x_next = (v[left] for v in (live, x_live, m_live, inc_live, x_next))
            if not len(live):
                break
            x_live[:, 1:] = x_next
        for path in live.tolist():
            failures[path] = NoConvergenceError(
                f"outer iteration on chunk path {path} above tol={cfg.fixed_point_tol} on steps {s + 1}..{e} "
                f"after {cfg.picard_outer_iters} passes (last change {history[-1, path]:.3e})",
                history[:, path].tolist(),
                path=path,
            )
        alive[list(failures)] = False
    if failures:
        raise failures[min(failures)]
    return x, m, i


def simulate_picard(
    model: CoefficientModel,
    params: PerturbationParams,
    cfg: SimConfig,
    increments: np.ndarray | None = None,
) -> Path:
    """Outer fixed-point iteration, window by window: the Picard kernel on a batch of one.

    ``increments`` is checked as for ``simulate_per_step``.
    cfg.picard_outer_iters caps the passes of each window; a failure is
    that of ``picard_chunk`` on the one row, with ``path`` = 0.
    """
    dw = _path_increments(cfg, increments)
    x, m, i = picard_chunk(model, params, cfg, dw[None, :])
    model.check_bounds(float(np.min(x)), float(np.max(x)))
    return Path(grid=cfg.grid(), x=x[0], m=m[0], i=i[0], dw=dw)


def simulate(
    model: CoefficientModel,
    params: PerturbationParams,
    cfg: SimConfig,
    increments: np.ndarray | None = None,
) -> Path:
    if cfg.scheme is Scheme.PER_STEP:
        return simulate_per_step(model, params, cfg, increments)
    return simulate_picard(model, params, cfg, increments)
