"""Ensembles of terminal values and statistical regularity checks.

The regularity theory is qualitative (absolute continuity, smooth density);
at desk scale it is operationalized as: no-atom mass scaling under shrinking
bins, Kolmogorov-Smirnov agreement with analytic laws in the solvable special
cases, and kernel density estimates.  The singly perturbed reference law
(beta = 0) is the closed form of the integral of the joint density of the
Brownian endpoint and running maximum along the line w + c*m = v with
c = alpha/(1-alpha).
"""

from __future__ import annotations

import enum
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtr

from .artifacts import fingerprint
from .errors import PathFailure
from .models import CoefficientModel
from .params import PerturbationParams
from .simulate import Scheme, SimConfig, path_drivers, per_step_terminal_chunk, simulate

KS_CRITICAL_1PCT = 1.63
KS_CRITICAL_5PCT = 1.36
LOW_POWER_N = 100
DEFAULT_CHUNK = 20_000


@dataclass(frozen=True)
class Ensemble:
    """Seeded collection of terminal values at a common time."""

    terminal_values: np.ndarray
    n_paths: int
    t: float
    config_fingerprint: str


class LawKind(enum.Enum):
    GAUSSIAN = "gaussian"
    SINGLY_PERTURBED_BM = "singly-perturbed-bm"


@dataclass(frozen=True)
class ReferenceLaw:
    kind: LawKind
    density: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[np.ndarray], np.ndarray]


def generate_ensemble(
    model: CoefficientModel,
    params: PerturbationParams,
    cfg: SimConfig,
    n_paths: int,
    chunk_size: int = DEFAULT_CHUNK,
    threads: int | None = None,
) -> Ensemble:
    """n_paths terminal values with deterministically split per-path seeds.

    Results are independent of chunking and thread scheduling: path p always
    uses the driver of seed ``path_seed(rng_seed, p)`` and the same
    arithmetic as a standalone per-step simulation.  Ensembles on different
    master seeds draw disjoint streams.  A ``PathFailure`` names the failing
    path by that index p, whichever chunk it ran in.
    """
    fp = fingerprint(
        {"model": model.describe(), "alpha": params.alpha, "beta": params.beta,
         "cfg": cfg.describe(), "n_paths": n_paths}
    )
    if n_paths == 0:
        return Ensemble(np.empty(0), 0, cfg.horizon, fp)
    if cfg.scheme is Scheme.PICARD:
        values = np.empty(n_paths)
        for p in range(n_paths):
            try:
                values[p] = simulate(model, params, cfg, path_drivers(cfg, p, p + 1)[0]).x[-1]
            except PathFailure as err:
                err.renumber(p)
                raise
        return Ensemble(values, n_paths, cfg.horizon, fp)

    starts = list(range(0, n_paths, chunk_size))

    def run_chunk(start: int):
        drivers = path_drivers(cfg, start, min(start + chunk_size, n_paths))
        try:
            return per_step_terminal_chunk(model, params, cfg.x0_seed_value, cfg.dt, drivers)
        except PathFailure as err:
            err.renumber(start)
            raise

    if threads is None:
        threads = int(os.environ.get("PSDE_THREADS", "1"))
    if threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_chunk, starts))
    else:
        results = [run_chunk(s) for s in starts]
    values = np.concatenate([r[0] for r in results])
    lo = min(r[1] for r in results)
    hi = max(r[2] for r in results)
    model.check_bounds(lo, hi)
    return Ensemble(values, n_paths, cfg.horizon, fp)


def reference_gaussian(mean: float, variance: float) -> ReferenceLaw:
    if variance <= 0.0:
        raise ValueError("variance must be > 0")
    sd = math.sqrt(variance)

    def density(v):
        v = np.asarray(v, dtype=float)
        return np.exp(-((v - mean) ** 2) / (2.0 * variance)) / (sd * math.sqrt(2.0 * math.pi))

    def cdf(v):
        v = np.asarray(v, dtype=float)
        return ndtr((v - mean) / sd)

    return ReferenceLaw(LawKind.GAUSSIAN, density, cdf)


def reference_singly_perturbed(alpha: float, t: float) -> ReferenceLaw:
    """Law of X_t = W_t + c * max_{s<=t} W_s with c = alpha/(1-alpha).

    By the reflection principle (W_t, max W_t) has density
    2(2m - w)/sqrt(2 pi t^3) exp(-(2m - w)^2/(2t)) on m >= max(w, 0).  Its
    integral along w + c*m = v is elementary: the density of X_t is
    2/((2+c) sqrt(2 pi t)) times exp(-v^2/(2t)) for v < 0 and
    exp(-v^2/(2t(1+c)^2)) for v >= 0, and the cdf follows with ndtr.
    """
    if not (alpha < 1.0):
        raise ValueError("alpha must be < 1")
    if t <= 0.0:
        raise ValueError("t must be > 0")
    c = alpha / (1.0 - alpha)
    sd = math.sqrt(t)
    weight = 2.0 / (2.0 + c)

    def density(v):
        v = np.asarray(v, dtype=float)
        scale = np.where(v < 0.0, sd, (1.0 + c) * sd)
        return weight / math.sqrt(2.0 * math.pi * t) * np.exp(-0.5 * (v / scale) ** 2)

    def cdf(v):
        v = np.asarray(v, dtype=float)
        return np.where(v < 0.0, weight * ndtr(v / sd), 1.0 - (1.0 + c) * weight * ndtr(-v / ((1.0 + c) * sd)))

    return ReferenceLaw(LawKind.SINGLY_PERTURBED_BM, density, cdf)


@dataclass(frozen=True)
class AtomScan:
    bin_width: float
    max_mass: float
    location: float
    n_bins: int


def atom_scan(e: Ensemble, bin_width: float) -> AtomScan:
    """Largest bin mass under a uniform binning of the given width.

    Absolute continuity predicts max mass shrinking proportionally with the
    bin width; an atom pins it away from zero.
    """
    if e.n_paths < 1:
        raise ValueError("atom scan needs a non-empty ensemble")
    if bin_width <= 0.0:
        raise ValueError("bin_width must be > 0")
    v = e.terminal_values
    lo = math.floor(float(np.min(v)) / bin_width) * bin_width
    hi = float(np.max(v))
    n_bins = max(1, int(math.ceil((hi - lo) / bin_width)) + 1)
    counts, edges = np.histogram(v, bins=n_bins, range=(lo, lo + n_bins * bin_width))
    top = int(np.argmax(counts))
    return AtomScan(
        bin_width=bin_width,
        max_mass=float(counts[top]) / e.n_paths,
        location=float(edges[top] + bin_width / 2.0),
        n_bins=n_bins,
    )


@dataclass(frozen=True)
class KdeResult:
    grid: np.ndarray
    density: np.ndarray
    bandwidth: float

    def integral(self) -> float:
        return float(np.trapezoid(self.density, self.grid))


def kde(
    e: Ensemble,
    bandwidth: float | str = "auto",
    grid: np.ndarray | None = None,
    n_grid: int = 512,
) -> KdeResult:
    """Gaussian-kernel density estimate.

    AUTO bandwidth is the normal-reference rule 1.06 * std * n^(-1/5).
    """
    if e.n_paths < 1:
        raise ValueError("kde needs a non-empty ensemble")
    v = e.terminal_values
    if bandwidth == "auto":
        bandwidth = 1.06 * float(np.std(v)) * e.n_paths ** (-0.2)
    bandwidth = float(bandwidth)
    if bandwidth <= 0.0:
        raise ValueError("bandwidth must be > 0")
    if grid is None:
        grid = np.linspace(float(np.min(v)) - 5.0 * bandwidth, float(np.max(v)) + 5.0 * bandwidth, n_grid)
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("kde grid is empty")
    out = np.zeros(grid.shape)
    norm = 1.0 / (e.n_paths * bandwidth * math.sqrt(2.0 * math.pi))
    for start in range(0, e.n_paths, DEFAULT_CHUNK):
        chunk = v[start : start + DEFAULT_CHUNK]
        z = (grid[:, None] - chunk[None, :]) / bandwidth
        out += np.exp(-0.5 * z * z).sum(axis=1)
    return KdeResult(grid=grid, density=out * norm, bandwidth=bandwidth)


@dataclass(frozen=True)
class KsResult:
    statistic: float
    n: int
    critical_1pct: float
    critical_5pct: float
    passes_1pct: bool
    passes_5pct: bool
    low_power: bool


def ks_test(e: Ensemble, law: ReferenceLaw) -> KsResult:
    """Two-sided Kolmogorov-Smirnov statistic against asymptotic criticals."""
    if e.n_paths < 1:
        raise ValueError("ks test needs a non-empty ensemble")
    v = np.sort(e.terminal_values)
    f = np.asarray(law.cdf(v), dtype=float)
    n = e.n_paths
    i = np.arange(1, n + 1)
    statistic = float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))
    c1 = KS_CRITICAL_1PCT / math.sqrt(n)
    c5 = KS_CRITICAL_5PCT / math.sqrt(n)
    return KsResult(
        statistic=statistic,
        n=n,
        critical_1pct=c1,
        critical_5pct=c5,
        passes_1pct=statistic < c1,
        passes_5pct=statistic < c5,
        low_power=n < LOW_POWER_N,
    )
