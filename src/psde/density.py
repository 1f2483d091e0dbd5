"""Ensembles of terminal values and statistical regularity checks.

Ensembles run a scheme's kernel through the block runner ``run_ensemble``
of :mod:`psde.simulate`, so their values do not depend on blocks or threads.
The regularity theory is qualitative (absolute continuity, smooth density);
at desk scale it is operationalized as: no-atom mass scaling under shrinking
bins, Kolmogorov-Smirnov agreement with analytic laws in the solvable special
cases, and kernel density estimates.  The estimate is the one-shot
Gaussian-kernel sum bit for bit; it sorts each chunk once, skips the kernel
values that exp returns as exactly 0, and sums the rest in the values' order
(see ``kde``).  The singly perturbed reference law (beta = 0) is the closed
form of the integral of the joint density of the Brownian endpoint and
running maximum along the line w + c*m = v with c = alpha/(1-alpha).  That
law is C^1 but not C^2 at X_0 for every alpha != 0: (log p)'' jumps there
from -1/t to -(1-alpha)^2/t.  Yet b = 0, so the smooth-density horizon t0 of
:mod:`psde.params` is unbounded for alpha^2 below its threshold: t0 is the
paper's constant, which the lab reports, not a horizon it measures.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .models import CoefficientModel
from .params import PerturbationParams
from .simulate import _PICARD_WINDOW, Scheme, SimConfig, per_step_terminal_chunk, picard_chunk, run_ensemble

KDE_GRID_POINTS = 512
KS_CRITICAL_1PCT = 1.63
KS_CRITICAL_5PCT = 1.36
LOW_POWER_N = 100
DEFAULT_CHUNK = 20_000  # kde sums values in chunks of this many, which fixes the order of its sums
_DRIVER_BLOCK_BYTES = 80 << 20  # one thread's per-step drivers; 64 MB blocks ran sigma(x) models slower
_PICARD_BLOCK_BYTES = 1 << 18  # one (rows, L+1) window of a Picard iterate stays in L2
_KDE_BLOCK_BYTES = 1 << 19  # one block of kernel values stays in L2
# numpy's exp returns exactly +0.0 below -745.1332 (half the least subnormal,
# 2**-1075, rounds to 0); a lane with |z| >= 38.7 has (-0.5 z) z <= -748.8
_ZERO_REACH = 38.7
_SQRT1_2 = math.sqrt(0.5)
# bins of one atom scan, 4 194 304: np.histogram peaked at ~33 bytes per bin
# (tracemalloc, 1M and 4M bins), so a scan at the cap stays near 140 MB
MAX_ATOM_BINS = 1 << 22


@dataclass(frozen=True)
class Ensemble:
    """Seeded collection of terminal values at a common time; n_paths is their count."""

    terminal_values: np.ndarray

    @property
    def n_paths(self) -> int:
        return len(self.terminal_values)


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
) -> Ensemble:
    """n_paths terminal values with deterministically split per-path seeds.

    Path p always uses the driver of seed ``path_seed(rng_seed, p)`` and the
    same arithmetic as a standalone simulation of its scheme, whatever the
    blocks and threads of ``run_ensemble``.  Its blocks hold at most 80 MB of
    per-step drivers (5 x 10 000 rows for 50 000 paths at n_steps = 1000) or
    256 KB of one window of a Picard iterate (4 x 125 rows for 500 paths).
    A ``PathFailure`` or Picard ``NoConvergenceError`` names the failing
    path by its index p.
    """
    if cfg.scheme is Scheme.PER_STEP:

        def kernel(first, drivers):
            return per_step_terminal_chunk(model, params, cfg.x0_seed_value, cfg.dt, drivers)

        row_bytes, budget = 8 * cfg.n_steps, _DRIVER_BLOCK_BYTES
    else:

        def kernel(first, drivers):
            x = picard_chunk(model, params, cfg, drivers)[0]
            return x[:, -1].copy(), float(np.min(x)), float(np.max(x))

        row_bytes, budget = 8 * (min(cfg.n_steps, _PICARD_WINDOW) + 1), _PICARD_BLOCK_BYTES
    values = run_ensemble(model, cfg, n_paths, kernel, row_bytes, budget)
    return Ensemble(values)


def _ndtr(a) -> np.ndarray:
    """Standard normal cdf, elementwise, on math.erf and math.erfc.

    Cephes' ndtr branches on x = a/sqrt2: 0.5 + 0.5 erf(x) where |x| <
    1/sqrt2, else 0.5 erfc(|x|), reflected for x > 0, so neither tail loses
    its relative accuracy.  It is not scipy.special.ndtr bit for bit (the erf
    implementations differ); the two agree to about 2.2e-16 on [-40, 40].
    NaN gives NaN, -inf 0 and inf 1.
    """
    x = np.asarray(a, dtype=float) * _SQRT1_2
    y = np.array(
        [0.5 + 0.5 * math.erf(t) if abs(t) < _SQRT1_2 else 0.5 * math.erfc(abs(t)) for t in x.ravel().tolist()]
    ).reshape(x.shape)
    return np.where(x >= _SQRT1_2, 1.0 - y, y)


def reference_gaussian(mean: float, variance: float) -> ReferenceLaw:
    """N(mean, variance), its cdf by ``_ndtr``."""
    if not variance > 0.0:
        raise ValueError("variance must be > 0")
    sd = math.sqrt(variance)

    def density(v):
        v = np.asarray(v, dtype=float)
        return np.exp(-((v - mean) ** 2) / (2.0 * variance)) / (sd * math.sqrt(2.0 * math.pi))

    def cdf(v):
        v = np.asarray(v, dtype=float)
        return _ndtr((v - mean) / sd)

    return ReferenceLaw(LawKind.GAUSSIAN, density, cdf)


def reference_singly_perturbed(alpha: float, t: float) -> ReferenceLaw:
    """Law of X_t = W_t + c * max_{s<=t} W_s with c = alpha/(1-alpha).

    By the reflection principle (W_t, max W_t) has density
    2(2m - w)/sqrt(2 pi t^3) exp(-(2m - w)^2/(2t)) on m >= max(w, 0).  Its
    integral along w + c*m = v is elementary: the density of X_t is
    2/((2+c) sqrt(2 pi t)) times exp(-v^2/(2t)) for v < 0 and
    exp(-v^2/(2t(1+c)^2)) for v >= 0, and the cdf follows with ``_ndtr``.
    """
    if not (alpha < 1.0):
        raise ValueError("alpha must be < 1")
    if not t > 0.0:
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
        below = v < 0.0
        p = _ndtr(np.where(below, v / sd, -v / ((1.0 + c) * sd)))  # one tail per point
        return np.where(below, weight * p, 1.0 - (1.0 + c) * weight * p)

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
    bin width; an atom pins it away from zero.  Raises ValueError, before
    histogramming, when the width needs more than :data:`MAX_ATOM_BINS` bins
    (read when called) to cover the values, or is so fine that the index of
    the values' first bin is not a finite float.  The width is taken as a
    float: an int one would make the bin edges Python ints, which numpy
    cannot histogram beyond 2**64.
    """
    if e.n_paths < 1:
        raise ValueError("atom scan needs a non-empty ensemble")
    bin_width = float(bin_width)
    if not bin_width > 0.0:
        raise ValueError("bin_width must be > 0")
    v = e.terminal_values
    first = float(np.min(v)) / bin_width
    if not math.isfinite(first):  # math.floor would overflow
        raise ValueError(f"bin width {bin_width!r} is too fine: the values' bin index overflows")
    lo = math.floor(first) * bin_width
    hi = float(np.max(v))
    span = (hi - lo) / bin_width  # inf on overflow, which the test below refuses as well
    if not span <= MAX_ATOM_BINS - 1:
        raise ValueError(f"bin width {bin_width!r} needs more than MAX_ATOM_BINS = {MAX_ATOM_BINS} bins")
    n_bins = max(1, int(math.ceil(span)) + 1)
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


def _exponents(g, values, bandwidth, z_buf, t_buf) -> np.ndarray:
    """(-0.5 * z) * z with z = (g - values) / bandwidth, a row per grid point, in t_buf."""
    z = z_buf[: g.size * values.size].reshape(g.size, values.size)
    t = t_buf[: z.size].reshape(z.shape)
    np.subtract(g[:, None], values, out=z)
    z /= bandwidth
    np.multiply(z, -0.5, out=t)
    t *= z
    return t


def kde(e: Ensemble, bandwidth: float | str = "auto") -> KdeResult:
    """Gaussian-kernel density estimate on KDE_GRID_POINTS grid points.

    AUTO bandwidth is the normal-reference rule 1.06 * std * n^(-1/5); it
    raises FloatingPointError where it is not finite (the std overflows),
    and ValueError where it is 0 (values without spread).  A given bandwidth
    must be finite and > 0 (ValueError).  The grid spans the values padded
    by five bandwidths on each side.  FloatingPointError where that span is
    not finite, or else the normaliser 1/(n * bandwidth * sqrt(2 pi)) not
    finite and > 0 (inf at a subnormal bandwidth), before any kernel value.
    Values are summed in chunks of DEFAULT_CHUNK; within a chunk, blocks of
    grid rows are evaluated in two reused buffers of _KDE_BLOCK_BYTES each
    (they stay in L2), so no temporary grows with the grid.  Each grid point
    sums exp((-0.5 * z) * z) over the same contiguous chunk as a one-shot
    (grid, chunk) evaluation would, so the estimate is the same bit for bit.
    Each chunk is sorted once, and searchsorted finds each grid row's range
    of values nearer than _ZERO_REACH bandwidths, past which exp gives
    exactly +0.0.  A block whose every row's near range is the whole chunk
    runs in the chunk's order; any other in sorted order: far lanes are 0.0
    without evaluation, exp runs on each row's contiguous near range, and
    the inverse sort (np.take) puts the row back in order before its sum.
    Each lane holds the bits a one-shot evaluation gives it (exp is
    lane-independent), and each sum adds them in the same order, so numpy's
    pairwise summation gives the same bits.  Lanes whose z or z * z overflow
    to inf (a tiny bandwidth) have exp(-inf) = 0, and raise no warning.
    """
    if e.n_paths < 1:
        raise ValueError("kde needs a non-empty ensemble")
    v = e.terminal_values
    if bandwidth == "auto":
        bandwidth = 1.06 * float(np.std(v)) * e.n_paths ** (-0.2)
        if not math.isfinite(bandwidth):
            raise FloatingPointError(f"auto bandwidth {bandwidth} is not finite: the values' std overflows")
    bandwidth = float(bandwidth)
    if not 0.0 < bandwidth < math.inf:
        raise ValueError(f"bandwidth must be finite and > 0, got {bandwidth}")
    lo, hi = float(np.min(v)) - 5.0 * bandwidth, float(np.max(v)) + 5.0 * bandwidth
    if not math.isfinite(hi - lo):
        raise FloatingPointError(
            f"KDE grid [{lo!r}, {hi!r}], the values padded by five bandwidths of {bandwidth!r}, is not finite"
        )
    grid = np.linspace(lo, hi, KDE_GRID_POINTS)
    out = np.zeros(grid.shape)
    part = np.empty(grid.shape)
    width = min(DEFAULT_CHUNK, e.n_paths)
    rows = max(1, _KDE_BLOCK_BYTES // (8 * width))
    z_buf = np.empty(rows * width)
    t_buf = np.empty_like(z_buf)
    norm = 1.0 / (e.n_paths * bandwidth * math.sqrt(2.0 * math.pi))
    if not 0.0 < norm < math.inf:
        raise FloatingPointError(f"KDE normaliser 1/(n * bandwidth * sqrt(2 pi)) = {norm!r} is not finite and > 0")
    # rounded up, so a value farther than reach from g in floats is farther
    # than _ZERO_REACH bandwidths from it exactly, and its |z| >= _ZERO_REACH
    reach = math.nextafter(_ZERO_REACH * bandwidth, math.inf)
    with np.errstate(over="ignore"):
        for start in range(0, e.n_paths, DEFAULT_CHUNK):
            chunk = v[start : start + DEFAULT_CHUNK]
            order = np.argsort(chunk)
            ordered = chunk[order]
            unsort = np.empty_like(order)
            unsort[order] = np.arange(chunk.size)
            # row i's values outside ordered[near_lo[i]:near_hi[i]] lie past the reach
            near_lo = np.searchsorted(ordered, grid - reach, "left").tolist()
            near_hi = np.searchsorted(ordered, grid + reach, "right").tolist()
            for first in range(0, grid.size, rows):
                g = grid[first : first + rows]
                if near_lo[first + g.size - 1] == 0 and near_hi[first] == chunk.size:
                    t = _exponents(g, chunk, bandwidth, z_buf, t_buf)
                    np.exp(t, out=t)
                else:
                    a0, b1 = near_lo[first], near_hi[first + g.size - 1]
                    t = _exponents(g, ordered[a0:b1], bandwidth, z_buf, t_buf)
                    kernel = z_buf[: g.size * chunk.size].reshape(g.size, chunk.size)
                    for i in range(g.size):
                        a, b = near_lo[first + i], near_hi[first + i]
                        kernel[i, :a] = 0.0
                        np.exp(t[i, a - a0 : b - a0], out=kernel[i, a:b])
                        kernel[i, b:] = 0.0
                    t = np.take(kernel, unsort, axis=1, out=t_buf[: kernel.size].reshape(kernel.shape))
                np.sum(t, axis=1, out=part[first : first + g.size])
            out += part
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
