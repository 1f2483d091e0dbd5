"""Noise-reducing transform G and the pathwise reduction check.

G(y) = int_anchor^y du/sigma(u) is strictly increasing when inf sigma > 0, so
it commutes with running maxima and minima.  Ito's formula turns the
multiplicative-noise perturbed diffusion X into an additive-noise one for
Y = G(X), with unit diffusion and reduced drift

    b_tilde(z) = b(G^{-1}(z))/sigma(G^{-1}(z)) - sigma'(G^{-1}(z))/2.

G is tabulated by adaptive composite Simpson (the same rule extends it past
the table) and interpolated by the in-package PCHIP table
:class:`~psde.models.MonotoneCubic`; G^{-1} is Newton with G' = 1/sigma from
the inverted table, one iteration in Python floats applied point by point,
where the coefficient families evaluate a float as a float.
Anchoring G at X_0 makes the reduced identity seed-free: Y then solves the
additive equation with seed value 0 on the same Brownian driver.  The
pathwise check runs the levels of a refinement ladder as one batch of the
per-step kernel for X and one for Y, so each step of Y evaluates b_tilde
once, on every level still running.  Only the
inf sigma > 0 branch is implemented: a model with sup sigma < 0 raises
SigmaNotPositiveError, and nothing negates it here.  A caller may negate
sigma and the driver themselves, which gives the same law (-W is a Brownian
motion).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import NoConvergenceError, SigmaNotPositiveError
from .models import Coefficient, CoefficientModel, MonotoneCubic, constant, make_model, tabulated
from .params import PerturbationParams
from .simulate import SimConfig, refinement_ladder, simulate_per_step_levels

TABULATION_NODES = 4096
QUADRATURE_TOL = 1e-10
NEWTON_MAX_STEPS = 50
NEWTON_ULPS = 4
# the tabulation covers the pilot path's range padded by this many max|sigma| sqrt(T)
RANGE_PAD_STDS = 5.0


@dataclass(frozen=True)
class Transform:
    """Tabulated transform with inverse and reduced drift."""

    anchor: float
    nodes: np.ndarray
    g_nodes: np.ndarray
    _g: MonotoneCubic
    _g_inv: MonotoneCubic
    _model: CoefficientModel

    def g(self, y):
        """G(y): monotone interpolation of the table inside its range; outside,
        the nearer end value plus a Simpson integral of 1/sigma from that end."""
        y = np.asarray(y, dtype=float)
        flat = np.atleast_1d(y)
        out = self._g(flat)
        lo, hi = self.nodes[0], self.nodes[-1]
        outside = (flat < lo) | (flat > hi)
        yo = flat[outside]
        above = yo > hi
        ends = np.where(above, hi, lo)
        span = _simpson(self._model.sigma, np.minimum(yo, ends), np.maximum(yo, ends), QUADRATURE_TOL)
        out[outside] = np.where(above, self.g_nodes[-1] + span, self.g_nodes[0] - span)
        return float(out[0]) if y.ndim == 0 else out

    def g_inv(self, z):
        """G^{-1}(z), entry by entry: Newton steps y <- y - (G(y) - z) sigma(y)
        in Python floats from the inverted table's interpolant until a step is
        a few ulp; a step leaving the bracket that G's monotonicity gives
        bisects instead.  Non-finite z gives NaN; raises
        :class:`NoConvergenceError` at the step cap, and FloatingPointError
        at once where G or a Newton step is not finite (a bisection between
        finite ends is finite)."""
        return _pointwise(self._g_inv_point, z)

    def _g_inv_point(self, z: float) -> float:
        if not math.isfinite(z):
            return math.nan
        g_lo, g_hi = float(self.g_nodes[0]), float(self.g_nodes[-1])
        y_lo, y_hi = float(self.nodes[0]), float(self.nodes[-1])
        y = self._g_inv.at(min(max(z, g_lo), g_hi))
        lo, hi = -math.inf, math.inf
        # steps below a few ulp of y, or of G times G^-1' = sigma, are roundoff
        y_scale = max(abs(y_lo), abs(y_hi))
        z_ulp = math.ulp(max(abs(z), max(abs(g_lo), abs(g_hi))))
        history = []
        while True:
            if len(history) == NEWTON_MAX_STEPS:
                raise NoConvergenceError(
                    f"G^-1 Newton iteration at z = {z!r} above a few ulp after "
                    f"{NEWTON_MAX_STEPS} steps (last step {history[-1]:.3e})",
                    history,
                )
            sig = float(self._model.sigma(y))
            g = self._g.at(y) if y_lo <= y <= y_hi else self.g(y)
            resid = g - z
            new = y - resid * sig
            if not math.isfinite(new):
                raise FloatingPointError(
                    f"G^-1 Newton step at z = {z!r} is not finite: the transform G({y!r}) = {g!r}, "
                    f"sigma = {sig!r}"
                )
            if resid > 0.0:
                hi = y
            else:
                lo = y
            if not lo <= new <= hi:
                new = 0.5 * (lo + hi)
            step = y - new
            history.append(abs(step))
            floor = NEWTON_ULPS * (math.ulp(max(abs(y), y_scale)) + sig * z_ulp)
            y = new
            if abs(step) <= floor:
                return y

    def b_tilde(self, z):
        """Reduced drift b(G^-1)/sigma(G^-1) - sigma'(G^-1)/2, composed exactly
        through the inverse (not through the tabulated interpolant)."""
        return _pointwise(lambda v: float(_reduced_drift(self._model, self._g_inv_point(v))), z)

    def reduced_drift_coefficient(self) -> Coefficient:
        """b_tilde packaged as a registry coefficient for the additive model.

        The derivative and the bound constants are those of the monotone
        tabulation of b_tilde on the nodes' images (:func:`tabulated`); the
        derivative only feeds the declared-bound spot check."""
        table = tabulated(self.g_nodes, _reduced_drift(self._model, self.nodes))
        return replace(table, f=self.b_tilde, spec={"kind": "reduced-drift"})


def _pointwise(f, z):
    # f on every entry of z: a float for 0-d z, else an array of z's shape
    z = np.asarray(z, dtype=float)
    if z.ndim == 0:
        return f(z.item())
    return np.fromiter(map(f, z.ravel().tolist()), dtype=float, count=z.size).reshape(z.shape)


def _reduced_drift(model: CoefficientModel, y):
    # coefficients return arrays or numpy scalars, so the division is numpy's
    return model.b(y) / model.sigma(y) - 0.5 * model.sigma_prime(y)


def _panel_integrals(sigma, lefts: np.ndarray, rights: np.ndarray, panels: int) -> np.ndarray:
    # composite Simpson for the integral of 1/sigma, `panels` panels on every interval at once
    widths = rights - lefts
    h = widths / panels
    offsets = np.arange(panels + 1)
    xs = lefts[:, None] + h[:, None] * offsets[None, :]
    fx = 1.0 / np.asarray(sigma(xs), dtype=float)
    weights = np.ones(panels + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return (fx * weights[None, :]).sum(axis=1) * h / 3.0


def _simpson(sigma, lefts: np.ndarray, rights: np.ndarray, tol: float) -> np.ndarray:
    """Integral of 1/sigma over each [lefts[i], rights[i]] by composite Simpson,
    each interval doubling its panels (16 to 1024) until two successive
    halvings agree to ``tol``; no interval's value depends on the others."""
    out = np.empty(len(lefts))
    todo = np.arange(len(lefts))
    panels = 8
    coarse = _panel_integrals(sigma, lefts, rights, panels)
    while todo.size:
        fine = _panel_integrals(sigma, lefts[todo], rights[todo], 2 * panels)
        done = (np.abs(fine - coarse) / 15.0 <= tol) | (panels >= 512)
        out[todo[done]] = fine[done]
        todo, coarse, panels = todo[~done], fine[~done], 2 * panels
    return out


def build_transform(
    model: CoefficientModel,
    x: float,
    lo: float,
    hi: float,
) -> Transform:
    """Tabulate G on [lo, hi] anchored at x (so G(x) = 0), on TABULATION_NODES
    grid nodes plus the anchor.

    Per-interval adaptive composite Simpson, each interval refined until
    successive halvings agree to QUADRATURE_TOL / (number of intervals), so
    the whole tabulation is within QUADRATURE_TOL.  Raises
    :class:`SigmaNotPositiveError` if sigma samples non-positive.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    if not lo <= x <= hi:
        raise ValueError(f"anchor x={x} outside tabulation range [{lo}, {hi}]")
    grid = np.linspace(lo, hi, TABULATION_NODES)
    # a grid node within roundoff of the anchor would leave G flat between the two
    grid = grid[np.abs(grid - x) > 1e-9 * (hi - lo)]
    # the grid is sorted, so this is np.unique of grid and anchor (a range of a
    # few ulp repeats grid values) without np.unique's import of numpy.ma
    nodes = np.insert(grid, np.searchsorted(grid, x), float(x))
    nodes = nodes[np.insert(nodes[1:] != nodes[:-1], 0, True)]
    sig_samples = np.asarray(model.sigma(nodes), dtype=float)
    if np.any(sig_samples <= 0.0):
        bad = float(nodes[np.argmin(sig_samples)])
        raise SigmaNotPositiveError(
            f"sigma({bad}) = {float(np.min(sig_samples))} <= 0 on tabulation range"
        )

    pieces = _simpson(model.sigma, nodes[:-1], nodes[1:], QUADRATURE_TOL / (len(nodes) - 1))
    cumulative = np.concatenate(([0.0], np.cumsum(pieces)))
    anchor_pos = int(np.searchsorted(nodes, float(x)))
    g_nodes = cumulative - cumulative[anchor_pos]
    return Transform(
        anchor=float(x),
        nodes=nodes,
        g_nodes=g_nodes,
        _g=MonotoneCubic(nodes, g_nodes),
        _g_inv=MonotoneCubic(g_nodes, nodes),
        _model=model,
    )


@dataclass(frozen=True)
class ReductionLevel:
    n_steps: int
    dt: float
    sup_discrepancy: float


@dataclass(frozen=True)
class ReductionReport:
    """Sup-norm gap between G(X) and the additive-noise path Y per resolution,
    with the transform the check built (of which :meth:`to_dict` keeps the anchor)."""

    levels: tuple
    commutation_exact: bool
    transform: Transform = field(repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "levels": [asdict(level) for level in self.levels],
            "commutation_exact": self.commutation_exact,
            "anchor": self.transform.anchor,
        }


def pathwise_reduction_check(
    model: CoefficientModel,
    params: PerturbationParams,
    cfg: SimConfig,
    n_refinements: int = 3,
) -> ReductionReport:
    """Check G(X) against the additive-noise simulation on shared drivers.

    The levels reuse one Brownian path through bridge splitting
    (:func:`refinement_ladder`, whose ValueError refuses n_refinements < 1).
    The X levels run as one batch of the per-step kernel and the Y levels
    of the reduced additive model as another (:func:`simulate_per_step_levels`).
    The tabulation range is X's level 0, the pilot path, padded by
    RANGE_PAD_STDS * max|sigma| * sqrt(T); a range whose width is not
    finite raises FloatingPointError.  The transform is anchored at the
    pilot's start X_0.
    """
    ladder = refinement_ladder(cfg, n_refinements)
    x_paths = simulate_per_step_levels(model, params, ladder)
    pilot = x_paths[0]
    sig_max = float(np.max(np.abs(np.asarray(model.sigma(pilot.x)))))
    pad = RANGE_PAD_STDS * sig_max * math.sqrt(cfg.horizon)
    lo = float(np.min(pilot.x)) - pad
    hi = float(np.max(pilot.x)) + pad
    if not math.isfinite(hi - lo):
        raise FloatingPointError(
            f"the pilot path's range padded by RANGE_PAD_STDS max|sigma| sqrt(T) = {pad!r} is "
            f"[{lo!r}, {hi!r}], a tabulation range that is not finite"
        )
    x0 = float(pilot.x[0])
    transform = build_transform(model, x0, min(lo, x0), max(hi, x0))
    additive = make_model(transform.reduced_drift_coefficient(), constant(1.0), name=f"{model.name}-reduced")
    y_paths = simulate_per_step_levels(
        additive, params, [(replace(level_cfg, x0_seed_value=0.0), level_inc) for level_cfg, level_inc in ladder]
    )
    levels = []
    commutation = True
    for (level_cfg, _), x_path, y_path in zip(ladder, x_paths, y_paths):
        gx = transform.g(x_path.x)
        gap = float(np.max(np.abs(gx - y_path.x)))
        commutation = commutation and (
            float(np.max(gx)) == float(transform.g(float(np.max(x_path.x))))
            and float(np.min(gx)) == float(transform.g(float(np.min(x_path.x))))
        )
        levels.append(
            ReductionLevel(n_steps=level_cfg.n_steps, dt=level_cfg.dt, sup_discrepancy=gap)
        )
    return ReductionReport(
        levels=tuple(levels), commutation_exact=commutation, transform=transform
    )
