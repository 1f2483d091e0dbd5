"""Coefficient models: drift b and diffusion sigma with declared bounds.

Coefficients come from a small registry of named analytic families (constant,
affine-clipped, sinusoidal, logistic) plus tabulated functions with monotone
interpolation (:class:`MonotoneCubic`).  Each family supplies exact derivative
functions and its bound constants, so the declared bounds are verifiable
rather than guessed.  A coefficient takes an array or a float.  For a float
the families built from arithmetic and ufuncs (constant, affine-clipped,
sinusoidal, logistic) return a numpy scalar with the bits of their value
on the 0-d array, so dividing by it keeps numpy's inf and NaN semantics,
and they compute it without wrapping the float in an array (``_operand``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

BOUND_CHECK_POINTS = 10_000
_BOUND_SLACK = 1e-9


class MonotoneCubic:
    """Monotone piecewise cubic Hermite table (PCHIP; Fritsch & Carlson 1980).

    Interior node slopes are the weighted harmonic mean of the neighbouring
    secants (zero where they change sign or vanish), end slopes Moler's
    one-sided three-point formula, and a two-point table is linear.  Both end
    cubics extend past the nodes.  Slopes, coefficients and evaluation follow
    scipy's ``PchipInterpolator`` operation for operation, so the values agree
    with it bit for bit.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        h = np.diff(x)
        m = np.diff(y) / h
        d = np.full(len(x), m[0])
        if len(x) > 2:
            w1 = 2 * h[1:] + h[:-1]
            w2 = h[1:] + 2 * h[:-1]
            sm = np.sign(m)
            flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
            d[0] = _end_slope(h[0], h[1], m[0], m[1])
            d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2 * m) / h
        self._set(x, np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1])))

    def _set(self, x: np.ndarray, c: np.ndarray) -> None:
        # c[k, i] multiplies (v - x[i])**(degree - k) on interval i
        self.x, self.c = x, c
        self._xs = x.tolist()
        self._rows = c[::-1].T.tolist()

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        i = np.clip(np.searchsorted(self.x, v, side="right") - 1, 0, len(self.x) - 2)
        s = v - self.x[i]
        c = self.c[:, i]
        # a power sum with a running power of s, not Horner, as scipy evaluates
        # it; inf - inf past the ends gives NaN there silently, as in scipy
        out, z = 0.0 + c[-1], 1.0
        with np.errstate(invalid="ignore", over="ignore"):
            for coef in c[-2::-1]:
                z = z * s
                out = out + coef * z
        return out

    def at(self, v: float) -> float:
        """The table at one Python float, with the arithmetic of ``__call__``."""
        i = min(max(bisect_right(self._xs, v) - 1, 0), len(self._xs) - 2)
        s = v - self._xs[i]
        row = self._rows[i]
        out, z = 0.0 + row[0], 1.0
        for coef in row[1:]:
            z *= s
            out += coef * z
        return out

    def derivative(self) -> "MonotoneCubic":
        """The piecewise quadratic derivative on the same intervals."""
        table = MonotoneCubic.__new__(MonotoneCubic)
        table._set(self.x, self.c[:-1] * np.array([3.0, 2.0, 1.0])[:, None])
        return table


def _end_slope(h0, h1, m0, m1):
    # one-sided three-point slope, kept to the secant's sign and within 3 secants
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


@dataclass(frozen=True)
class Coefficient:
    """A scalar coefficient function with derivative and bound constants."""

    f: Callable[[np.ndarray], np.ndarray]
    f_prime: Callable[[np.ndarray], np.ndarray]
    prime_sup: float
    inf_abs: float
    spec: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CoefficientModel:
    """Drift/diffusion pair for the perturbed diffusion.

    The bound fields are declarations; :meth:`check_bounds` spot-checks them
    on a uniform grid over the simulation range.
    """

    b: Callable[[np.ndarray], np.ndarray]
    sigma: Callable[[np.ndarray], np.ndarray]
    b_prime: Callable[[np.ndarray], np.ndarray]
    sigma_prime: Callable[[np.ndarray], np.ndarray]
    b_prime_sup: float
    sigma_prime_sup: float
    sigma_inf: float
    name: str = "custom"
    spec: dict = field(default_factory=dict)

    def check_bounds(self, lo: float, hi: float) -> None:
        """Verify |b'| <= b_prime_sup, |sigma'| <= sigma_prime_sup and
        |sigma| >= sigma_inf on a uniform grid of BOUND_CHECK_POINTS points
        over [lo, hi]."""
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("bound-check range must be finite")
        grid = np.linspace(lo, hi, BOUND_CHECK_POINTS)
        bp = np.max(np.abs(np.asarray(self.b_prime(grid), dtype=float)))
        sp = np.max(np.abs(np.asarray(self.sigma_prime(grid), dtype=float)))
        si = np.min(np.abs(np.asarray(self.sigma(grid), dtype=float)))
        tol = _BOUND_SLACK
        if bp > self.b_prime_sup + tol:
            raise ValueError(
                f"model {self.name!r}: |b'| reaches {bp} > declared {self.b_prime_sup}"
            )
        if sp > self.sigma_prime_sup + tol:
            raise ValueError(
                f"model {self.name!r}: |sigma'| reaches {sp} > declared {self.sigma_prime_sup}"
            )
        if si < self.sigma_inf - tol:
            raise ValueError(
                f"model {self.name!r}: |sigma| falls to {si} < declared {self.sigma_inf}"
            )

    def constant_value(self, name: str) -> float | None:
        """The value of coefficient ``name`` ("b" or "sigma") if its spec is
        kind ``constant``, else None.  The per-step kernel multiplies by it in
        place of the array ``constant`` returns; the products are the same bit
        for bit."""
        spec = self.spec.get(name, {})
        return spec["value"] if spec.get("kind") == "constant" else None

    def describe(self) -> dict:
        """JSON-serializable description used in artifact fingerprints.

        ``lipschitz_k`` is the larger derivative bound, the Lipschitz
        constant of a coefficient pair with bounded derivatives.
        """
        return {
            "name": self.name,
            "spec": self.spec,
            "lipschitz_k": max(self.b_prime_sup, self.sigma_prime_sup),
            "b_prime_sup": self.b_prime_sup,
            "sigma_prime_sup": self.sigma_prime_sup,
            "sigma_inf": self.sigma_inf,
        }


def _operand(x):
    """x itself if it is a float (a Python float or a numpy float64), else x
    as a float array: the same operations on a float give the bits they give
    on its 0-d array, without the array's per-call cost."""
    return x if isinstance(x, float) else np.asarray(x, dtype=float)


def constant(value: float) -> Coefficient:
    value = float(value)

    # [()] makes the 0-d result of a float a numpy scalar and leaves an array as it is
    def f(x):
        return np.full(np.shape(x), value)[()]

    def f_prime(x):
        return np.zeros(np.shape(x))[()]

    return Coefficient(f, f_prime, 0.0, abs(value), {"kind": "constant", "value": value})


def affine_clipped(slope: float, intercept: float, lo: float, hi: float) -> Coefficient:
    """f(x) = clip(slope*x + intercept, lo, hi): Lipschitz with bounded range."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    slope, intercept = float(slope), float(intercept)

    def f(x):
        return np.clip(slope * _operand(x) + intercept, lo, hi)

    def f_prime(x):
        raw = slope * _operand(x) + intercept
        return slope * np.logical_and(raw > lo, raw < hi)

    inf_abs = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))
    return Coefficient(
        f,
        f_prime,
        abs(slope),
        inf_abs,
        {"kind": "affine_clipped", "slope": slope, "intercept": intercept, "lo": lo, "hi": hi},
    )


def sinusoidal(offset: float, amplitude: float, frequency: float = 1.0, phase: float = 0.0) -> Coefficient:
    """f(x) = offset + amplitude*sin(frequency*x + phase)."""
    offset, amplitude, frequency, phase = map(float, (offset, amplitude, frequency, phase))

    def f(x):
        return offset + amplitude * np.sin(frequency * _operand(x) + phase)

    def f_prime(x):
        return amplitude * frequency * np.cos(frequency * _operand(x) + phase)

    lip = abs(amplitude * frequency)
    inf_abs = max(abs(offset) - abs(amplitude), 0.0)
    return Coefficient(
        f,
        f_prime,
        lip,
        inf_abs,
        {
            "kind": "sinusoidal",
            "offset": offset,
            "amplitude": amplitude,
            "frequency": frequency,
            "phase": phase,
        },
    )


def logistic(lo: float, hi: float, rate: float, center: float = 0.0) -> Coefficient:
    """Smooth monotone ramp from lo to hi with slope rate*(hi-lo)/4 at center."""
    lo, hi, rate, center = map(float, (lo, hi, rate, center))

    # a steep ramp overflows z or exp(-z) to inf far from center, where the
    # ramp is its end value and its slope 0: right without a warning
    def f(x):
        with np.errstate(over="ignore"):
            z = rate * (_operand(x) - center)
            return lo + (hi - lo) / (1.0 + np.exp(-z))

    def f_prime(x):
        with np.errstate(over="ignore"):
            z = rate * (_operand(x) - center)
            s = 1.0 / (1.0 + np.exp(-z))
        return (hi - lo) * rate * s * (1.0 - s)

    lip = abs((hi - lo) * rate) / 4.0
    span = sorted((lo, hi))
    inf_abs = 0.0 if span[0] <= 0.0 <= span[1] else min(abs(lo), abs(hi))
    return Coefficient(
        f,
        f_prime,
        lip,
        inf_abs,
        {"kind": "logistic", "lo": lo, "hi": hi, "rate": rate, "center": center},
    )


def tabulated(xs, ys) -> Coefficient:
    """Monotone (PCHIP, :class:`MonotoneCubic`) interpolation of a coefficient table.

    Outside the table range the function is clamped to its end values, which
    keeps it Lipschitz with derivative zero there.  Bound constants are
    exact: the derivative's sup is taken per interval at the ends and at the
    vertex of its quadratic, and inf |f| from the node values.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or len(xs) < 2:
        raise ValueError("need two equal-length 1-d arrays with >= 2 points")
    if not np.all(np.diff(xs) > 0):
        raise ValueError("table abscissae must be strictly increasing")
    interp = MonotoneCubic(xs, ys)
    dinterp = interp.derivative()
    x_lo, x_hi = float(xs[0]), float(xs[-1])
    y_lo, y_hi = float(ys[0]), float(ys[-1])

    def f(x):
        x = np.asarray(x, dtype=float)
        out = interp(np.clip(x, x_lo, x_hi))
        return np.where(x < x_lo, y_lo, np.where(x > x_hi, y_hi, out))

    def f_prime(x):
        x = np.asarray(x, dtype=float)
        inside = (x >= x_lo) & (x <= x_hi)
        out = np.where(inside, dinterp(np.clip(x, x_lo, x_hi)), 0.0)
        return out

    # f' is the quadratic (a*s + b)*s + c on each interval 0 <= s <= h: its
    # sup is at an end or at the vertex -b/(2a), clipped to the interval
    a, b, c = dinterp.c
    h = np.diff(xs)
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = np.where(a != 0.0, -b / (2.0 * a), 0.0)
    s = np.stack((np.zeros_like(h), h, np.clip(vertex, 0.0, h)))
    prime_sup = float(np.max(np.abs((a * s + b) * s + c)))
    # PCHIP does not overshoot its nodes, so |f| is smallest at a node, or 0
    y_min, y_max = float(np.min(ys)), float(np.max(ys))
    inf_abs = 0.0 if y_min <= 0.0 <= y_max else min(abs(y_min), abs(y_max))
    return Coefficient(
        f,
        f_prime,
        prime_sup,
        inf_abs,
        {"kind": "tabulated", "xs": xs.tolist(), "ys": ys.tolist()},
    )


_KINDS = {
    "constant": constant,
    "affine_clipped": affine_clipped,
    "sinusoidal": sinusoidal,
    "logistic": logistic,
    "tabulated": tabulated,
}


def coefficient_from_spec(spec: dict) -> Coefficient:
    """Build a coefficient from a registry spec dict (key ``kind`` + params)."""
    spec = dict(spec)
    kind = spec.pop("kind", None)
    if kind not in _KINDS:
        raise ValueError(f"unknown coefficient kind {kind!r}; known: {sorted(_KINDS)}")
    return _KINDS[kind](**spec)


def make_model(b: Coefficient, sigma: Coefficient, name: str = "custom") -> CoefficientModel:
    return CoefficientModel(
        b=b.f,
        sigma=sigma.f,
        b_prime=b.f_prime,
        sigma_prime=sigma.f_prime,
        b_prime_sup=b.prime_sup,
        sigma_prime_sup=sigma.prime_sup,
        sigma_inf=sigma.inf_abs,
        name=name,
        spec={"b": b.spec, "sigma": sigma.spec},
    )


def named_model(name: str) -> CoefficientModel:
    """Built-in coefficient sets used by the CLI, demos and tests."""
    presets = {
        # driftless unit diffusion: X is a perturbed Brownian motion
        "unit": (constant(0.0), constant(1.0)),
        # bounded smooth drift with ||b'|| = 1, additive noise
        "additive-sine": (sinusoidal(0.0, 1.0), constant(1.0)),
        # smooth drift and diffusion, inf sigma = 0.5
        "smooth-generic": (sinusoidal(0.0, 0.5, 1.0, math.pi / 2.0), sinusoidal(1.0, 0.5)),
        # driftless multiplicative noise, inf sigma = 1
        "multiplicative-sine": (constant(0.0), sinusoidal(2.0, 1.0)),
    }
    if name not in presets:
        raise ValueError(f"unknown model preset {name!r}; known: {sorted(presets)}")
    b, sigma = presets[name]
    return make_model(b, sigma, name=name)
