"""Validity domain of the shape parameters and closed-form regularity constants.

The pair (alpha, beta) weights the running maximum and running minimum of the
process.  Well-posedness requires alpha < 1, beta < 1 and |rho| < 1 with

    rho = alpha*beta / ((1-alpha)*(1-beta)),

which together force alpha + beta < 1.  This module also evaluates the
constants of the additive-noise regularity analysis: the oscillation constant
C(t, alpha, beta, b), the smooth-density horizon t0, and the lower bound on
the squared H-norm of the first variation.  alpha^2 and beta^2 are
products: a Python float power raises OverflowError where the product is
inf, and validate_params accepts alpha = -1e200 with beta = 0 (rho = 0).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import BoundVacuousWarning, ParameterRejection

# alpha^2 + beta^2 must stay strictly below this for a positive horizon t0.
SMOOTHNESS_THRESHOLD = (3.0 - 2.0 * math.sqrt(2.0)) / 12.0

# Rejection guard on the rho boundary: rounding in rho's quotient can move a
# pair sitting exactly on |rho| = 1 (e.g. beta = (alpha-1)/(2*alpha-1) with a
# non-representable beta) a couple of ulps inside the domain.  Pairs within
# this relative distance of the boundary are rejected; the guard only ever
# refuses boundary-hugging configurations, never accepts invalid ones.
RHO_BOUNDARY_GUARD = 1e-12


@dataclass(frozen=True)
class PerturbationParams:
    """An accepted shape-parameter pair; its compound parameter rho is derived."""

    alpha: float
    beta: float

    @property
    def rho(self) -> float:
        return rho_of(self.alpha, self.beta)


@dataclass(frozen=True)
class SmoothnessConstants:
    """Smooth-density horizon and the oscillation constant evaluated there.

    ``t0_unbounded`` is set when the drift-derivative bound is zero, in which
    case no finite horizon constrains smoothness and ``t0`` is +inf.
    """

    c_of_t: float
    t0: float
    threshold_ok: bool
    t0_unbounded: bool = False


def rho_of(alpha: float, beta: float) -> float:
    """Compound parameter rho = alpha*beta/((1-alpha)(1-beta))."""
    return alpha * beta / ((1.0 - alpha) * (1.0 - beta))


def validate_params(alpha: float, beta: float) -> PerturbationParams:
    """Accept (alpha, beta) or raise :class:`ParameterRejection`.

    The three conditions are checked in order: alpha < 1, beta < 1,
    |rho| < 1.  Boundary equalities are rejected, with the
    :data:`RHO_BOUNDARY_GUARD` absorbing quotient rounding on the rho curve.
    """
    alpha = float(alpha)
    beta = float(beta)
    if not math.isfinite(alpha) or alpha >= 1.0:
        raise ParameterRejection("REJECT_ALPHA", f"alpha={alpha!r} must be a finite real < 1")
    if not math.isfinite(beta) or beta >= 1.0:
        raise ParameterRejection("REJECT_BETA", f"beta={beta!r} must be a finite real < 1")
    rho = rho_of(alpha, beta)
    if not math.isfinite(rho) or abs(rho) >= 1.0 - RHO_BOUNDARY_GUARD:
        raise ParameterRejection(
            "REJECT_RHO",
            f"rho={rho!r} for (alpha={alpha}, beta={beta}) must satisfy |rho| < 1",
        )
    return PerturbationParams(alpha=alpha, beta=beta)


def smoothness_constant(t: float, alpha: float, beta: float, b_prime_sup: float) -> float:
    """Oscillation constant C(t, alpha, beta, b).

    C = K + 2*sqrt(K) with K = 3*(||b'||^2 t + 4(alpha^2+beta^2)).
    Monotone non-decreasing in t, |alpha|, |beta| and ||b'||.

    For additive noise, with h(s) = ||DX_s||_H^2 and a lag t = t2 - t1 <= 1,
    split the H-norm increment into fresh and old time,

        h(t2) - h(t1) = F + O,   F = int_{t1}^{t2} |D_r X_{t2}|^2 dr,
                                 O = int_0^{t1} (|D_r X_{t2}|^2 - |D_r X_{t1}|^2) dr.

    C bounds the old-time oscillation: |O| <= C(t2 - t1) * max_s h(s).
    (Cauchy-Schwarz on the drift part of D_r X_{t2} - D_r X_{t1} gives
    ||b'||^2 t, each extreme's jump is at most 2(h(tau1) + h(tau2)), and
    |a^2 - b^2| <= |a-b|^2 + 2|a-b||b|.)  C does not bound the fresh-time
    integral F: an unperturbed Brownian motion has F = sigma^2 (t2 - t1)
    while C vanishes, so |h(t2) - h(t1)| <= C * max h does not hold.
    """
    if not t >= 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    if not b_prime_sup >= 0.0:
        raise ValueError(f"b_prime_sup must be >= 0, got {b_prime_sup}")
    # ||b'||^2 t as b' * (b' t): no ||b'||^2 that overflows where the product does not
    arg = 3.0 * (b_prime_sup * (b_prime_sup * t) + 4.0 * (alpha * alpha + beta * beta))
    return arg + 2.0 * math.sqrt(arg)


def smooth_density_horizon(alpha: float, beta: float, b_prime_sup: float) -> SmoothnessConstants:
    """Horizon t0 below which the additive-noise density is smooth.

        t0 = (1/||b'||^2) * ((sqrt(2)-1)^2/3 - 4*(alpha^2+beta^2))

    t0 is the paper's constant, and the lab reports it as such; it is not a
    measured smoothness horizon.  The singly perturbed law (sigma = 1,
    b = 0, beta = 0) has b_prime_sup = 0, so t0 is unbounded there for
    alpha^2 < (3-2*sqrt(2))/12, yet its density is C^1 but not C^2 at X_0
    for every alpha != 0: (log p)'' jumps from -1/t to -(1-alpha)^2/t.

    t0 > 0 exactly when alpha^2 + beta^2 < (3-2*sqrt(2))/12 (``threshold_ok``).
    A non-positive t0 is reported as is, with ``threshold_ok`` False, so a
    caller can explain why a smoothness experiment is refused.  When
    b_prime_sup == 0 there is no finite horizon: t0 is reported as +inf
    (threshold satisfied) or 0 (threshold violated) with ``t0_unbounded``,
    and C is evaluated at t = 0.  A b_prime_sup so small that t0 is not a
    finite float (the quotient overflows) is reported the same way.  The
    quotient divides by b_prime_sup twice and never forms its square, so a
    b_prime_sup whose square overflows gives the float nearest t0, which
    may be subnormal or 0.0: a positive horizon below float resolution
    when ``threshold_ok`` holds.
    """
    if not b_prime_sup >= 0.0:
        raise ValueError(f"b_prime_sup must be >= 0, got {b_prime_sup}")
    s2 = alpha * alpha + beta * beta
    threshold_ok = s2 < SMOOTHNESS_THRESHOLD
    numerator = (math.sqrt(2.0) - 1.0) ** 2 / 3.0 - 4.0 * s2
    t0 = numerator / b_prime_sup / b_prime_sup if b_prime_sup else math.inf
    if not math.isfinite(t0):
        t0 = math.inf if threshold_ok else 0.0
        c = smoothness_constant(0.0, alpha, beta, 0.0)
        return SmoothnessConstants(c_of_t=c, t0=t0, threshold_ok=threshold_ok, t0_unbounded=True)
    c = smoothness_constant(max(t0, 0.0), alpha, beta, b_prime_sup)
    return SmoothnessConstants(c_of_t=c, t0=t0, threshold_ok=threshold_ok)


def hnorm_lower_bound(
    s: float,
    t: float,
    sigma_const: float,
    alpha: float,
    beta: float,
    b_prime_sup: float,
) -> float:
    """Additive-noise lower bound on ||DX_s||_H^2 for 0 <= s <= t.

        (1 - C(t, alpha, beta, b)) * sigma^2 * s^2
        -------------------------------------------
        2 * (1 + 3*||b'||^2 s^2 + 3*(alpha^2+beta^2))

    At s = 0 the bound is 0.0, as X_0 is deterministic.  When C(t) >= 1
    the bound is vacuous: a flagged 0.0 is returned (with a
    :class:`BoundVacuousWarning`), never an exception.  Numerator and
    denominator are divided by s^2, so neither s^2 nor ||b'||^2 s^2 is
    formed: the bound stays finite where those squares overflow and it
    does not (it tends to (1 - C) sigma^2 / (6 ||b'||^2) as s grows).  With
    b' = 0 the divided denominator underflows to 0 for s beyond ~1e154,
    where the bound itself overflows: it is then inf, or 0.0 for sigma = 0.
    """
    if not 0.0 <= s <= t:
        raise ValueError(f"need 0 <= s <= t, got s={s}, t={t}")
    c = smoothness_constant(t, alpha, beta, b_prime_sup)
    if c >= 1.0:
        warnings.warn(
            f"C(t={t}) = {c} >= 1: H-norm lower bound is vacuous",
            BoundVacuousWarning,
            stacklevel=2,
        )
        return 0.0
    if s == 0.0:
        return 0.0
    denom = 2.0 * ((1.0 + 3.0 * (alpha * alpha + beta * beta)) / s / s + 3.0 * b_prime_sup * b_prime_sup)
    numer = (1.0 - c) * sigma_const * sigma_const
    return numer / denom if denom else (math.inf if numer else 0.0)


def hnorm_running_max_lower_bound(
    t: float, sigma_const: float, alpha: float, beta: float, b_prime_sup: float
) -> float:
    """Lower bound on max_{s<=t} ||DX_s||_H^2 for the additive-noise model.

        sigma^2 * t / (2 * (1 + 3*(t^2 ||b'||^2 + alpha^2 + beta^2)))

    Evaluated divided by t, with ||b'||^2 t as b' * (b' t), so neither t^2
    nor ||b'||^2 t^2 is formed.
    """
    if not t > 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    denom = 2.0 * ((1.0 + 3.0 * (alpha * alpha + beta * beta)) / t + 3.0 * b_prime_sup * (b_prime_sup * t))
    return sigma_const * sigma_const / denom
