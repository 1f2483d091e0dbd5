import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psde
from psde import ParameterRejection


def test_accepts_unperturbed():
    p = psde.validate_params(0.0, 0.0)
    assert p.rho == 0.0


def test_accepts_negative_alpha():
    p = psde.validate_params(-2.0, 0.5)
    assert p.rho == pytest.approx(-2.0 / 3.0, abs=1e-15)


def test_rejects_rho_plus_one():
    # alpha + beta = 1 forces alpha*beta = (1-alpha)(1-beta)
    with pytest.raises(ParameterRejection) as exc:
        psde.validate_params(0.5, 0.5)
    assert exc.value.code == "REJECT_RHO"


def test_rejects_rho_minus_one():
    # the curve beta = (alpha-1)/(2*alpha-1)
    with pytest.raises(ParameterRejection) as exc:
        psde.validate_params(-2.0, 0.6)
    assert exc.value.code == "REJECT_RHO"


@pytest.mark.parametrize("alpha,beta,code", [
    (1.0, 0.3, "REJECT_ALPHA"),
    (1.5, 0.0, "REJECT_ALPHA"),
    (0.3, 1.0, "REJECT_BETA"),
    (float("nan"), 0.0, "REJECT_ALPHA"),
    (0.0, float("inf"), "REJECT_BETA"),
])
def test_boundary_and_nonfinite_rejections(alpha, beta, code):
    with pytest.raises(ParameterRejection) as exc:
        psde.validate_params(alpha, beta)
    assert exc.value.code == code


def test_rho_symmetric_under_swap():
    for a, b in [(0.4, -0.7), (-2.0, 0.5), (0.6, 0.3)]:
        assert psde.validate_params(a, b).rho == psde.validate_params(b, a).rho


@settings(max_examples=300, deadline=None)
@given(
    alpha=st.floats(min_value=-5.0, max_value=0.999),
    beta=st.floats(min_value=-5.0, max_value=0.999),
)
def test_accepted_pairs_satisfy_alpha_plus_beta_below_one(alpha, beta):
    try:
        p = psde.validate_params(alpha, beta)
    except ParameterRejection:
        return
    assert p.alpha + p.beta < 1.0


def test_smoothness_constant_values():
    assert psde.smoothness_constant(1.0, 0.0, 0.0, 0.0) == 0.0
    assert psde.smoothness_constant(1.0, 0.0, 0.0, 1.0) == pytest.approx(
        3.0 + 2.0 * math.sqrt(3.0), abs=1e-14
    )
    # 3*(0.01 + 0.02) + 2*sqrt(0.09)
    assert psde.smoothness_constant(0.01, 0.05, 0.05, 1.0) == pytest.approx(0.69, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    t=st.floats(min_value=0.0, max_value=10.0),
    dt=st.floats(min_value=0.0, max_value=1.0),
    alpha=st.floats(min_value=-0.9, max_value=0.9),
    beta=st.floats(min_value=-0.9, max_value=0.9),
    k=st.floats(min_value=0.0, max_value=5.0),
)
def test_smoothness_constant_monotone(t, dt, alpha, beta, k):
    base = psde.smoothness_constant(t, alpha, beta, k)
    assert base >= 0.0
    assert psde.smoothness_constant(t + dt, alpha, beta, k) >= base
    assert psde.smoothness_constant(t, alpha * 1.1, beta, k) >= base
    assert psde.smoothness_constant(t, alpha, beta * 1.1, k) >= base
    assert psde.smoothness_constant(t, alpha, beta, k * 1.1) >= base


def test_horizon_unperturbed():
    h = psde.smooth_density_horizon(0.0, 0.0, 1.0)
    assert h.threshold_ok
    assert h.t0 == pytest.approx((3.0 - 2.0 * math.sqrt(2.0)) / 3.0, abs=1e-15)
    assert h.t0 == pytest.approx(0.057191, abs=1e-6)


def test_horizon_negative_above_threshold():
    # alpha^2 + beta^2 = 0.02 > (3-2*sqrt(2))/12 ~ 0.0142976
    h = psde.smooth_density_horizon(0.1, 0.1, 1.0)
    assert not h.threshold_ok
    assert h.t0 == pytest.approx((3.0 - 2.0 * math.sqrt(2.0)) / 3.0 - 0.08, abs=1e-12)
    assert h.t0 < 0.0


def test_horizon_threshold_flip():
    s = psde.SMOOTHNESS_THRESHOLD
    below = psde.smooth_density_horizon(math.sqrt(s * (1.0 - 1e-9)), 0.0, 1.0)
    above = psde.smooth_density_horizon(math.sqrt(s * (1.0 + 1e-9)), 0.0, 1.0)
    assert below.threshold_ok and below.t0 > 0.0
    assert not above.threshold_ok and above.t0 <= 0.0


def test_horizon_zero_drift_bound_flagged():
    h = psde.smooth_density_horizon(0.05, 0.05, 0.0)
    assert h.t0_unbounded
    assert h.t0 == math.inf and h.threshold_ok
    h2 = psde.smooth_density_horizon(0.3, 0.3, 0.0)
    assert h2.t0_unbounded
    assert h2.t0 == 0.0 and not h2.threshold_ok


def test_horizon_tiny_drift_bound_flagged():
    # b'^2 underflows to 0 at 1e-200, and t0 overflows at 1e-160: reported as b' = 0
    for k in (1e-200, 1e-160):
        for alpha, beta in ((0.05, 0.05), (0.3, 0.3)):
            assert psde.smooth_density_horizon(alpha, beta, k) == psde.smooth_density_horizon(alpha, beta, 0.0)
    h = psde.smooth_density_horizon(0.05, 0.05, 1e-100)
    assert math.isfinite(h.t0) and h.t0 > 0.0 and not h.t0_unbounded


def test_huge_drift_bound_is_not_squared():
    # ||b'||^2 = 1e400 is no float, but t0 = 0.0172/1e400 is a positive
    # horizon below float resolution, reported as 0.0 with threshold_ok
    h = psde.smooth_density_horizon(0.1, 0.0, 1e200)
    assert h.t0 == 0.0 and h.threshold_ok and not h.t0_unbounded
    assert h.c_of_t == psde.smoothness_constant(0.0, 0.1, 0.0, 0.0)
    # at 2e154 the square overflows and t0 is subnormal; C(t0) is still 1
    h = psde.smooth_density_horizon(0.1, 0.0, 2e154)
    assert 0.0 < h.t0 < sys.float_info.min and h.threshold_ok
    assert h.c_of_t == pytest.approx(1.0, abs=1e-9)
    # ||b'||^2 t = 1e100 is a float although ||b'||^2 is not
    assert psde.smoothness_constant(1e-300, 0.0, 0.0, 1e200) == pytest.approx(3e100 + 2.0 * math.sqrt(3e100))


def test_huge_time_is_not_squared():
    # b' = 1e-100 puts t0 at ~1.7e198, where s^2 overflows but the bounds
    # do not: they tend to (1 - C) sigma^2 / (6 ||b'||^2) and 1 / (6 ||b'||^2 t)
    k = 1e-100
    h = psde.smooth_density_horizon(0.1, 0.0, k)
    assert h.t0 == pytest.approx(1.719e198, rel=1e-3)
    s = h.t0 / 2.0
    c = psde.smoothness_constant(s, 0.1, 0.0, k)
    assert psde.hnorm_lower_bound(s, s, 1.0, 0.1, 0.0, k) == pytest.approx((1.0 - c) / (6.0 * k * k), rel=1e-12)
    assert psde.hnorm_running_max_lower_bound(1e200, 1.0, 0.1, 0.0, k) == pytest.approx(1.0 / 6.0, rel=1e-12)
    # with b' = 0 the divided denominator underflows to 0 beyond s ~ 1e154,
    # where the bound, sigma^2 s^2 / 2, overflows: inf, or 0.0 for sigma = 0
    assert psde.hnorm_lower_bound(1e150, 1e150, 1.0, 0.0, 0.0, 0.0) == pytest.approx(5e299, rel=1e-12)
    for s in (1e160, 1e200, 1e308):
        assert psde.hnorm_lower_bound(s, s, 1.0, 0.0, 0.0, 0.0) == math.inf
        assert psde.hnorm_lower_bound(s, s, 0.0, 0.0, 0.0, 0.0) == 0.0


def test_c_at_t0_consistency_random():
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 200:
        alpha, beta = rng.uniform(-0.12, 0.12, size=2)
        k = rng.uniform(0.1, 3.0)
        h = psde.smooth_density_horizon(alpha, beta, k)
        if not h.threshold_ok:
            continue
        assert psde.smoothness_constant(h.t0, alpha, beta, k) < 1.0 + 1e-9
        checked += 1


def test_hnorm_lower_bound_values():
    # unperturbed driftless: (1-0) * sigma^2 s^2 / 2
    assert psde.hnorm_lower_bound(1.0, 1.0, 1.0, 0.0, 0.0, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert psde.hnorm_lower_bound(0.5, 0.5, 2.0, 0.0, 0.0, 0.0) == pytest.approx(0.5, abs=1e-15)
    # chained from C(0.01, 0.05, 0.05, 1) = 0.69
    want = 0.31 * 1e-4 / (2.0 * (1.0 + 3.0 * 1e-4 + 3.0 * 0.005))
    got = psde.hnorm_lower_bound(0.01, 0.01, 1.0, 0.05, 0.05, 1.0)
    assert got == pytest.approx(want, rel=1e-10)
    assert got > 0.0


def test_hnorm_lower_bound_vacuous_is_flagged_zero():
    # C(t) >= 1 for large t: flagged zero, not an exception
    with pytest.warns(psde.BoundVacuousWarning):
        assert psde.hnorm_lower_bound(1.0, 1.0, 1.0, 0.0, 0.0, 2.0) == 0.0


def test_hnorm_lower_bound_at_time_zero():
    # X_0 is deterministic, so the bound at s = 0 is 0; s outside [0, t] is refused
    assert psde.hnorm_lower_bound(0.0, 0.5, 1.0, 0.1, 0.0, 0.0) == 0.0
    assert psde.hnorm_lower_bound(0.0, 0.0, 1.0, 0.1, 0.0, 0.0) == 0.0
    for s, t in ((-0.1, 0.5), (0.6, 0.5)):
        with pytest.raises(ValueError):
            psde.hnorm_lower_bound(s, t, 1.0, 0.1, 0.0, 0.0)


def test_running_max_lower_bound_value():
    want = 0.01 / (2.0 * (1.0 + 3.0 * (1e-4 + 0.005)))
    got = psde.hnorm_running_max_lower_bound(0.01, 1.0, 0.05, 0.05, 1.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_huge_alpha_squares_to_inf():
    # alpha = -1e200 with beta = 0 is accepted (rho = 0): alpha^2 is inf, not
    # an OverflowError, so C is inf, t0 is reported 0.0 with the threshold
    # violated, and both H-norm bounds are 0.0
    p = psde.validate_params(-1e200, 0.0)
    assert psde.smoothness_constant(0.5, p.alpha, p.beta, 1.0) == math.inf
    for b_prime_sup in (0.0, 1.0):
        horizon = psde.smooth_density_horizon(p.alpha, p.beta, b_prime_sup)
        assert (horizon.t0, horizon.threshold_ok, horizon.c_of_t) == (0.0, False, math.inf)
    assert psde.hnorm_running_max_lower_bound(1.0, 1.0, p.alpha, p.beta, 1.0) == 0.0
    with pytest.warns(psde.BoundVacuousWarning):
        assert psde.hnorm_lower_bound(0.5, 1.0, 1.0, p.alpha, p.beta, 1.0) == 0.0
