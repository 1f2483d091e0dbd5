import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import psde
from conftest import random_driving_path
from psde.skorokhod import max_min_rows


def solve(a, alpha, beta, **kw):
    return psde.solve_max_min(a, psde.validate_params(alpha, beta), **kw)


def brute_force_fixed_point(a, alpha, beta, m_start, tol=1e-14, iters=10_000):
    """Independent oracle: raw iteration of the coupled discrete system."""
    av = a.values
    m = np.asarray(m_start, dtype=float).copy()
    for _ in range(iters):
        i = np.maximum.accumulate(-av - alpha * m) / (beta - 1.0)
        m_next = np.maximum.accumulate(av + beta * i) / (1.0 - alpha)
        if np.max(np.abs(m_next - m)) <= tol:
            return m_next, i
        m = m_next
    raise AssertionError("oracle iteration did not settle")


def test_beta_zero_decouples():
    a = psde.DrivingPath(times=[0.0, 1.0, 2.0], values=[0.0, 1.0, 0.5])
    sol = solve(a, 0.5, 0.0)
    assert np.allclose(sol.m_path, [0.0, 2.0, 2.0], atol=1e-15)
    # I = running min of a + alpha*M
    assert np.allclose(sol.i_path, [0.0, 0.0, 0.0], atol=1e-15)


def test_alpha_zero_decouples():
    a = psde.DrivingPath(times=[0.0, 1.0, 2.0], values=[0.0, -1.0, 2.0])
    sol = solve(a, 0.0, -1.0)
    assert np.allclose(sol.i_path, [0.0, -0.5, -0.5], atol=1e-15)


def test_general_case_agrees_with_two_start_oracle():
    rng = np.random.default_rng(42)
    alpha, beta = 0.4, 0.3
    for _ in range(20):
        a = random_driving_path(rng, n=5)
        sol = solve(a, alpha, beta, tol=1e-14)
        cold, _ = brute_force_fixed_point(a, alpha, beta, np.full(6, a.values[0]))
        hot, _ = brute_force_fixed_point(
            a, alpha, beta, np.full(6, np.max(a.values) / (1.0 - alpha))
        )
        assert np.max(np.abs(cold - hot)) < 1e-12
        assert np.max(np.abs(sol.m_path - cold)) < 1e-12


@pytest.mark.parametrize("alpha,beta", [(0.5, -0.5), (0.6, 0.3), (-0.8, 0.4), (0.4, 0.3)])
def test_solution_invariants(alpha, beta):
    rng = np.random.default_rng(7)
    params = psde.validate_params(alpha, beta)
    for _ in range(10):
        a = random_driving_path(rng, n=200, a0=rng.standard_normal())
        sol = psde.solve_max_min(a, params)
        x = sol.perturbed_path(a, params)
        assert np.all(np.diff(sol.m_path) >= -1e-11)
        assert np.all(np.diff(sol.i_path) <= 1e-11)
        assert sol.m_path[0] == pytest.approx(sol.i_path[0], abs=1e-10)
        assert sol.m_path[0] == pytest.approx(a.values[0] / (1.0 - alpha - beta), abs=1e-10)
        assert np.all(x <= sol.m_path + 1e-10)
        assert np.all(x >= sol.i_path - 1e-10)
        # reconstruction: running extremes of x reproduce M and I
        assert np.max(np.abs(np.maximum.accumulate(x) - sol.m_path)) < 10 * 1e-11
        assert np.max(np.abs(np.minimum.accumulate(x) - sol.i_path)) < 10 * 1e-11


@settings(max_examples=50, deadline=None)
@given(
    alpha=st.floats(min_value=0.0, max_value=0.6),
    beta=st.floats(min_value=0.0, max_value=0.39),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_monotone_in_driver_for_nonnegative_weights(alpha, beta, seed):
    # pointwise driver domination transfers to M when both weights are >= 0
    # (a negative weight couples an extreme with opposite sign and can break
    # pointwise monotonicity)
    rng = np.random.default_rng(seed)
    params = psde.validate_params(alpha, beta)
    a_vals = np.concatenate(([0.0], np.cumsum(rng.standard_normal(60))))
    bump = np.concatenate(([0.0], rng.uniform(0.0, 0.5, size=60)))
    times = np.arange(61.0)
    a = psde.DrivingPath(times=times, values=a_vals)
    a_up = psde.DrivingPath(times=times, values=a_vals + bump)
    m_lo = psde.solve_max_min(a, params).m_path
    m_hi = psde.solve_max_min(a_up, params).m_path
    assert np.all(m_hi >= m_lo - 1e-10)


@settings(max_examples=50, deadline=None)
@given(
    c=st.floats(min_value=1e-3, max_value=100.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_scale_covariance(c, seed):
    rng = np.random.default_rng(seed)
    params = psde.validate_params(0.5, -0.5)
    a_vals = np.concatenate(([0.0], np.cumsum(rng.standard_normal(50))))
    times = np.arange(51.0)
    base = psde.solve_max_min(psde.DrivingPath(times, a_vals), params, tol=1e-13)
    scaled = psde.solve_max_min(psde.DrivingPath(times, c * a_vals), params, tol=1e-13 * max(c, 1.0))
    scale = max(1.0, c) * max(1.0, float(np.max(np.abs(base.m_path))))
    assert np.max(np.abs(scaled.m_path - c * base.m_path)) < 1e-10 * scale
    assert np.max(np.abs(scaled.i_path - c * base.i_path)) < 1e-10 * scale


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(min_value=-2.0, max_value=0.9),
    beta=st.floats(min_value=-2.0, max_value=0.9),
    rows=st.integers(min_value=1, max_value=8),
    n=st.integers(min_value=0, max_value=80),
    tol=st.sampled_from([1e-14, 1e-12, 1e-8]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_rows_match_batch_of_one(alpha, beta, rows, n, tol, seed):
    # rows of different scales take different sweep counts, so rows leave
    # the block at different sweeps
    try:
        params = psde.validate_params(alpha, beta)
    except psde.ParameterRejection:
        assume(False)
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-3.0, 3.0, size=(rows, 1))
    av = np.concatenate((rng.standard_normal((rows, 1)), scales * rng.standard_normal((rows, n))), axis=1)
    av = np.cumsum(av, axis=1)
    m, i, sweeps, history = max_min_rows(av, alpha, beta, tol, 60)
    times = np.arange(n + 1.0)
    for r in range(rows):
        try:
            one = psde.solve_max_min(psde.DrivingPath(times, av[r]), params, tol=tol, max_iter=60)
        except psde.NoConvergenceError as err:
            assert sweeps[r] == 0 and err.path == 0
            assert err.history == history[:, r].tolist()
            continue
        assert one.iterations == sweeps[r]
        assert one.residual == history[sweeps[r] - 1, r]
        assert one.m_path.tobytes() == m[r].tobytes()
        assert one.i_path.tobytes() == i[r].tobytes()


def test_refinement_idempotence():
    # inserting interpolated points leaves shared-time values unchanged as
    # long as the inserted values are absorbed by the extremes of the next
    # original point (the running max/min structure at original times is then
    # untouched)
    rng = np.random.default_rng(3)
    params = psde.validate_params(0.4, 0.3)
    qualified = 0
    for _ in range(20):
        a_vals = np.concatenate(([0.0], np.cumsum(rng.standard_normal(40))))
        times = np.arange(41.0)
        fine_vals = np.empty(81)
        fine_vals[0::2] = a_vals
        fine_vals[1::2] = 0.5 * (a_vals[:-1] + a_vals[1:])
        fine_times = np.arange(0.0, 40.5, 0.5)
        coarse = psde.solve_max_min(psde.DrivingPath(times, a_vals), params, tol=1e-13)
        fine = psde.solve_max_min(psde.DrivingPath(fine_times, fine_vals), params, tol=1e-13)
        x_fine = fine.perturbed_path(psde.DrivingPath(fine_times, fine_vals), params)
        absorbed = np.all(
            (x_fine[1::2] <= fine.m_path[2::2] + 1e-12)
            & (x_fine[1::2] >= fine.i_path[2::2] - 1e-12)
        )
        if not absorbed:
            continue
        qualified += 1
        assert np.max(np.abs(fine.m_path[0::2] - coarse.m_path)) < 1e-10
        assert np.max(np.abs(fine.i_path[0::2] - coarse.i_path)) < 1e-10
    assert qualified >= 10


def test_contraction_rate_degenerate_empty():
    rng = np.random.default_rng(0)
    a = random_driving_path(rng, n=50)
    assert len(psde.contraction_rate(a, psde.validate_params(0.5, 0.0), 6)) == 0
    assert len(psde.contraction_rate(a, psde.validate_params(0.0, -1.0), 6)) == 0


@pytest.mark.parametrize(
    "alpha,beta,rho_abs",
    [(0.5, -0.5, 1.0 / 3.0), (0.6, 0.3, 9.0 / 14.0), (-0.8, 0.4, 8.0 / 27.0)],
)
def test_contraction_ratios_bounded_by_rho(alpha, beta, rho_abs):
    rng = np.random.default_rng(12)
    params = psde.validate_params(alpha, beta)
    assert abs(params.rho) == pytest.approx(rho_abs, abs=1e-12)
    worst = 0.0
    for _ in range(20):
        a = random_driving_path(rng, n=300)
        ratios = psde.contraction_rate(a, params, 12)
        if len(ratios):
            worst = max(worst, float(np.max(ratios)))
    assert worst <= rho_abs + 0.05


def test_no_convergence_reports_history():
    # growing zigzag keeps both extremes active on every step, so the
    # iteration can only converge geometrically at rate |rho| = 0.923
    k = np.arange(1.0, 51.0)
    zigzag = np.concatenate(([0.0], np.where(np.arange(50) % 2 == 0, k, -k)))
    a = psde.DrivingPath(times=np.arange(51.0), values=zigzag)
    with pytest.raises(psde.NoConvergenceError) as exc:
        psde.solve_max_min(a, psde.validate_params(0.49, 0.49), tol=1e-15, max_iter=2)
    assert len(exc.value.history) == 2


def test_warm_start_option():
    rng = np.random.default_rng(5)
    params = psde.validate_params(0.6, 0.3)
    a = random_driving_path(rng, n=100)
    cold = psde.solve_max_min(a, params)
    warm = psde.solve_max_min(a, params, m_init=cold.m_path)
    assert warm.iterations <= 2
    assert np.max(np.abs(warm.m_path - cold.m_path)) < 1e-11
