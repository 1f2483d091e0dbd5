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
    av = np.asarray(a, dtype=float)
    m = np.asarray(m_start, dtype=float).copy()
    for _ in range(iters):
        i = np.maximum.accumulate(-av - alpha * m) / (beta - 1.0)
        m_next = np.maximum.accumulate(av + beta * i) / (1.0 - alpha)
        if np.max(np.abs(m_next - m)) <= tol:
            return m_next, i
        m = m_next
    raise AssertionError("oracle iteration did not settle")


def test_beta_zero_decouples():
    a = [0.0, 1.0, 0.5]
    sol = solve(a, 0.5, 0.0)
    assert np.allclose(sol.m_path, [0.0, 2.0, 2.0], atol=1e-15)
    # I = running min of a + alpha*M
    assert np.allclose(sol.i_path, [0.0, 0.0, 0.0], atol=1e-15)


def test_alpha_zero_decouples():
    a = [0.0, -1.0, 2.0]
    sol = solve(a, 0.0, -1.0)
    assert np.allclose(sol.i_path, [0.0, -0.5, -0.5], atol=1e-15)


def test_general_case_agrees_with_two_start_oracle():
    rng = np.random.default_rng(42)
    alpha, beta = 0.4, 0.3
    for _ in range(20):
        a = random_driving_path(rng, n=5)
        sol = solve(a, alpha, beta, tol=1e-14)
        cold, _ = brute_force_fixed_point(a, alpha, beta, np.full(6, a[0]))
        hot, _ = brute_force_fixed_point(
            a, alpha, beta, np.full(6, np.max(a) / (1.0 - alpha))
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
        assert sol.m_path[0] == pytest.approx(a[0] / (1.0 - alpha - beta), abs=1e-10)
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
    m_lo = psde.solve_max_min(a_vals, params).m_path
    m_hi = psde.solve_max_min(a_vals + bump, params).m_path
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
    base = psde.solve_max_min(a_vals, params, tol=1e-13)
    scaled = psde.solve_max_min(c * a_vals, params, tol=1e-13 * max(c, 1.0))
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
    for r in range(rows):
        try:
            one = psde.solve_max_min(av[r], params, tol=tol, max_iter=60)
        except psde.NoConvergenceError as err:
            assert sweeps[r] == 0 and err.path == 0
            assert err.history == history[:, r].tolist()
            continue
        assert one.iterations == sweeps[r]
        assert one.residual == history[sweeps[r] - 1, r]
        assert one.m_path.tobytes() == m[r].tobytes()
        assert one.i_path.tobytes() == i[r].tobytes()


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(min_value=-2.0, max_value=0.9),
    beta=st.floats(min_value=-2.0, max_value=0.9),
    n=st.integers(min_value=1, max_value=80),
    cut=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_prefix_floors_continue_the_whole_path(alpha, beta, n, cut, seed):
    # the system is causal: [0, s] solved alone, then (s, n] from the
    # prefix's extremes (1-alpha)*M_s and (beta-1)*I_s, solves the whole path
    try:
        params = psde.validate_params(alpha, beta)
    except psde.ParameterRejection:
        assume(False)
    assume(abs(params.rho) <= 0.9)
    av = np.cumsum(np.random.default_rng(seed).standard_normal((3, n + 1)), axis=1)
    s = min(int(cut * n), n - 1)
    tol = 1e-13
    m, i, sweeps, _ = max_min_rows(av, alpha, beta, tol, 2000)
    m_pre, i_pre, pre_sweeps, _ = max_min_rows(av[:, : s + 1], alpha, beta, tol, 2000)
    floors = ((1.0 - alpha) * m_pre[:, -1], (beta - 1.0) * i_pre[:, -1])
    m_post, i_post, post_sweeps, _ = max_min_rows(av[:, s + 1 :], alpha, beta, tol, 2000, floors=floors)
    assert sweeps.all() and pre_sweeps.all() and post_sweeps.all()
    bound = 100.0 * tol * (1.0 + float(np.max(np.abs(av))))
    assert np.max(np.abs(np.concatenate((m_pre, m_post), axis=1) - m)) <= bound
    assert np.max(np.abs(np.concatenate((i_pre, i_post), axis=1) - i)) <= bound


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(min_value=-2.0, max_value=0.9),
    beta=st.floats(min_value=-2.0, max_value=0.9),
    n=st.integers(min_value=0, max_value=80),
    sweeps=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_infinite_floors_are_the_unfloored_sweep(alpha, beta, n, sweeps, seed):
    # floors of -inf, scalar or per row, give the plain running maxima bit for bit
    try:
        psde.validate_params(alpha, beta)
    except psde.ParameterRejection:
        assume(False)
    av = np.cumsum(np.random.default_rng(seed).standard_normal((2, n + 1)), axis=1)
    m = np.repeat(av[:, :1], n + 1, axis=1)
    for _ in range(sweeps):
        inner = np.maximum.accumulate(-av - alpha * m, axis=-1)
        m = np.maximum.accumulate(av + beta / (beta - 1.0) * inner, axis=-1) / (1.0 - alpha)
    i = np.maximum.accumulate(-av - alpha * m, axis=-1) / (beta - 1.0)
    for floors in ((-np.inf, -np.inf), (np.full(2, -np.inf), -np.inf)):
        got_m, got_i, _, _ = max_min_rows(av, alpha, beta, 0.0, sweeps, floors=floors)
        assert got_m.tobytes() == m.tobytes() and got_i.tobytes() == i.tobytes()


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
        fine_vals = np.empty(81)
        fine_vals[0::2] = a_vals
        fine_vals[1::2] = 0.5 * (a_vals[:-1] + a_vals[1:])
        coarse = psde.solve_max_min(a_vals, params, tol=1e-13)
        fine = psde.solve_max_min(fine_vals, params, tol=1e-13)
        x_fine = fine.perturbed_path(fine_vals, params)
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
    with pytest.raises(psde.NoConvergenceError) as exc:
        psde.solve_max_min(zigzag, psde.validate_params(0.49, 0.49), tol=1e-15, max_iter=2)
    assert len(exc.value.history) == 2


@pytest.mark.parametrize(
    "values",
    [[0.0, np.nan, 1.0], [0.0, np.inf], [0.0, -np.inf], [[0.0, 1.0], [2.0, 3.0]], []],
    ids=["nan", "inf", "-inf", "2-d", "empty"],
)
def test_driving_path_values_checked(values):
    # both readers check before any sweep, also where alpha*beta == 0 needs none
    for params in (psde.validate_params(0.4, 0.3), psde.validate_params(0.5, 0.0)):
        with pytest.raises(ValueError, match="driving-path values"):
            psde.solve_max_min(values, params)
        with pytest.raises(ValueError, match="driving-path values"):
            psde.contraction_rate(values, params, 4)


def test_warm_start_option():
    rng = np.random.default_rng(5)
    params = psde.validate_params(0.6, 0.3)
    a = random_driving_path(rng, n=100)
    cold = psde.solve_max_min(a, params)
    warm_m, _, warm_sweeps, _ = max_min_rows(a[None], params.alpha, params.beta, m_init=cold.m_path[None])
    assert 1 <= warm_sweeps[0] <= 2  # 0 would mean no convergence
    assert np.max(np.abs(warm_m[0] - cold.m_path)) < 1e-11
