import dataclasses
import importlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import psde
from psde.malliavin import (
    _columns,
    _terminal_adjoint,
    _terminal_h_norms,
    field_closed_form_singly_perturbed,
)
from psde.simulate import SimConfig


def cfg(n_steps=500, seed=0, x0=0.0):
    return SimConfig(x0_seed_value=x0, horizon=1.0, n_steps=n_steps, rng_seed=seed)


def field_for(model, alpha, beta, n_steps=500, seed=0, x0=0.0):
    p = psde.validate_params(alpha, beta)
    path = psde.simulate_per_step(model, p, cfg(n_steps, seed, x0))
    return psde.derivative_field(path, model, p), path, p


def test_running_argmax_earliest_tie():
    idx = psde.running_argmax(np.array([0.0, 1.0, 1.0, 0.5]))
    assert list(idx) == [0, 1, 1, 1]
    idx = psde.running_argmin(np.array([0.0, -1.0, -1.0, 2.0]))
    assert list(idx) == [0, 1, 1, 1]


def test_unperturbed_field_is_one(unit_model):
    field, _, _ = field_for(unit_model, 0.0, 0.0, n_steps=200, seed=4)
    tri = np.triu(np.ones((201, 201)))
    assert np.array_equal(field.d, tri)
    # H-norm at t_k equals t_k
    profile = psde.h_norm_profile(field)
    assert np.allclose(profile, field.grid, atol=1e-13)


def test_unperturbed_h_norm_exact(unit_model):
    field, _, _ = field_for(unit_model, 0.0, 0.0, n_steps=1000, seed=1)
    assert psde.h_norm_profile(field)[1000] == 1.0


@pytest.mark.parametrize("alpha", [0.5, 0.25, -0.7])
def test_singly_perturbed_field_closed_form(unit_model, alpha):
    for seed in range(5):
        field, path, _ = field_for(unit_model, alpha, 0.0, n_steps=400, seed=seed)
        ref = field_closed_form_singly_perturbed(path, alpha)
        assert np.max(np.abs(field.d - ref)) <= 1e-12


def test_singly_perturbed_h_norm_closed_form(unit_model):
    alpha = 0.5
    field, path, _ = field_for(unit_model, alpha, 0.0, n_steps=400, seed=2)
    c = alpha / (1.0 - alpha)
    profile = psde.h_norm_profile(field)
    for k in (50, 200, 400):
        cnt = min(int(psde.running_argmax(path.x)[k]) + 1, k)
        want = field.dt * ((1.0 + c) ** 2 * cnt + (k - cnt))
        assert profile[k] == pytest.approx(want, rel=1e-12)


def test_directional_consistency_generic(generic_model):
    p = psde.validate_params(0.3, -0.2)
    c = cfg(n_steps=1000, seed=5, x0=0.5)
    path = psde.simulate_per_step(generic_model, p, c)
    field = psde.derivative_field(path, generic_model, p)
    windows = [(0.0, 1.0), (0.2, 0.5), (0.7, 0.9)]
    for (r_lo, r_hi), fd in zip(windows, psde.cameron_martin_directional(generic_model, p, c, windows, eps=1e-4)):
        fv = psde.directional_from_field(field, r_lo, r_hi)
        assert not fd.eps_too_small
        assert abs(fv - fd.value) <= 0.01 * abs(fd.value)


def test_unperturbed_full_window_directional(unit_model):
    # sum of d * dt over (0, T] is exactly T for the unperturbed driftless case
    p = psde.validate_params(0.0, 0.0)
    c = cfg(n_steps=250, seed=6)
    (fd,) = psde.cameron_martin_directional(unit_model, p, c, [(0.0, 1.0)], eps=1e-4)
    assert fd.value == pytest.approx(1.0, abs=1e-4)


def test_eps_sweep_decreases_then_plateaus(generic_model):
    p = psde.validate_params(0.3, -0.2)
    c = cfg(n_steps=500, seed=7, x0=0.5)
    path = psde.simulate_per_step(generic_model, p, c)
    field = psde.derivative_field(path, generic_model, p)
    fv = psde.directional_from_field(field, 0.1, 0.6)
    fds = [
        psde.cameron_martin_directional(generic_model, p, c, [(0.1, 0.6)], eps=e)[0].value
        for e in (1e-3, 1e-4, 1e-5)
    ]
    # the O(eps) part of the quotient shrinks about tenfold per decade; what
    # is left is the O(dt) gap to the field, whose sign against the O(eps)
    # part is a property of the path, so |fd - fv| itself need not decrease
    assert abs(fds[2] - fds[1]) <= 0.2 * abs(fds[1] - fds[0])
    # every point of the sweep, the plateau included, stays within that gap
    for fd in fds:
        assert abs(fd - fv) <= 0.01 * abs(fv)


def test_cameron_martin_windows_match_scalar_simulation(generic_model):
    p = psde.validate_params(0.3, -0.2)
    c = cfg(n_steps=200, seed=5, x0=0.5)
    windows = [(0.0, 0.3), (0.3, 0.35), (0.5, 1.0)]
    increments = psde.brownian_driver(200, 1.0, 5)
    base = psde.simulate_per_step(generic_model, p, c, increments).x[-1]
    for (r_lo, r_hi), fd in zip(windows, psde.cameron_martin_directional(generic_model, p, c, windows)):
        shifted = increments.copy()
        shifted[round(r_lo / c.dt) : round(r_hi / c.dt)] += 1e-4 * c.dt
        bumped = psde.simulate_per_step(generic_model, p, c, shifted).x[-1]
        assert (fd.base_terminal, fd.shifted_terminal) == (base, bumped)
        assert fd.value == (bumped - base) / 1e-4


def test_eps_too_small_flagged(unit_model):
    p = psde.validate_params(0.0, 0.0)
    c = cfg(n_steps=50, seed=8)
    with pytest.warns(psde.EpsTooSmallWarning) as record:
        results = psde.cameron_martin_directional(unit_model, p, c, [(0.0, 1.0), (0.2, 0.4)], eps=1e-18)
    assert all(fd.eps_too_small for fd in results)
    assert sum(r.category is psde.EpsTooSmallWarning for r in record) == 2


def test_interval_must_hit_grid(unit_model):
    field, _, _ = field_for(unit_model, 0.0, 0.0, n_steps=10, seed=0)
    with pytest.raises(ValueError):
        psde.directional_from_field(field, 0.5, 0.5)


def test_field_size_cap(unit_model, monkeypatch):
    monkeypatch.setattr(psde.malliavin, "MAX_FIELD_STEPS", 32)
    p = psde.validate_params(0.0, 0.0)
    path = psde.simulate_per_step(unit_model, p, cfg(n_steps=64, seed=0))
    with pytest.raises(ValueError):
        psde.derivative_field(path, unit_model, p)


def test_positivity_report_positive_case(generic_model):
    p = psde.validate_params(0.3, -0.2)
    values = []
    for seed in range(50):
        field, _, _ = field_for(generic_model, 0.3, -0.2, n_steps=128, seed=seed, x0=0.5)
        values.append(psde.h_norm_profile(field)[128])
    report = psde.positivity_report(values, t=1.0, sigma_inf=generic_model.sigma_inf)
    assert report.hypothesis_ok
    assert report.minimum > 0.0
    assert report.fraction_at_or_below["0.0"] == 0.0
    assert report.quantiles["0.5"] >= report.quantiles["0.0"]


def test_positivity_quantiles_are_numpys_bit_for_bit():
    # one sort and numpy's linear method, clamped at the last value as numpy
    # clamps it; ties included
    rng = np.random.default_rng(5)
    samples = [rng.exponential(size=n) for n in (1, 2, 7, 100) for _ in range(20)]
    samples += [rng.integers(1, 4, size=n).astype(float) for n in (2, 7, 100)]
    for values in samples:
        report = psde.positivity_report(values, t=1.0, sigma_inf=1.0)
        for q, got in report.quantiles.items():
            assert np.float64(got).tobytes() == np.quantile(values, float(q)).tobytes()


@pytest.mark.parametrize("values", [[], [0.5, np.nan], [np.inf]])
def test_positivity_report_needs_finite_h_norms(values):
    with pytest.raises(ValueError, match="at least one H-norm, all finite"):
        psde.positivity_report(values, t=1.0, sigma_inf=1.0)


@pytest.mark.parametrize(
    "run",
    [
        lambda model, p, c: psde.terminal_h_norms(model, p, c, -1),
        lambda model, p, c: psde.malliavin_pass(model, p, c, [(0.0, 0.5)], 1e-4, n_paths=-2),
    ],
    ids=["terminal_h_norms", "malliavin_pass"],
)
def test_negative_path_count_fails_before_any_draw(generic_model, monkeypatch, run):
    def no_draw(*args):
        raise AssertionError("drivers were drawn")

    monkeypatch.setattr(importlib.import_module("psde.simulate"), "path_drivers", no_draw)
    with pytest.raises(ValueError, match="n_paths must be >= 0"):
        run(generic_model, psde.validate_params(0.3, 0.2), cfg(n_steps=20))


def test_positivity_report_degenerate_sigma():
    degenerate = psde.make_model(psde.sinusoidal(0.0, 1.0), psde.constant(0.0), name="degenerate")
    p = psde.validate_params(0.2, 0.1)
    values = []
    for seed in range(5):
        path = psde.simulate_per_step(degenerate, p, cfg(n_steps=64, seed=seed, x0=0.3))
        field = psde.derivative_field(path, degenerate, p)
        values.append(psde.h_norm_profile(field)[64])
    report = psde.positivity_report(values, t=1.0, sigma_inf=degenerate.sigma_inf)
    assert not report.hypothesis_ok
    assert report.fraction_at_or_below["0.0"] == 1.0
    assert report.to_dict()["hypothesis_ok"] is False


def test_h_norm_grid_refinement_stability(generic_model):
    # halving dt moves the quadrature by a few percent on smooth models
    p = psde.validate_params(0.2, -0.1)
    vals = {}
    for n in (500, 1000):
        inc = psde.brownian_driver(500, 1.0, 11)
        if n == 1000:
            inc = psde.refine_increments(inc, 1.0, seed=12)
        c = cfg(n_steps=n, seed=11, x0=0.5)
        path = psde.simulate_per_step(generic_model, p, c, inc)
        field = psde.derivative_field(path, generic_model, p)
        vals[n] = psde.h_norm_profile(field)[n]
    assert abs(vals[1000] - vals[500]) <= 0.05 * abs(vals[500])


DEGENERATE = psde.make_model(psde.sinusoidal(0.0, 1.0), psde.constant(0.0), name="degenerate")


def per_path_terminal_h_norms(model, p, c, n_paths):
    values = []
    for q in range(n_paths):
        path = psde.simulate_per_step(model, p, dataclasses.replace(c, rng_seed=psde.path_seed(c.rng_seed, q)))
        values.append(psde.h_norm_profile(psde.derivative_field(path, model, p))[c.n_steps])
    return np.array(values)


@pytest.mark.parametrize("n_steps", [1, 2, 64, 1000])
@pytest.mark.parametrize(
    "model, alpha, beta",
    [
        (psde.named_model("unit"), 0.5, 0.0),
        (psde.named_model("smooth-generic"), 0.4, 0.3),
        (psde.named_model("smooth-generic"), 0.3, -0.2),
        (psde.named_model("additive-sine"), 0.05, 0.05),
        (psde.named_model("multiplicative-sine"), 0.2, -0.3),
        (DEGENERATE, 0.2, 0.1),
    ],
    ids=["unit", "generic+", "generic-", "additive", "multiplicative", "degenerate"],
)
def test_terminal_h_norms_bit_identical(model, alpha, beta, n_steps):
    # the backward sweep sums each terminal entry in another order than the
    # forward field, so values agree to 1e-12 relative; on unit (entries 1 or
    # 2) and on the degenerate model (entries 0) both sums are exact
    p = psde.validate_params(alpha, beta)
    c = cfg(n_steps=n_steps, seed=77, x0=0.5)
    batched = psde.terminal_h_norms(model, p, c, 6)
    per_path = per_path_terminal_h_norms(model, p, c, 6)
    if model.name in ("unit", "degenerate"):
        assert batched.tobytes() == per_path.tobytes()
    else:
        assert np.all(np.abs(batched - per_path) <= 1e-12 * np.abs(per_path))


@pytest.mark.parametrize("name, alpha, beta", [("smooth-generic", 0.3, -0.2), ("multiplicative-sine", 0.2, -0.3)])
def test_terminal_h_norms_match_batch_of_one(name, alpha, beta):
    # path q of the ensemble, simulated on its own seed and swept as a batch
    # of one, gives the same H-norm bit for bit
    model = psde.named_model(name)
    p = psde.validate_params(alpha, beta)
    c = cfg(n_steps=200, seed=5, x0=0.5)
    batched = psde.terminal_h_norms(model, p, c, 7)
    for q in range(7):
        path = psde.simulate_per_step(model, p, dataclasses.replace(c, rng_seed=psde.path_seed(c.rng_seed, q)))
        dt = float(path.grid[1] - path.grid[0])
        one = _terminal_h_norms(path.x[:, None], path.dw[:, None], dt, model, p)
        assert one.tobytes() == batched[q : q + 1].tobytes()


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["unit", "smooth-generic", "additive-sine", "multiplicative-sine"]),
    alpha=st.floats(min_value=-2.0, max_value=0.9),
    beta=st.floats(min_value=-2.0, max_value=0.9),
    n=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_adjoint_terminal_column_matches_field(name, alpha, beta, n, seed):
    try:
        p = psde.validate_params(alpha, beta)
    except psde.ParameterRejection:
        assume(False)
    model = psde.named_model(name)
    path = psde.simulate_per_step(model, p, cfg(n_steps=n, seed=seed, x0=0.5))
    x, dw, dt = path.x, path.dw, float(path.grid[1] - path.grid[0])
    *_, column = _columns(x, dw, dt, model, p)
    sig, adj = _terminal_adjoint(x[:, None], dw[:, None], dt, model, p)
    assert np.max(np.abs(sig[:, 0] * adj[:-1, 0] - column)) <= 1e-12 * np.max(np.abs(column))


def test_scheme_tangent_is_the_cameron_martin_limit(generic_model):
    # the Cameron-Martin quotient converges to the scheme's own derivative:
    # at eps = 1e-6 it sits within 1e-6 relative of the tangent's window sum
    # (the field's sum stays ~1e-3 away, its O(dt) convention), and its
    # distance to that sum falls with every decade of eps on every seed
    p = psde.validate_params(0.3, -0.2)
    for seed in range(20):
        c = cfg(n_steps=500, seed=seed, x0=0.5)
        path = psde.simulate_per_step(generic_model, p, c)
        tangent = psde.scheme_tangent(path, generic_model, p)
        assert tangent.shape == (500,)
        exact = float(np.sum(tangent[round(0.1 / c.dt) : round(0.6 / c.dt)])) * c.dt
        fds = {
            eps: psde.cameron_martin_directional(generic_model, p, c, [(0.1, 0.6)], eps=eps)[0].value
            for eps in (1e-3, 1e-4, 1e-5, 1e-6)
        }
        assert abs(fds[1e-6] - exact) <= 1e-6 * abs(fds[1e-6])
        errors = [abs(fds[eps] - exact) for eps in (1e-3, 1e-4, 1e-5)]
        assert errors[0] > errors[1] > errors[2]


def test_terminal_h_norms_chunk_invariant(generic_model, monkeypatch):
    # budgets of 1, 3, 7 and 19 rows cut 20 paths into blocks of 1, 3 (6 x 3
    # + 2), 7 (2 x 7 + 6) and 10, run on two threads
    p = psde.validate_params(0.3, -0.2)
    c = cfg(n_steps=100, seed=3, x0=0.5)
    whole = psde.terminal_h_norms(generic_model, p, c, 20)
    monkeypatch.setenv("PSDE_THREADS", "2")
    for rows in (1, 3, 7, 19):
        monkeypatch.setattr(psde.malliavin, "_H_NORM_BLOCK_BYTES", rows * 8 * (c.n_steps + 1))
        assert psde.terminal_h_norms(generic_model, p, c, 20).tobytes() == whole.tobytes()


@pytest.mark.parametrize("n_paths", [0, 1, 30])
def test_malliavin_pass_is_the_three_runs_bit_for_bit(generic_model, monkeypatch, n_paths):
    # path 0, its Cameron-Martin quotients and the positivity H-norms from one
    # kernel run equal the base simulation, the oracle and the ensemble run
    # apart, also when a budget of 8 rows cuts 30 paths into four blocks
    # (path 0's block then holds 8 paths and the 3 shifted rows) on two threads
    p = psde.validate_params(0.4, 0.3)
    c = cfg(n_steps=200, seed=11, x0=0.5)
    windows = [(0.0, 0.25), (0.25, 0.6), (0.6, 1.0)]
    base = psde.simulate_per_step(generic_model, p, c)
    oracle = psde.cameron_martin_directional(generic_model, p, c, windows, eps=1e-4)
    h_norms = psde.terminal_h_norms(generic_model, p, c, n_paths)
    assert len(h_norms) == n_paths
    for rows, threads in ((128, "1"), (8, "2")):
        monkeypatch.setattr(psde.malliavin, "_H_NORM_BLOCK_BYTES", rows * 8 * (c.n_steps + 1))
        monkeypatch.setenv("PSDE_THREADS", threads)
        path, finite_differences, h_pass = psde.malliavin_pass(generic_model, p, c, windows, 1e-4, n_paths)
        for field in ("grid", "x", "m", "i", "dw"):
            assert getattr(path, field).tobytes() == getattr(base, field).tobytes()
        assert repr(finite_differences) == repr(oracle)
        assert h_pass.tobytes() == h_norms.tobytes()


def test_terminal_h_norms_non_finite_raises():
    # b is below 1e-100 everywhere, so paths stay finite, but |b'| reaches 1e200
    # and the field overflows
    steep = psde.make_model(psde.sinusoidal(0.0, 1e-100, 1e300), psde.constant(1.0), name="steep")
    p = psde.validate_params(0.2, 0.1)
    c = cfg(n_steps=20, seed=1, x0=0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError):
            per_path_terminal_h_norms(steep, p, c, 1)
        with pytest.raises(FloatingPointError):
            psde.terminal_h_norms(steep, p, c, 3)


def test_overflowing_h_norm_raises():
    # sigma = 1e200 keeps every path value and field entry finite, but
    # ||DX||_H^2 ~ 1e400 is no float: every H-norm reader raises
    huge = psde.make_model(psde.constant(0.0), psde.constant(1e200), name="huge")
    p = psde.validate_params(0.0, 0.0)
    c = cfg(n_steps=20, seed=1)
    path = psde.simulate_per_step(huge, p, c)
    field = psde.derivative_field(path, huge, p)
    assert np.all(np.isfinite(field.d))
    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError):
            psde.malliavin.field_profile(path, huge, p)
        with pytest.raises(FloatingPointError):
            psde.h_norm_profile(field)
        with pytest.raises(FloatingPointError):
            psde.terminal_h_norms(huge, p, c, 3)


def reference_field(path, model, p):
    """Per-path recursion down each column's rows, the field's reference."""
    x = path.x
    n = len(x) - 1
    dt = float(path.grid[1] - path.grid[0])
    dw = path.dw
    sig = np.asarray(model.sigma(x), dtype=float)
    step_weight = np.asarray(model.sigma_prime(x[:-1]), dtype=float) * dw + np.asarray(
        model.b_prime(x[:-1]), dtype=float
    ) * dt
    p_idx = psde.running_argmax(x)
    q_idx = psde.running_argmin(x)
    d = np.zeros((n + 1, n + 1))
    source = np.zeros(n + 1)
    for k in range(n + 1):
        if k > 0:
            source[:k] += step_weight[k - 1] * d[:k, k - 1]
        source[k] = sig[k]
        num = source[: k + 1].copy()
        den = 1.0
        if p_idx[k] == k:
            den -= p.alpha
        else:
            num[: p_idx[k] + 1] += p.alpha * d[: p_idx[k] + 1, p_idx[k]]
        if q_idx[k] == k:
            den -= p.beta
        else:
            num[: q_idx[k] + 1] += p.beta * d[: q_idx[k] + 1, q_idx[k]]
        d[: k + 1, k] = num / den
    return d


FIELD_CASES = pytest.mark.parametrize(
    "model, alpha, beta",
    [
        (psde.named_model("unit"), 0.5, 0.0),
        (psde.named_model("smooth-generic"), 0.3, -0.2),
        (psde.named_model("additive-sine"), 0.05, 0.05),
        (psde.named_model("multiplicative-sine"), -0.5, 0.4),
        # sigma = -0.0 fills the field with signed zeros
        (psde.make_model(psde.sinusoidal(0.0, 1.0), psde.constant(-0.0), name="negzero"), 0.2, 0.1),
        (psde.make_model(psde.sinusoidal(0.0, 1.0), psde.constant(-0.0), name="negzero"), -0.3, 0.4),
    ],
    ids=["unit", "generic", "additive", "multiplicative", "negzero+", "negzero-"],
)


@pytest.mark.parametrize("n_steps", [1, 2, 64, 300])
@FIELD_CASES
def test_field_matches_reference_recursion(model, alpha, beta, n_steps):
    p = psde.validate_params(alpha, beta)
    for seed in range(3):
        path = psde.simulate_per_step(model, p, cfg(n_steps=n_steps, seed=seed, x0=0.5))
        field = psde.derivative_field(path, model, p)
        assert field.d.tobytes() == reference_field(path, model, p).tobytes()
        # the unstored recursion gives the field's profile and terminal column
        profile, terminal = psde.malliavin.field_profile(path, model, p)
        assert profile.tobytes() == psde.h_norm_profile(field).tobytes()
        assert terminal.tobytes() == field.d[:, n_steps].tobytes()


@pytest.mark.parametrize("n_steps", [1, 2, 64, 300])
@FIELD_CASES
def test_h_norm_quadrature_has_one_order(model, alpha, beta, n_steps):
    # h_norm_profile and field_profile sum each column down its rows in one
    # order, so they agree bit for bit at every grid time
    p = psde.validate_params(alpha, beta)
    for seed in range(3):
        path = psde.simulate_per_step(model, p, cfg(n_steps=n_steps, seed=seed, x0=0.5))
        field = psde.derivative_field(path, model, p)
        unstored, _ = psde.malliavin.field_profile(path, model, p)
        assert psde.h_norm_profile(field).tobytes() == unstored.tobytes()


def _exp_sigma_path():
    """A two-step path whose only non-finite field entry is d[2, 2] = exp(1000)."""
    exp_sigma = psde.make_model(
        psde.constant(0.0), psde.Coefficient(f=np.exp, f_prime=np.exp, prime_sup=np.inf, inf_abs=0.0)
    )
    x = np.array([0.0, 0.1, 1000.0])
    path = psde.Path(
        grid=np.linspace(0.0, 1.0, 3), x=x, m=np.maximum.accumulate(x), i=np.minimum.accumulate(x),
        dw=np.array([0.1, 0.2]),
    )
    return path, exp_sigma, psde.validate_params(0.0, 0.0)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda m, p: psde.cameron_martin_directional(m, p, cfg(50), [(0.0, 0.5)], eps=0.0), ValueError, "eps"),
        (lambda m, p: psde.cameron_martin_directional(m, p, cfg(50), [(0.0, 0.5)], eps=np.nan), ValueError,
         "eps"),
        (lambda m, p: psde.cameron_martin_directional(m, p, cfg(50), []), ValueError, "window"),
        (lambda m, p: psde.malliavin.field_profile(*_exp_sigma_path()), FloatingPointError, "non-finite entries"),
        (lambda m, p: psde.derivative_field(*_exp_sigma_path()), FloatingPointError, "non-finite entries"),
    ],
    ids=["eps 0", "eps nan", "no windows", "field_profile end check", "derivative_field"],
)
def test_pass_and_field_checks_reject(unit_model, call, error, match):
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(error, match=match):
        call(unit_model, psde.validate_params(0.5, 0.0))
