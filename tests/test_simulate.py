import dataclasses
import math

import numpy as np
import pytest

import psde
from psde import Scheme, SimConfig
from psde.simulate import per_step_terminal_chunk


def cfg(n_steps=200, seed=0, x0=0.0, horizon=1.0, **kw):
    return SimConfig(x0_seed_value=x0, horizon=horizon, n_steps=n_steps, rng_seed=seed, **kw)


def test_driver_deterministic():
    a = psde.brownian_driver(1000, 1.0, 42)
    b = psde.brownian_driver(1000, 1.0, 42)
    c = psde.brownian_driver(1000, 1.0, 43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_driver_moments():
    n = 1_000_000
    dt = 1e-3
    inc = psde.brownian_driver(n, dt * n, 314)
    assert abs(float(np.mean(inc))) <= 4.0 * math.sqrt(dt / n)
    assert abs(float(np.var(inc)) - dt) <= 0.01 * dt


def test_refine_preserves_brownian_path():
    inc = psde.brownian_driver(128, 1.0, 5)
    fine = psde.refine_increments(inc, 1.0, seed=99)
    assert len(fine) == 256
    # pair sums reproduce the coarse increments (up to one rounding)
    assert np.max(np.abs(fine[0::2] + fine[1::2] - inc)) <= 4e-16 * np.max(np.abs(inc))
    # marginal variance of the fine increments is about dt/2
    many = psde.refine_increments(psde.brownian_driver(100_000, 100.0, 6), 100.0, seed=7)
    assert abs(float(np.var(many)) - 0.5e-3) < 0.02e-3


def test_unperturbed_path_is_driver(unit_model):
    p = psde.validate_params(0.0, 0.0)
    path = psde.simulate_per_step(unit_model, p, cfg(n_steps=500, seed=9))
    assert np.array_equal(path.x, path.w)
    assert np.array_equal(path.m, np.maximum.accumulate(path.w))


def test_initial_value_scaling(unit_model):
    p = psde.validate_params(0.4, 0.2)
    path = psde.simulate_per_step(unit_model, p, cfg(n_steps=1, seed=0, x0=1.0))
    assert path.x[0] == pytest.approx(2.5, abs=1e-15)
    assert path.m[0] == path.i[0] == path.x[0]


@pytest.mark.parametrize("alpha", [0.5, 0.3, -0.7])
def test_singly_perturbed_closed_form(unit_model, alpha):
    # beta = 0, sigma = 1, b = 0, x = 0: x_k = W_k + (alpha/(1-alpha)) max(W_k, 0)
    p = psde.validate_params(alpha, 0.0)
    c = alpha / (1.0 - alpha)
    for seed in range(100):
        path = psde.simulate_per_step(unit_model, p, cfg(n_steps=1000, seed=seed))
        ref = path.w + c * np.maximum(np.maximum.accumulate(path.w), 0.0)
        assert np.max(np.abs(path.x - ref)) <= 1e-12


def test_per_step_residual_machine_precision(generic_model):
    p = psde.validate_params(0.3, -0.4)
    path = psde.simulate_per_step(generic_model, p, cfg(n_steps=400, seed=3, x0=0.7))
    res = psde.path_residual(path, generic_model, p)
    scale = float(np.max(np.abs(path.x))) + 1.0
    assert np.max(np.abs(res)) <= 2e-15 * scale


def test_per_step_extremes_track_path(generic_model):
    p = psde.validate_params(0.3, -0.4)
    path = psde.simulate_per_step(generic_model, p, cfg(n_steps=400, seed=4))
    assert np.array_equal(path.m, np.maximum.accumulate(path.x))
    assert np.array_equal(path.i, np.minimum.accumulate(path.x))
    assert np.all(path.i <= path.x) and np.all(path.x <= path.m)


def test_determinism_bit_identical(generic_model):
    p = psde.validate_params(0.2, 0.1)
    c = cfg(n_steps=300, seed=77, x0=0.25)
    one = psde.simulate_per_step(generic_model, p, c)
    two = psde.simulate_per_step(generic_model, p, c)
    for field in ("grid", "x", "m", "i", "w"):
        assert np.array_equal(getattr(one, field), getattr(two, field))


def test_picard_constant_coefficients_single_pass(unit_model):
    # b = 0, sigma = 1: the outer map is constant, X^1 is already the fixed
    # point (a second pass only confirms it)
    p = psde.validate_params(0.4, 0.3)
    c = cfg(n_steps=300, seed=8, picard_outer_iters=2)
    pic = psde.simulate_picard(unit_model, p, c)
    ps = psde.simulate_per_step(unit_model, p, c)
    assert np.max(np.abs(pic.x - ps.x)) <= 1e-12


def test_picard_unperturbed_is_euler_maruyama(generic_model):
    p = psde.validate_params(0.0, 0.0)
    c = cfg(n_steps=200, seed=10, x0=0.4)
    inc = psde.brownian_driver(200, 1.0, 10)
    pic = psde.simulate_picard(generic_model, p, c, inc)
    x = np.empty(201)
    x[0] = 0.4
    for k in range(200):
        x[k + 1] = (
            x[k]
            + float(generic_model.sigma(x[k])) * inc[k]
            + float(generic_model.b(x[k])) * c.dt
        )
    assert np.max(np.abs(pic.x - x)) <= 1e-9


def test_picard_matches_per_step(generic_model):
    # the two schemes solve the same discrete fixed-point system; they agree
    # to the outer stopping tolerance, uniformly in the grid resolution
    p = psde.validate_params(0.4, 0.3)
    for n in (100, 400):
        c = cfg(n_steps=n, seed=21, x0=0.5)
        inc = psde.brownian_driver(n, 1.0, 21)
        a = psde.simulate_per_step(generic_model, p, c, inc)
        b = psde.simulate_picard(generic_model, p, c, inc)
        assert np.max(np.abs(a.x - b.x)) <= 100.0 * c.fixed_point_tol


def test_picard_no_convergence_raises(generic_model):
    p = psde.validate_params(0.4, 0.3)
    c = cfg(n_steps=100, seed=2, picard_outer_iters=1, x0=0.5)
    with pytest.raises(psde.NoConvergenceError):
        psde.simulate_picard(generic_model, p, c)


def test_simulate_dispatch(unit_model):
    p = psde.validate_params(0.1, 0.1)
    a = psde.simulate(unit_model, p, cfg(seed=5, scheme=Scheme.PER_STEP))
    b = psde.simulate(unit_model, p, cfg(seed=5, scheme=Scheme.PICARD))
    assert np.max(np.abs(a.x - b.x)) <= 1e-8


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflow_aborts():
    blow_up = psde.make_model(
        psde.Coefficient(
            f=lambda x: np.exp(np.asarray(x, dtype=float) * 200.0) * 1e300,
            f_prime=lambda x: np.zeros(np.shape(np.asarray(x))),
            lipschitz=0.0,
            prime_sup=0.0,
            inf_abs=0.0,
            spec={"kind": "test-blowup"},
        ),
        psde.constant(1.0),
        name="blow-up",
    )
    p = psde.validate_params(0.2, 0.1)
    with pytest.raises(psde.SimulationAborted):
        psde.simulate_per_step(blow_up, p, cfg(n_steps=50, seed=1, x0=1.0))


def test_declared_bound_violation_detected():
    lying = psde.make_model(
        psde.Coefficient(
            f=lambda x: np.sin(np.asarray(x, dtype=float)) * 5.0,
            f_prime=lambda x: np.cos(np.asarray(x, dtype=float)) * 5.0,
            lipschitz=0.1,  # declared far below the true slope
            prime_sup=0.1,
            inf_abs=0.0,
            spec={"kind": "test-lying"},
        ),
        psde.constant(1.0),
        name="lying",
    )
    p = psde.validate_params(0.0, 0.0)
    with pytest.raises(ValueError, match="b'"):
        psde.simulate_per_step(lying, p, cfg(n_steps=200, seed=3))


def test_vectorized_chunk_bit_identical(generic_model):
    p = psde.validate_params(0.3, -0.2)
    base = cfg(n_steps=64, seed=1000, x0=0.5)
    drivers = np.stack(
        [psde.brownian_driver(64, 1.0, psde.path_seed(1000, i)) for i in range(8)]
    )
    terminals, lo, hi = per_step_terminal_chunk(generic_model, p, 0.5, base.dt, drivers)
    trajectories = np.empty((65, 8))
    recorded = per_step_terminal_chunk(generic_model, p, 0.5, base.dt, drivers, trajectories)
    assert np.array_equal(recorded[0], terminals) and recorded[1:] == (lo, hi)
    for i in range(8):
        single = psde.simulate_per_step(
            generic_model, p, dataclasses.replace(base, rng_seed=psde.path_seed(1000, i))
        )
        assert single.x[-1] == terminals[i]
        assert trajectories[:, i].tobytes() == single.x.tobytes()
        assert lo <= np.min(single.x) and hi >= np.max(single.x)
