import dataclasses
import functools
import importlib
import json
import math
import re
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import psde
import psde.cli
from psde import Scheme, SimConfig
from psde.simulate import _PICARD_WINDOW, path_drivers, per_step_terminal_chunk, picard_chunk
from psde.skorokhod import max_min_rows

SIMULATE = importlib.import_module("psde.simulate")  # psde.simulate is the function


def cfg(n_steps=200, seed=0, x0=0.0, horizon=1.0, **kw):
    return SimConfig(x0_seed_value=x0, horizon=horizon, n_steps=n_steps, rng_seed=seed, **kw)


@pytest.mark.parametrize("field, value", [("picard_outer_iters", 0), ("fixed_point_tol", 0.0), ("fixed_point_tol", -1.0)])
def test_config_rejects_picard_settings_that_cannot_run(field, value):
    with pytest.raises(ValueError, match=field):
        cfg(**{field: value})


@pytest.mark.parametrize(
    "field, value", [("horizon", math.nan), ("horizon", math.inf), ("horizon", 0.0), ("x0", math.nan), ("x0", -math.inf)]
)
def test_config_rejects_non_finite_grid_and_seed_value(field, value):
    with pytest.raises(ValueError, match=field):
        cfg(**{field: value})


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


def test_bridge_midpoints_do_not_replay_driver():
    # the midpoint normals of seed s are not the driver normals of seed s
    inc = psde.brownian_driver(256, 1.0, 11)
    fine = psde.refine_increments(inc, 1.0, seed=11)
    z = (2.0 * fine[0::2] - inc) / math.sqrt(1.0 / 256)
    assert not np.allclose(z, inc / math.sqrt(1.0 / 256))


def test_refinement_ladder_refines_one_path():
    ladder = psde.refinement_ladder(cfg(n_steps=50, seed=4), 3)
    assert [c.n_steps for c, _ in ladder] == [50, 100, 200]
    assert np.array_equal(ladder[0][1], psde.brownian_driver(50, 1.0, 4))
    for (_, coarse), (_, fine) in zip(ladder, ladder[1:]):
        assert np.max(np.abs(fine[0::2] + fine[1::2] - coarse)) <= 4e-16 * np.max(np.abs(coarse))
    assert np.array_equal(ladder[2][1], psde.refine_increments(ladder[1][1], 1.0, psde.path_seed(4, 2)))


def test_refinement_ladder_cap_refuses_before_drawing(monkeypatch):
    # a finest level past MAX_LADDER_STEPS is refused before any driver is
    # drawn, whatever the number of levels; a finest level at the cap runs
    monkeypatch.setattr(SIMULATE, "MAX_LADDER_STEPS", 200)
    assert [c.n_steps for c, _ in psde.refinement_ladder(cfg(n_steps=50, seed=4), 3)] == [50, 100, 200]

    def no_draws(*args):
        raise AssertionError("a driver was drawn")

    monkeypatch.setattr(SIMULATE, "brownian_driver", no_draws)
    for n_steps, n_levels in ((50, 4), (201, 1), (50, 10**18)):
        with pytest.raises(ValueError, match="MAX_LADDER_STEPS"):
            psde.refinement_ladder(cfg(n_steps=n_steps, seed=4), n_levels)


def test_a_ladder_has_at_least_one_level():
    # a request for no levels is refused, not answered with the coarse driver,
    # and the Lamperti check refuses it by the same rule
    for n_levels in (-3, 0):
        for ask in (
            lambda: SIMULATE.check_ladder(50, n_levels),
            lambda: psde.refinement_ladder(cfg(n_steps=50, seed=4), n_levels),
            lambda: psde.pathwise_reduction_check(
                psde.named_model("unit"), psde.validate_params(0.0, 0.0), cfg(n_steps=50, seed=4), n_levels
            ),
        ):
            with pytest.raises(ValueError, match="n_levels >= 1"):
                ask()
    assert [len(psde.refinement_ladder(cfg(n_steps=50, seed=4), n)) for n in (1, 2)] == [1, 2]


def test_ladder_and_ensemble_drivers_need_a_master_seed():
    # a per-path seed has a driver of its own, but no ensemble and no ladder
    c = cfg(n_steps=8, seed=psde.path_seed(4, 1))
    own = psde.brownian_driver(8, 1.0, c.rng_seed)
    assert np.array_equal(own, psde.path_drivers(cfg(n_steps=8, seed=4), 1, 2)[0])
    for build in (lambda: psde.refinement_ladder(c, 1), lambda: psde.path_drivers(c, 0, 1)):
        with pytest.raises(ValueError, match=r"2\*\*64"):
            build()


def test_path_seed_range():
    top = 2**64 - 1
    assert psde.path_seed(5, 3) == 5 + 3 * 2**64
    assert psde.path_seed(top, top) == 2**128 - 1
    for master, path in ((-1, 0), (0, -1), (2**64, 0), (0, 2**64)):
        with pytest.raises(ValueError):
            psde.path_seed(master, path)
    for seed in (-1, 2**128):
        with pytest.raises(ValueError):
            psde.brownian_driver(4, 1.0, seed)


def test_path_drivers_column_major_rows_match_standalone():
    # 1000 steps make 128-path blocks; 5..140 crosses a block boundary at path 133
    c = cfg(n_steps=1000, seed=12)
    drivers = psde.path_drivers(c, 5, 140)
    assert drivers.shape == (135, 1000) and drivers.flags.f_contiguous
    for p in (5, 68, 69, 70, 132, 133, 134, 139):
        assert drivers[p - 5].tobytes() == psde.brownian_driver(1000, 1.0, psde.path_seed(12, p)).tobytes()
    # a caller's buffer, in either order and holding anything, gets the same values
    for order in ("C", "F"):
        out = np.full((135, 1000), np.nan, order=order)
        assert psde.path_drivers(c, 5, 140, out) is out
        assert np.array_equal(out, drivers)


def test_ensembles_on_different_seeds_draw_different_drivers():
    multisets = [np.sort(psde.path_drivers(cfg(n_steps=32, seed=s), 0, 64), axis=None) for s in range(4)]
    for a in range(4):
        for b in range(a + 1, 4):
            assert not np.array_equal(multisets[a], multisets[b])


@pytest.mark.parametrize("scheme, kernel, position", [(Scheme.PER_STEP, "per_step_terminal_chunk", 4), (Scheme.PICARD, "picard_chunk", 3)])
def test_path_keeps_the_increments_it_consumed(generic_model, monkeypatch, scheme, kernel, position):
    # dw is the path's own copy of the drivers its kernel read, bit for bit,
    # drawn or given; w and dt are derived from it
    consumed = []
    original = getattr(SIMULATE, kernel)

    def recording(*args):
        consumed.append(args[position][0].copy())
        return original(*args)

    monkeypatch.setattr(SIMULATE, kernel, recording)
    p = psde.validate_params(0.3, -0.2)
    c = cfg(n_steps=300, seed=6, x0=0.5, scheme=scheme)
    given = psde.refine_increments(psde.brownian_driver(150, 1.0, 3), 1.0, 4)
    drawn = psde.simulate(generic_model, p, c)
    kept = psde.simulate(generic_model, p, c, given)
    assert drawn.dw.tobytes() == consumed[0].tobytes() == psde.brownian_driver(300, 1.0, 6).tobytes()
    assert kept.dw.tobytes() == consumed[1].tobytes() == given.tobytes()
    assert not np.shares_memory(kept.dw, given)
    assert kept.dt == c.dt
    assert kept.w.tobytes() == np.concatenate(([0.0], np.cumsum(given))).tobytes()


@pytest.mark.parametrize("simulate", ["simulate_per_step", "simulate_picard"])
@pytest.mark.parametrize("shape", [(5,), (20,), (2, 10)])
def test_single_path_refuses_increments_of_another_shape(unit_model, monkeypatch, simulate, shape):
    # 10 steps take exactly 10 increments, checked before any kernel runs
    def no_kernel(*args):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(SIMULATE, "per_step_terminal_chunk", no_kernel)
    monkeypatch.setattr(SIMULATE, "picard_chunk", no_kernel)
    increments = psde.brownian_driver(math.prod(shape), 1.0, 1).reshape(shape)
    with pytest.raises(ValueError, match=rf"n_steps.*\(10,\).*{re.escape(str(shape))}"):
        getattr(psde, simulate)(unit_model, psde.validate_params(0.3, 0.0), cfg(n_steps=10, seed=1), increments)


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


@pytest.mark.parametrize("name", ["unit", "additive-sine", "multiplicative-sine"])
def test_constant_coefficients_enter_as_scalars(name):
    # the per-step kernel multiplies a constant b or sigma in as its value;
    # the same model without its spec evaluates the arrays, and both kernels
    # agree bit for bit
    model = psde.named_model(name)
    assert model.constant_value("b") is not None or model.constant_value("sigma") is not None
    arrays = dataclasses.replace(model, spec={})
    assert arrays.constant_value("b") is None and arrays.constant_value("sigma") is None
    p = psde.validate_params(0.4, -0.3)
    c = cfg(n_steps=100, seed=4, x0=-0.0)
    drivers = path_drivers(c, 0, 6)

    def per_step(m):
        trajectories = np.empty((101, 6))
        return (*per_step_terminal_chunk(m, p, c.x0_seed_value, c.dt, drivers, trajectories), trajectories)

    for kernel in (per_step, lambda m: picard_chunk(m, p, c, drivers)):
        for got, want in zip(kernel(model), kernel(arrays)):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


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


def test_picard_kernel_rows_match_batch_of_one(generic_model, monkeypatch):
    # n = 2L + 3 crosses two window boundaries, and a 3-row block budget runs
    # the ensemble's 7 paths as blocks of 3, 3 and 1
    p = psde.validate_params(0.4, 0.3)
    c = cfg(n_steps=2 * _PICARD_WINDOW + 3, seed=31, x0=0.5, scheme=Scheme.PICARD)
    drivers = path_drivers(c, 0, 7)
    x, m, i = picard_chunk(generic_model, p, c, drivers)
    for r in range(7):
        one = psde.simulate_picard(generic_model, p, c, drivers[r])
        for got, want in zip((x[r], m[r], i[r]), (one.x, one.m, one.i)):
            assert got.tobytes() == want.tobytes()
    monkeypatch.setattr(psde.density, "_PICARD_BLOCK_BYTES", 3 * 8 * (_PICARD_WINDOW + 1))
    for threads in ("1", "2"):
        monkeypatch.setenv("PSDE_THREADS", threads)
        e = psde.generate_ensemble(generic_model, p, c, 7)
        assert e.terminal_values.tobytes() == x[:, -1].tobytes()


def _reference_picard(model, params, cfg, drivers):
    """The Picard scheme by whole-path passes: x, m, i of every row.

    Each pass freezes sigma and b along the previous iterate of the whole
    path (at first the constant x/(1-alpha)), sums the driving path from
    a_0 = x and solves its max/min system; a row stops at its own
    cfg.fixed_point_tol.
    """
    alpha, beta = params.alpha, params.beta
    inc = np.asarray(drivers, dtype=float)
    x = np.full((len(inc), cfg.n_steps + 1), cfg.x0_seed_value / (1.0 - alpha))
    out = [np.empty_like(x) for _ in range(3)]
    live = np.arange(len(inc))
    for _ in range(cfg.picard_outer_iters):
        a = np.empty_like(x)
        a[:, 0] = 0.0
        sig, drift = np.asarray(model.sigma(x[:, :-1])), np.asarray(model.b(x[:, :-1]))
        np.cumsum(sig * inc[live] + drift * cfg.dt, axis=1, out=a[:, 1:])
        a += cfg.x0_seed_value
        m, i, sweeps, _ = max_min_rows(a, alpha, beta)
        assert sweeps.all()
        x_next = a + alpha * m + beta * i
        done = np.max(np.abs(x_next - x), axis=1) <= cfg.fixed_point_tol
        for o, v in zip(out, (x_next, m, i)):
            o[live[done]] = v[done]
        live, x = live[~done], x_next[~done]
        if not len(live):
            return tuple(out)
    raise AssertionError(f"rows {live} above tol after {cfg.picard_outer_iters} passes")


@pytest.mark.parametrize("n", [1, _PICARD_WINDOW - 1, _PICARD_WINDOW, _PICARD_WINDOW + 1, 2 * _PICARD_WINDOW + 3, 1000])
@pytest.mark.parametrize(
    "name,alpha,beta,x0",
    [
        ("unit", 0.4, 0.3, 0.0),
        ("smooth-generic", 0.4, 0.3, 0.5),
        ("additive-sine", 0.3, -0.4, -0.3),
        ("multiplicative-sine", -0.5, 0.4, 0.25),
    ],
)
def test_windowed_picard_matches_whole_path_passes(name, alpha, beta, x0, n):
    # both find the one discrete fixed point, each to the outer tolerance
    model = psde.named_model(name)
    p = psde.validate_params(alpha, beta)
    c = cfg(n_steps=n, seed=n, x0=x0, scheme=Scheme.PICARD)
    drivers = path_drivers(c, 0, 4)
    for got, want in zip(picard_chunk(model, p, c, drivers), _reference_picard(model, p, c, drivers)):
        assert np.max(np.abs(got - want)) <= 100.0 * c.fixed_point_tol


def test_picard_failure_past_the_first_window(generic_model, monkeypatch):
    # 13 passes per window leave path 14 of seed 0 above tol = 1e-10 on its
    # second window; the report names that window and carries its history
    p = psde.validate_params(0.4, 0.3)
    c = cfg(n_steps=2 * _PICARD_WINDOW + 3, seed=0, x0=0.5, scheme=Scheme.PICARD, picard_outer_iters=13)
    window = f"on steps {_PICARD_WINDOW + 1}..{2 * _PICARD_WINDOW} after 13 passes"
    monkeypatch.setattr(psde.density, "_PICARD_BLOCK_BYTES", 4 * 8 * (_PICARD_WINDOW + 1))
    monkeypatch.setenv("PSDE_THREADS", "2")
    with pytest.raises(psde.NoConvergenceError) as whole:
        psde.generate_ensemble(generic_model, p, c, 20)
    assert whole.value.path == 14
    assert window in str(whole.value) and str(whole.value).endswith("(ensemble path 14)")
    psde.generate_ensemble(generic_model, p, c, 14)  # the paths before it converge
    with pytest.raises(psde.NoConvergenceError) as alone:
        psde.simulate_picard(generic_model, p, dataclasses.replace(c, rng_seed=psde.path_seed(0, 14)))
    assert alone.value.path == 0 and window in str(alone.value)
    assert alone.value.history == whole.value.history and len(alone.value.history) == 13
    # a non-finite driver past the first window aborts at its grid step
    drivers = path_drivers(c, 0, 3)
    drivers[1, _PICARD_WINDOW + 50] = np.nan
    with pytest.raises(psde.SimulationAborted) as aborted:
        picard_chunk(generic_model, p, dataclasses.replace(c, picard_outer_iters=50), drivers)
    assert (aborted.value.path, aborted.value.step) == (1, _PICARD_WINDOW + 51)


@pytest.mark.parametrize("value", ["abc", "1.5", "0", "-2", ""])
def test_psde_threads_below_one_or_not_an_integer_rejected(unit_model, monkeypatch, tmp_path, capsys, value):
    # a ValueError that names the variable and quotes the value, raised
    # before any block draws or any thread starts; the CLI exits 2 and
    # writes nothing
    def refuse(*args, **kwargs):
        raise AssertionError("a block drew or a thread started")

    monkeypatch.setenv("PSDE_THREADS", value)
    monkeypatch.setattr(SIMULATE, "path_drivers", refuse)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    message = f"PSDE_THREADS must be an integer >= 1, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        SIMULATE.run_ensemble(unit_model, cfg(n_steps=100), 100, refuse, 8 * 100, 8 * 100 * 30)
    config = {
        "model": {"preset": "unit"},
        "params": {"alpha": 0.5, "beta": 0.0},
        "sim": {"x0": 0.0, "horizon": 1.0, "n_steps": 100, "seed": 7},
        "analysis": {"n_paths": 100},
        "output_dir": str(tmp_path / "out"),
    }
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert psde.cli.main(["density", "--config", str(tmp_path / "cfg.json"), "--quiet"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["message"]) == ("ValueError", message)
    assert not (tmp_path / "out").exists()


def test_psde_threads_unset_means_one(unit_model, monkeypatch):
    # ten blocks run in order on the calling thread
    def refuse(*args, **kwargs):
        raise AssertionError("a thread started")

    def kernel(first, drivers):
        return drivers[:, -1].copy(), 0.0, 0.0

    monkeypatch.delenv("PSDE_THREADS", raising=False)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    c = cfg(n_steps=100)
    got = SIMULATE.run_ensemble(unit_model, c, 100, kernel, 8 * 100, 8 * 100 * 10)
    assert got.tobytes() == path_drivers(c, 0, 100)[:, -1].tobytes()


def test_stuck_max_min_rows_fail_the_picard_kernel(unit_model, monkeypatch, tmp_path, capsys):
    # with one max/min sweep allowed, the first pass of a window leaves some
    # rows above tol: the lowest of them, path 1 of seed 1 (path 0 gets
    # through), fails with its sweep history, in an ensemble and alone
    monkeypatch.setattr(SIMULATE, "max_min_rows", functools.partial(max_min_rows, max_iter=1))
    p = psde.validate_params(0.4, 0.3)
    c = cfg(n_steps=50, seed=1, scheme=Scheme.PICARD)
    with pytest.raises(psde.NoConvergenceError) as whole:
        psde.generate_ensemble(unit_model, p, c, 8)
    assert whole.value.path == 1
    message = str(whole.value)
    assert message.startswith("max/min fixed point above tol") and message.endswith("(ensemble path 1)")
    psde.generate_ensemble(unit_model, p, c, 1)  # path 0 converges
    with pytest.raises(psde.NoConvergenceError) as alone:
        psde.simulate_picard(unit_model, p, dataclasses.replace(c, rng_seed=psde.path_seed(1, 1)))
    assert alone.value.path == 0
    assert alone.value.history == whole.value.history and len(whole.value.history) == 1
    # the CLI reports it with exit 3 and writes nothing
    config = {
        "model": {"preset": "unit"},
        "params": {"alpha": 0.4, "beta": 0.3},
        "sim": {"x0": 0.0, "horizon": 1.0, "n_steps": 50, "seed": 1, "scheme": "picard"},
        "analysis": {"n_paths": 8},
        "output_dir": str(tmp_path / "out"),
    }
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert psde.cli.main(["density", "--config", str(tmp_path / "cfg.json"), "--quiet"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["path"], err["history"]) == ("NoConvergenceError", 1, whole.value.history)
    assert not (tmp_path / "out").exists()


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
            prime_sup=0.0,
            inf_abs=0.0,
            spec={"kind": "test-blowup"},
        ),
        psde.constant(1.0),
        name="blow-up",
    )
    p = psde.validate_params(0.2, 0.1)
    with pytest.raises(psde.SimulationAborted, match=r"path 0 at step \d+") as excinfo:
        psde.simulate_per_step(blow_up, p, cfg(n_steps=50, seed=1, x0=1.0))
    assert excinfo.value.path == 0
    assert str(excinfo.value).endswith(f"at step {excinfo.value.step}")


def test_declared_bound_violation_detected():
    lying = psde.make_model(
        psde.Coefficient(
            f=lambda x: np.sin(np.asarray(x, dtype=float)) * 5.0,
            f_prime=lambda x: np.cos(np.asarray(x, dtype=float)) * 5.0,
            prime_sup=0.1,  # declared far below the true slope
            inf_abs=0.0,
            spec={"kind": "test-lying"},
        ),
        psde.constant(1.0),
        name="lying",
    )
    p = psde.validate_params(0.0, 0.0)
    with pytest.raises(ValueError, match="b'"):
        psde.simulate_per_step(lying, p, cfg(n_steps=200, seed=3))


def _reference_per_step(model, params, x0_seed_value, dt, increments):
    """The per-step scheme as a scalar loop over one path: x, m, i."""
    alpha, beta = params.alpha, params.beta
    n = len(increments)
    x = np.empty(n + 1)
    m = np.empty(n + 1)
    i_arr = np.empty(n + 1)
    x0 = x0_seed_value / (1.0 - alpha - beta)
    x[0] = m[0] = i_arr[0] = x0
    xk, mk, ik = x0, x0, x0
    for k in range(n):
        u = xk + float(np.asarray(model.sigma(xk))) * increments[k] + float(np.asarray(model.b(xk))) * dt
        if u > mk:
            solved = (u - alpha * mk) / (1.0 - alpha)
            xk = mk = mk if mk > solved else solved
        elif u < ik:
            solved = (u - beta * ik) / (1.0 - beta)
            xk = ik = ik if ik < solved else solved
        else:
            xk = u
        x[k + 1] = xk
        m[k + 1] = mk
        i_arr[k + 1] = ik
    return x, m, i_arr


def test_a_solve_that_rounds_back_onto_its_extreme_is_a_tie(unit_model):
    # u = X_0 + dW is one ulp above X_0, and (u - 0.3 X_0) / 0.7 rounds back
    # onto X_0: an ordinary alpha, no NaN and no overflow.  The path stays at
    # its maximum, which does not move
    p = psde.validate_params(0.3, 0.0)
    x0_seed_value = -4.767757315013672
    increments = np.array([8.881784197001252e-16])
    c = SimConfig(x0_seed_value=x0_seed_value, horizon=1.0, n_steps=1, rng_seed=0)
    x0 = x0_seed_value / (1.0 - 0.3 - 0.0)
    path = psde.simulate_per_step(unit_model, p, c, increments)
    x, m, i_arr = _reference_per_step(unit_model, p, x0_seed_value, c.dt, increments)
    assert path.x.tobytes() == x.tobytes() == np.array([x0, x0]).tobytes()
    assert path.m.tobytes() == m.tobytes() == np.array([x0, x0]).tobytes()
    assert path.i.tobytes() == i_arr.tobytes() == np.array([x0, x0]).tobytes()


def _assert_kernel_matches_reference(model, p, x0_seed_value, horizon, drivers):
    n_paths, n = drivers.shape
    c = SimConfig(x0_seed_value=x0_seed_value, horizon=horizon, n_steps=n, rng_seed=0)
    dt = c.dt
    trajectories = np.empty((n + 1, n_paths))
    terminals, lo, hi = per_step_terminal_chunk(model, p, x0_seed_value, dt, drivers, trajectories)
    refs = [_reference_per_step(model, p, x0_seed_value, dt, row) for row in drivers]
    for col, (x, _, _) in enumerate(refs):
        assert trajectories[:, col].tobytes() == x.tobytes()
    assert terminals.tobytes() == np.array([x[-1] for x, _, _ in refs]).tobytes()
    lo_ref = min(i_arr[-1] for _, _, i_arr in refs)
    hi_ref = max(m[-1] for _, m, _ in refs)
    assert np.array([lo, hi]).tobytes() == np.array([lo_ref, hi_ref]).tobytes()
    path = psde.simulate_per_step(model, p, c, drivers[0])
    for got, want in zip((path.x, path.m, path.i), refs[0]):
        assert got.tobytes() == want.tobytes()


def test_vectorized_chunk_bit_identical(generic_model):
    p = psde.validate_params(0.3, -0.2)
    drivers = np.stack(
        [psde.brownian_driver(64, 1.0, psde.path_seed(1000, i)) for i in range(8)]
    )
    _assert_kernel_matches_reference(generic_model, p, 0.5, 1.0, drivers)


@pytest.mark.parametrize("n", [1, 2, 64, 1000])
@pytest.mark.parametrize(
    "name,alpha,beta,x0",
    [
        ("unit", 0.5, 0.0, 0.0),
        ("unit", -0.7, 0.4, 0.0),
        ("smooth-generic", 0.3, -0.2, 0.5),
        ("additive-sine", 0.05, 0.05, -0.3),
        ("multiplicative-sine", 0.2, -0.3, 0.25),
        ("smooth-generic", 0.0, -0.3, 0.5),
        ("multiplicative-sine", -0.6, 0.0, 0.25),
    ],
)
def test_kernel_matches_reference_loop(name, alpha, beta, x0, n):
    model = psde.named_model(name)
    p = psde.validate_params(alpha, beta)
    drivers = np.stack([psde.brownian_driver(n, 1.0, psde.path_seed(7 * n, q)) for q in range(5)])
    _assert_kernel_matches_reference(model, p, x0, 1.0, drivers)


def test_running_extremes_keep_signed_zero(unit_model):
    # from x = -0.0 on zero increments every later value is +0.0: a tie, so
    # the running extremes keep the earlier -0.0, as the scalar loop does
    p = psde.validate_params(0.0, 0.0)
    _assert_kernel_matches_reference(unit_model, p, -0.0, 1.0, np.zeros((2, 10)))
    path = psde.simulate_per_step(unit_model, p, cfg(n_steps=10, x0=-0.0), np.zeros(10))
    assert np.signbit(path.m).all() and np.signbit(path.i).all()


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["unit", "smooth-generic", "additive-sine", "multiplicative-sine"]),
    alpha=st.floats(min_value=-2.0, max_value=0.9),
    beta=st.floats(min_value=-2.0, max_value=0.9),
    n=st.integers(min_value=1, max_value=64),
    batch=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_batch_rows_match_batch_of_one(name, alpha, beta, n, batch, seed):
    try:
        p = psde.validate_params(alpha, beta)
    except psde.ParameterRejection:
        assume(False)
    model = psde.named_model(name)
    drivers = np.stack([psde.brownian_driver(n, 1.0, psde.path_seed(seed, q)) for q in range(batch)])
    trajectories = np.empty((n + 1, batch))
    terminals, _, _ = per_step_terminal_chunk(model, p, 0.3, 1.0 / n, drivers, trajectories)
    for q in range(batch):
        one = np.empty((n + 1, 1))
        terminal, lo, hi = per_step_terminal_chunk(model, p, 0.3, 1.0 / n, drivers[q : q + 1], one)
        assert terminal.tobytes() == terminals[q : q + 1].tobytes()
        assert one[:, 0].tobytes() == trajectories[:, q].tobytes()
        assert np.array([lo, hi]).tobytes() == np.array([one.min(), one.max()]).tobytes()


def _assert_levels_match_reference(model, p, levels):
    # every level of the batch against the scalar loop run on it alone
    paths = psde.simulate_per_step_levels(model, p, levels)
    assert len(paths) == len(levels)
    for (c, inc), path in zip(levels, paths):
        for got, want in zip((path.x, path.m, path.i), _reference_per_step(model, p, c.x0_seed_value, c.dt, inc)):
            assert got.tobytes() == want.tobytes()
        assert path.dw.tobytes() == inc.tobytes() and path.grid.tobytes() == c.grid().tobytes()


@pytest.mark.parametrize("n_steps, n_levels, seed", [(1, 1, 0), (1, 4, 2), (50, 3, 4), (37, 4, 11)])
def test_levels_match_reference_loop_per_level(generic_model, n_steps, n_levels, seed):
    p = psde.validate_params(0.3, -0.2)
    ladder = psde.refinement_ladder(cfg(n_steps=n_steps, seed=seed, x0=0.5), n_levels)
    _assert_levels_match_reference(generic_model, p, ladder)
    # the levels come back in the given order, whatever it is
    _assert_levels_match_reference(generic_model, p, ladder[::-1])
    # levels of one length on different drivers and horizons
    same = [cfg(n_steps=n_steps, seed=seed + q, x0=0.5, horizon=0.5 + q) for q in range(3)]
    drawn = [(c, psde.brownian_driver(n_steps, c.horizon, c.rng_seed)) for c in same]
    _assert_levels_match_reference(generic_model, p, drawn)


def test_levels_past_the_batch_budget_run_as_more_kernel_calls(generic_model, monkeypatch):
    # a level joins the batch of the longer levels only while its drivers and
    # trajectories, 16 bytes a cell, fit the budget: here two rows of 160 steps
    rows, kernel = [], SIMULATE.per_step_terminal_chunk

    def counting(*args):
        rows.append(len(args[4]))
        return kernel(*args)

    monkeypatch.setattr(SIMULATE, "per_step_terminal_chunk", counting)
    monkeypatch.setattr(SIMULATE, "_LEVEL_BATCH_BYTES", 16 * 2 * 161)
    ladder = psde.refinement_ladder(cfg(n_steps=10, seed=5, x0=0.5), 5)
    _assert_levels_match_reference(generic_model, psde.validate_params(0.3, -0.2), ladder)
    assert rows == [2, 3]  # 160 and 80 steps, then 40, 20 and 10


def test_levels_of_the_reduced_model_match_reference_loop(generic_model):
    # the Y levels of a Lamperti check: the reduced additive model from X_0 = 0
    p = psde.validate_params(0.4, 0.3)
    c = cfg(n_steps=60, seed=3)
    transform = psde.pathwise_reduction_check(generic_model, p, c).transform
    additive = psde.make_model(transform.reduced_drift_coefficient(), psde.constant(1.0))
    ladder = [(dataclasses.replace(lc, x0_seed_value=0.0), inc) for lc, inc in psde.refinement_ladder(c, 3)]
    _assert_levels_match_reference(additive, p, ladder)


@pytest.mark.parametrize("x0s", [(), (0.0, 1.0), (0.0, -0.0)])
def test_levels_are_some_and_share_the_seed_value(unit_model, x0s):
    levels = [(cfg(x0=x0), None) for x0 in x0s]
    with pytest.raises(ValueError, match="at least one level.*share x0_seed_value"):
        psde.simulate_per_step_levels(unit_model, psde.validate_params(0.3, 0.0), levels)


def _exp_sigma_model():
    # sigma(x) = exp(x): zero increments keep a path at 0, a large one overflows it
    exp = lambda x: np.exp(np.asarray(x, dtype=float))  # noqa: E731
    return psde.make_model(
        psde.constant(0.0), psde.Coefficient(exp, exp, math.inf, 0.0, {"kind": "test-exp"}), name="exp-sigma"
    )


def _blow_up_increments(n, at):
    # one large increment at step `at`, then ones: the path is inf from step at + 2
    inc = np.zeros(n)
    inc[at] = 1000.0
    inc[at + 1 :] = 1.0
    return inc


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("keep_trajectories", [False, True])
def test_ragged_batch_names_a_short_row_failure_as_its_batch_of_one(keep_trajectories):
    model, p = _exp_sigma_model(), psde.validate_params(0.2, 0.1)
    counts = np.array([12, 8, 5])
    drivers = np.zeros((3, 12))
    drivers[2, :5] = _blow_up_increments(5, 1)
    dts = 1.0 / counts
    with pytest.raises(psde.SimulationAborted) as batch:
        per_step_terminal_chunk(model, p, 0.0, dts, drivers, np.empty((13, 3)) if keep_trajectories else None, counts)
    with pytest.raises(psde.SimulationAborted) as alone:
        per_step_terminal_chunk(model, p, 0.0, dts[2], drivers[2:, :5], np.empty((6, 1)) if keep_trajectories else None)
    assert (batch.value.path, batch.value.step) == (2, alone.value.step) == (2, 3)
    assert alone.value.path == 0
    # the long rows ran on: the short row's failure is reported after every step
    finite = per_step_terminal_chunk(model, p, 0.0, dts[:2], drivers[:2], None, counts[:2])[0]
    assert finite.tobytes() == np.zeros(2).tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_failing_levels_raise_the_first_failing_level_alone():
    # the kernel meets the finest failing level first (row 0), the levels
    # run alone in the given order meet the coarsest: that error is raised
    model, p = _exp_sigma_model(), psde.validate_params(0.2, 0.1)
    coarse, middle, fine = cfg(n_steps=5), cfg(n_steps=8), cfg(n_steps=12)
    levels = [(coarse, _blow_up_increments(5, 2)), (middle, np.zeros(8)), (fine, _blow_up_increments(12, 6))]
    for raised, first in ((levels, levels[0]), (levels[1:], levels[2])):
        with pytest.raises(psde.SimulationAborted) as batch:
            psde.simulate_per_step_levels(model, p, raised)
        with pytest.raises(psde.SimulationAborted) as alone:
            psde.simulate_per_step(model, p, *first)
        assert (str(batch.value), batch.value.step, batch.value.path) == (
            str(alone.value), alone.value.step, alone.value.path
        )
    assert alone.value.step == 8


def test_a_coefficient_failure_in_a_batch_is_the_first_failing_level_alone():
    # sigma refuses |x| > 5, naming the values it was given (as G^-1 names
    # its point): the batch meets the fine level's value first, the levels
    # run alone in the given order meet the coarse level's
    def sigma(x):
        x = np.asarray(x, dtype=float)
        if np.any(np.abs(x) > 5.0):
            raise FloatingPointError(f"sigma refuses {x.tolist()}")
        return np.ones(x.shape)

    zero = lambda x: np.zeros(np.shape(x))  # noqa: E731
    model = psde.make_model(psde.constant(0.0), psde.Coefficient(sigma, zero, 0.0, 1.0, {"kind": "test-refusing"}))
    p = psde.validate_params(0.0, 0.0)
    coarse, fine = np.zeros(5), np.zeros(12)
    coarse[2] = fine[0] = 10.0
    levels = [(cfg(n_steps=5), coarse), (cfg(n_steps=12), fine)]
    with pytest.raises(FloatingPointError) as batch:
        psde.simulate_per_step_levels(model, p, levels)
    with pytest.raises(FloatingPointError) as alone:
        psde.simulate_per_step(model, p, *levels[0])
    assert str(batch.value) == str(alone.value) == "sigma refuses [10.0]"


def test_kernel_refuses_step_counts_that_are_no_live_prefix(unit_model):
    p = psde.validate_params(0.3, 0.0)
    drivers = np.zeros((3, 6))
    for counts in ([4, 6, 2], [6, 6, 7], [6, 2], [6, 2, -1]):
        with pytest.raises(ValueError, match="non-increasing"):
            per_step_terminal_chunk(unit_model, p, 0.0, 0.1, drivers, None, np.array(counts))


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: SimConfig(x0_seed_value=0.0, horizon=1.0, n_steps=0, rng_seed=0), "n_steps"),
        (lambda: psde.brownian_driver(0, 1.0, 0), "n_steps"),
        (lambda: psde.refine_increments(np.array([]), 1.0, 0), "non-empty 1-d"),
        (lambda: psde.refine_increments(np.zeros((2, 2)), 1.0, 0), "non-empty 1-d"),
        (lambda: psde.refine_increments(np.float64(1.0), 1.0, 0), "non-empty 1-d"),
    ],
    ids=["config", "driver", "no increments", "2-d increments", "0-d increments"],
)
def test_grid_and_driver_checks_reject(call, match):
    with pytest.raises(ValueError, match=match):
        call()
