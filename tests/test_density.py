import dataclasses
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import psde
from psde.simulate import SimConfig, ensemble_block_rows, path_drivers, picard_chunk

simulate_mod = importlib.import_module("psde.simulate")  # psde.simulate is the function


def cfg(n_steps=50, seed=0, x0=0.0):
    return SimConfig(x0_seed_value=x0, horizon=1.0, n_steps=n_steps, rng_seed=seed)


def closed_form_density(v, c, t=1.0):
    """Independent oracle for V = W_t + c*max(W_t): integrate the reflection
    joint density along w = v - c*m analytically."""
    v = np.asarray(v, dtype=float)
    base = 2.0 / ((2.0 + c) * np.sqrt(2.0 * np.pi * t))
    return np.where(
        v >= 0,
        base * np.exp(-(v**2) / (2.0 * t * (1.0 + c) ** 2)),
        base * np.exp(-(v**2) / (2.0 * t)),
    )


def closed_form_cdf(v, c, t=1.0):
    v = np.asarray(v, dtype=float)
    return np.where(
        v < 0,
        (2.0 / (2.0 + c)) * ndtr(v / math.sqrt(t)),
        1.0 - (2.0 * (1.0 + c) / (2.0 + c)) * (1.0 - ndtr(v / ((1.0 + c) * math.sqrt(t)))),
    )


def test_empty_ensemble(unit_model):
    p = psde.validate_params(0.0, 0.0)
    e = psde.generate_ensemble(unit_model, p, cfg(), 0)
    assert e.n_paths == 0 and len(e.terminal_values) == 0


def test_gaussian_ensemble_moments(unit_model):
    p = psde.validate_params(0.0, 0.0)
    n = 100_000
    e = psde.generate_ensemble(unit_model, p, cfg(seed=123), n)
    assert abs(float(np.mean(e.terminal_values))) <= 3.0 / math.sqrt(n)
    assert abs(float(np.var(e.terminal_values)) - 1.0) <= 0.03


def test_singly_perturbed_ensemble_mean(unit_model):
    # E[X_1] = (alpha/(1-alpha)) E[max W_1] = sqrt(2/pi); the discrete running
    # maximum is biased low by ~0.58*sqrt(dt), so the grid must be fine enough
    # for that bias to sit inside the 3-standard-error band
    p = psde.validate_params(0.5, 0.0)
    n = 20_000
    e = psde.generate_ensemble(unit_model, p, cfg(n_steps=4000, seed=7), n)
    se = float(np.std(e.terminal_values)) / math.sqrt(n)
    assert abs(float(np.mean(e.terminal_values)) - math.sqrt(2.0 / math.pi)) <= 3.0 * se


def test_ensemble_paths_match_standalone(generic_model):
    p = psde.validate_params(0.3, -0.2)
    base = cfg(n_steps=64, seed=555, x0=0.5)
    e = psde.generate_ensemble(generic_model, p, base, 10)
    for i in (0, 3, 9):
        single = psde.simulate_per_step(
            generic_model, p, dataclasses.replace(base, rng_seed=psde.path_seed(555, i))
        )
        assert single.x[-1] == e.terminal_values[i]


def test_ensemble_fresh_extreme_inconsistency_raises(additive_model):
    # alpha = -1e17 rounds the fresh-max solve back onto the current max,
    # which the standalone per-step loop rejects; the chunk stops at its
    # earliest failing step, on the path (batch row) it names
    p = psde.validate_params(-1e17, 0.0)
    c = cfg(n_steps=50, seed=3, x0=1e17)
    with pytest.raises(psde.CaseInconsistentError) as excinfo:
        psde.simulate_per_step(additive_model, p, c)
    with pytest.raises(psde.CaseInconsistentError) as chunk_excinfo:
        psde.generate_ensemble(additive_model, p, c, 200)
    chunk_err = chunk_excinfo.value
    with pytest.raises(psde.CaseInconsistentError) as row_excinfo:
        psde.simulate_per_step(additive_model, p, dataclasses.replace(c, rng_seed=psde.path_seed(3, chunk_err.path)))
    assert chunk_err.step == row_excinfo.value.step
    assert chunk_err.step <= excinfo.value.step


def edge_model():
    """b overflows once x passes ~3.55, so some paths of x0 = 2 abort."""
    return psde.make_model(
        psde.Coefficient(
            f=lambda x: np.exp(np.asarray(x, dtype=float) * 200.0) * 1e-300,
            f_prime=lambda x: np.zeros(np.shape(np.asarray(x))),
            prime_sup=0.0,
            inf_abs=0.0,
            spec={"kind": "test-edge"},
        ),
        psde.constant(1.0),
        name="edge",
    )


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_ensemble_failure_names_its_ensemble_path(monkeypatch):
    # the first path of the edge model to fail lies past the first 2-path
    # block, and every report must name the index path_seed takes, not the
    # row within its block
    edge = edge_model()
    p = psde.validate_params(0.0, 0.0)
    c = cfg(n_steps=50, seed=0, x0=2.0)
    with pytest.raises(psde.SimulationAborted) as whole:
        psde.generate_ensemble(edge, p, c, 40)
    failing = whole.value.path
    assert failing >= 2
    monkeypatch.setattr(psde.density, "_DRIVER_BLOCK_BYTES", 2 * 8 * c.n_steps)
    psde.generate_ensemble(edge, p, c, failing)  # the paths before it are finite
    monkeypatch.setenv("PSDE_THREADS", "2")
    with pytest.raises(psde.SimulationAborted) as chunked:
        psde.generate_ensemble(edge, p, c, 40)
    assert chunked.value.path == failing
    assert str(chunked.value).endswith(f"(ensemble path {failing})")
    with pytest.raises(psde.SimulationAborted) as alone:
        psde.simulate_per_step(edge, p, dataclasses.replace(c, rng_seed=psde.path_seed(0, failing)))
    monkeypatch.setattr(psde.malliavin, "_H_NORM_BLOCK_BYTES", 2 * 8 * (c.n_steps + 1))
    with pytest.raises(psde.SimulationAborted) as h_norms:
        psde.terminal_h_norms(edge, p, c, 40)
    assert (h_norms.value.path, h_norms.value.step) == (failing, alone.value.step)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_malliavin_pass_failure_names_a_path_or_a_window(monkeypatch):
    # one kernel run holds the positivity paths and path 0's shifted rows: a
    # positivity path past path 0's 2-path block fails as its ensemble path,
    # path 0 (the base) as path 0, and a shifted row, by its window, as no path
    edge = edge_model()
    p = psde.validate_params(0.0, 0.0)
    windows = [(0.9, 1.0), (0.0, 1.0)]
    monkeypatch.setattr(psde.malliavin, "_H_NORM_BLOCK_BYTES", 2 * 8 * 51)
    with pytest.raises(psde.SimulationAborted) as late:
        psde.malliavin_pass(edge, p, cfg(n_steps=50, seed=0, x0=2.0), windows, 1e-4, 40)
    assert (late.value.path, late.value.step) == (2, 33)
    assert str(late.value).endswith("(ensemble path 2)")
    with pytest.raises(psde.SimulationAborted) as base:
        psde.malliavin_pass(edge, p, cfg(n_steps=50, seed=2, x0=2.0), windows, 1e-4, 40)
    with pytest.raises(psde.SimulationAborted) as alone:
        psde.simulate_per_step(edge, p, cfg(n_steps=50, seed=2, x0=2.0))
    assert (base.value.path, base.value.step) == (0, alone.value.step) == (0, 37)
    # path 0 of seed 0 stays below the edge, and 3 more over (0, 1] pushes it past
    with pytest.raises(psde.SimulationAborted) as shifted:
        psde.malliavin_pass(edge, p, cfg(n_steps=50, seed=0, x0=2.0), windows, 3.0, 1)
    assert shifted.value.path is None
    assert str(shifted.value).endswith("(Cameron-Martin shift of window 1)")
    with pytest.raises(psde.SimulationAborted) as oracle:
        psde.cameron_martin_directional(edge, p, cfg(n_steps=50, seed=0, x0=2.0), windows, 3.0)
    assert (oracle.value.path, oracle.value.step, str(oracle.value)) == (None, shifted.value.step, str(shifted.value))


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("seed, path, step", [(0, 2, 33), (2, 0, 37), (5, 6, 47)])
def test_per_step_failure_is_the_lowest_failing_path(seed, path, step):
    # in one 40-row block several paths fail; with or without recorded
    # trajectories the kernel names the lowest one and its first bad step
    edge = edge_model()
    p = psde.validate_params(0.0, 0.0)
    c = cfg(n_steps=50, seed=seed, x0=2.0)
    with pytest.raises(psde.SimulationAborted) as ensemble:
        psde.generate_ensemble(edge, p, c, 40)
    with pytest.raises(psde.SimulationAborted) as h_norms:
        psde.terminal_h_norms(edge, p, c, 40)
    assert (ensemble.value.path, ensemble.value.step) == (path, step)
    assert (h_norms.value.path, h_norms.value.step) == (path, step)


def test_ensemble_chunking_invariant(unit_model, generic_model, monkeypatch):
    # budgets of 37 or 128 rows cut 300 paths into blocks of 34 (8 x 34 + 28)
    # or 100; a short last block draws into the front of its thread's reused
    # driver buffer
    p = psde.validate_params(0.2, 0.1)
    models = (unit_model, generic_model)
    whole = [psde.generate_ensemble(model, p, cfg(seed=9), 300) for model in models]
    for rows, threads in ((37, "1"), (37, "2"), (128, "2")):
        monkeypatch.setattr(psde.density, "_DRIVER_BLOCK_BYTES", rows * 8 * 50)
        monkeypatch.setenv("PSDE_THREADS", threads)
        for model, b in zip(models, whole):
            a = psde.generate_ensemble(model, p, cfg(seed=9), 300)
            assert np.array_equal(a.terminal_values, b.terminal_values)


@pytest.mark.parametrize("name", ["unit", "smooth-generic"])
def test_ensemble_driver_blocks_invariant(name, monkeypatch):
    # a budget of 5 or 7 rows cuts the ensemble into many kernel blocks (60 of
    # 5, or 42 of 7 and a short one of 6); the values are those of one block,
    # and no thread's driver buffer exceeds 5 or 7 rows, for the terminal
    # values and for the terminal H-norms alike
    model = psde.named_model(name)
    p = psde.validate_params(0.2, 0.1)
    c = cfg(seed=9)
    whole = psde.generate_ensemble(model, p, c, 300).terminal_values
    whole_h = psde.terminal_h_norms(model, p, c, 60)
    sizes = []

    def recording(cfg, start, stop, out=None):
        sizes.append(out.base.nbytes)  # the thread's whole buffer, not the block's rows of it
        return path_drivers(cfg, start, stop, out)

    monkeypatch.setattr(simulate_mod, "path_drivers", recording)
    for rows, threads in ((5, "1"), (5, "2"), (7, "1"), (7, "2")):
        budget = rows * 8 * c.n_steps
        monkeypatch.setattr(psde.density, "_DRIVER_BLOCK_BYTES", budget)
        monkeypatch.setattr(psde.malliavin, "_H_NORM_BLOCK_BYTES", rows * 8 * (c.n_steps + 1))
        monkeypatch.setenv("PSDE_THREADS", threads)
        sizes.clear()
        e = psde.generate_ensemble(model, p, c, 300)
        assert e.terminal_values.tobytes() == whole.tobytes()
        assert len(sizes) >= 300 // rows and max(sizes) <= budget
        sizes.clear()
        assert psde.terminal_h_norms(model, p, c, 60).tobytes() == whole_h.tobytes()
        assert len(sizes) >= 60 // rows and max(sizes) <= budget


def test_ensemble_picard_scheme(unit_model):
    p = psde.validate_params(0.3, 0.1)
    c = dataclasses.replace(cfg(n_steps=40, seed=11), scheme=psde.Scheme.PICARD)
    e = psde.generate_ensemble(unit_model, p, c, 5)
    ref = psde.generate_ensemble(unit_model, p, cfg(n_steps=40, seed=11), 5)
    assert np.max(np.abs(e.terminal_values - ref.terminal_values)) <= 1e-8


def test_picard_ensemble_chunking_and_threads_invariant(generic_model, monkeypatch):
    # n = 200 allows 163 paths in a Picard kernel block, so 300 paths run as
    # two blocks of 150; budgets of 37 or 128 rows cut them into 8 x 34 + 28
    # or 3 x 100
    p = psde.validate_params(0.4, 0.3)
    c = dataclasses.replace(cfg(n_steps=200, seed=9, x0=0.5), scheme=psde.Scheme.PICARD)
    rows = picard_chunk(generic_model, p, c, path_drivers(c, 0, 300))[0][:, -1]
    default = psde.density._PICARD_BLOCK_BYTES
    for budget, threads in ((37 * 8 * 201, "1"), (default, "1"), (37 * 8 * 201, "2"), (128 * 8 * 201, "2")):
        monkeypatch.setattr(psde.density, "_PICARD_BLOCK_BYTES", budget)
        monkeypatch.setenv("PSDE_THREADS", threads)
        e = psde.generate_ensemble(generic_model, p, c, 300)
        assert np.array_equal(e.terminal_values, rows)


def test_picard_ensemble_failure_names_its_ensemble_path(generic_model, monkeypatch):
    # 14 outer passes leave a few paths above tol = 1e-10 at n = 50; the
    # first lies past the first 2-path block, and every report must name
    # the index path_seed takes, with that path's own change history
    p = psde.validate_params(0.4, 0.3)
    c = dataclasses.replace(cfg(n_steps=50, seed=5, x0=0.5), scheme=psde.Scheme.PICARD, picard_outer_iters=14)
    with pytest.raises(psde.NoConvergenceError) as whole:
        psde.generate_ensemble(generic_model, p, c, 40)
    failing = whole.value.path
    assert failing >= 2
    monkeypatch.setattr(psde.density, "_PICARD_BLOCK_BYTES", 2 * 8 * (c.n_steps + 1))
    psde.generate_ensemble(generic_model, p, c, failing)  # the paths before it converge
    monkeypatch.setenv("PSDE_THREADS", "2")
    with pytest.raises(psde.NoConvergenceError) as chunked:
        psde.generate_ensemble(generic_model, p, c, 40)
    assert chunked.value.path == failing
    assert str(chunked.value).endswith(f"(ensemble path {failing})")
    with pytest.raises(psde.NoConvergenceError) as alone:
        psde.simulate_picard(generic_model, p, dataclasses.replace(c, rng_seed=psde.path_seed(5, failing)))
    assert chunked.value.history == alone.value.history == whole.value.history
    assert len(alone.value.history) == 14


def test_benchmark_workload_block_shapes(monkeypatch):
    # at n_steps = 1000 the fewest-equal-blocks rule gives the blocks that the
    # benchmark workloads ran in 20 000-path chunks: ensemble-law 5 x 10 000,
    # ensemble-generic 4 x 10 000, pathwise's positivity one block of 100;
    # picard's 256 KB hold 163 rows of one 200-step window, so 4 x 125
    blocks = []

    def recording(model, cfg, n_paths, kernel, row_bytes, budget):
        rows = ensemble_block_rows(n_paths, row_bytes, budget)
        blocks.append([min(rows, n_paths - first) for first in range(0, n_paths, rows)])
        return np.zeros(n_paths)

    monkeypatch.setattr(psde.density, "run_ensemble", recording)
    monkeypatch.setattr(psde.malliavin, "run_ensemble", recording)
    generic = psde.named_model("smooth-generic")
    c = cfg(n_steps=1000)
    psde.generate_ensemble(psde.named_model("unit"), psde.validate_params(0.5, 0.0), c, 50_000)
    psde.generate_ensemble(generic, psde.validate_params(0.3, -0.2), c, 40_000)
    picard = dataclasses.replace(c, scheme=psde.Scheme.PICARD)
    psde.generate_ensemble(generic, psde.validate_params(0.4, 0.3), picard, 500)
    psde.terminal_h_norms(generic, psde.validate_params(0.4, 0.3), c, 100)
    assert blocks == [[10_000] * 5, [10_000] * 4, [125] * 4, [100]]


def test_ensemble_counts_its_values():
    # n_paths is the number of values, so the KDE has unit mass and KS sees every value
    e = psde.Ensemble(np.array([0.1, 0.4, 1.3]))
    assert e.n_paths == 3
    assert psde.kde(e).integral() == pytest.approx(1.0, abs=1e-5)
    assert psde.ks_test(e, psde.reference_gaussian(0.5, 1.0)).n == 3


def test_reference_alpha_zero_is_gaussian():
    law = psde.reference_singly_perturbed(0.0, 1.0)
    g = psde.reference_gaussian(0.0, 1.0)
    v = np.linspace(-4.0, 4.0, 500)
    assert np.max(np.abs(law.density(v) - g.density(v))) <= 1e-6
    assert np.max(np.abs(law.cdf(v) - g.cdf(v))) <= 1e-7


@pytest.mark.parametrize("alpha", [0.5, -1.0])
def test_reference_matches_closed_form(alpha):
    law = psde.reference_singly_perturbed(alpha, 1.0)
    c = alpha / (1.0 - alpha)
    v = np.linspace(-4.5, 7.0, 700)
    assert np.max(np.abs(law.density(v) - closed_form_density(v, c))) <= 1e-6
    assert np.max(np.abs(law.cdf(v) - closed_form_cdf(v, c))) <= 1e-7


@pytest.mark.parametrize("t", [1.0, 0.25])
@pytest.mark.parametrize("alpha", [0.05, 0.1])
def test_singly_perturbed_law_is_not_c2_at_x0(alpha, t):
    # for unit with beta = 0 the constants report threshold_ok and an
    # unbounded t0, the paper's horizon; yet the closed form's log-density is
    # quadratic on each side of X_0 = 0, with curvature -1/t below and
    # -(1-alpha)^2/t above (at t = 1: -1 and -0.9025 or -0.81), so the law is
    # C^1 but not C^2 at X_0
    horizon = psde.smooth_density_horizon(alpha, 0.0, psde.named_model("unit").b_prime_sup)
    assert horizon.threshold_ok and horizon.t0_unbounded and horizon.t0 == math.inf
    law = psde.reference_singly_perturbed(alpha, t)
    step = 1e-3
    for v, curvature in ((-0.3, -1.0 / t), (0.3, -((1.0 - alpha) ** 2) / t)):
        log_p = np.log(law.density(np.array([v - step, v, v + step])))
        assert (log_p[0] - 2.0 * log_p[1] + log_p[2]) / step**2 == pytest.approx(curvature, rel=1e-6)
    # the density itself is continuous at X_0
    p = law.density(np.array([-1e-9, 0.0, 1e-9]))
    assert np.ptp(p) <= 1e-12 * p[1]


def test_reference_density_normalized():
    law = psde.reference_singly_perturbed(0.5, 1.0)
    v = np.linspace(-9.0, 18.0, 40_001)
    assert float(np.trapezoid(law.density(v), v)) == pytest.approx(1.0, abs=1e-6)
    # cdf monotone from 0 to 1
    f = law.cdf(np.linspace(-9.0, 18.0, 1000))
    assert np.all(np.diff(f) >= -1e-12)
    assert f[0] <= 1e-8 and f[-1] >= 1.0 - 1e-8


@pytest.mark.slow
def test_fine_grid_ensemble_matches_reference(unit_model):
    p = psde.validate_params(0.5, 0.0)
    e = psde.generate_ensemble(unit_model, p, cfg(n_steps=10_000, seed=3), 20_000)
    law = psde.reference_singly_perturbed(0.5, 1.0)
    ks = psde.ks_test(e, law)
    assert ks.passes_1pct


def test_atom_scan_degenerate_detects_atom():
    e = psde.Ensemble(np.full(10_000, 1.25))
    scan = psde.atom_scan(e, 0.01)
    assert scan.max_mass == 1.0
    assert abs(scan.location - 1.25) <= 0.01


def test_atom_scan_gaussian_mass(unit_model):
    p = psde.validate_params(0.0, 0.0)
    e = psde.generate_ensemble(unit_model, p, cfg(seed=21), 100_000)
    scan = psde.atom_scan(e, 0.01)
    peak = 1.0 / math.sqrt(2.0 * math.pi)
    assert scan.max_mass <= 1.2 * peak * 0.01
    # mass scales roughly linearly with the bin width
    wide = psde.atom_scan(e, 0.1)
    assert 5.0 <= wide.max_mass / scan.max_mass <= 15.0


def test_atom_scan_bin_cap(monkeypatch):
    # values over [0, 0.99] at width 0.1 need 11 bins: a cap of 11 scans,
    # a cap of 10 refuses before any histogram is formed
    density_mod = importlib.import_module("psde.density")
    e = psde.Ensemble(np.linspace(0.0, 0.99, 100))
    monkeypatch.setattr(density_mod, "MAX_ATOM_BINS", 11)
    assert psde.atom_scan(e, 0.1).n_bins == 11

    def no_histogram(*args, **kwargs):
        raise AssertionError("a histogram was formed")

    monkeypatch.setattr(density_mod, "MAX_ATOM_BINS", 10)
    monkeypatch.setattr(np, "histogram", no_histogram)
    for width in (0.1, 1e-300):
        with pytest.raises(ValueError, match="MAX_ATOM_BINS = 10"):
            psde.atom_scan(e, width)
    # one bin would do, but 100 / 1e-307 overflows the bin index
    with pytest.raises(ValueError, match="bin index overflows"):
        psde.atom_scan(psde.Ensemble(np.full(3, 100.0)), 1e-307)


def test_kde_gaussian_sup_distance(unit_model):
    p = psde.validate_params(0.0, 0.0)
    e = psde.generate_ensemble(unit_model, p, cfg(seed=31), 100_000)
    est = psde.kde(e)
    ref = psde.reference_gaussian(0.0, 1.0).density(est.grid)
    assert float(np.max(np.abs(est.density - ref))) <= 0.02
    assert est.integral() == pytest.approx(1.0, abs=1e-3)


def test_kde_singly_perturbed_sup_distance(unit_model):
    p = psde.validate_params(0.5, 0.0)
    e = psde.generate_ensemble(unit_model, p, cfg(n_steps=500, seed=41), 100_000)
    est = psde.kde(e)
    law = psde.reference_singly_perturbed(0.5, 1.0)
    assert float(np.max(np.abs(est.density - law.density(est.grid)))) <= 0.03


def _one_shot_kde(v, grid, bandwidth, chunk):
    """The estimate as one (grid, chunk) array per chunk of values."""
    out = np.zeros(grid.shape)
    for start in range(0, len(v), chunk):
        z = (grid[:, None] - v[None, start : start + chunk]) / bandwidth
        out += np.exp(-0.5 * z * z).sum(axis=1)
    return out * (1.0 / (len(v) * bandwidth * math.sqrt(2.0 * math.pi)))


def test_kde_matches_one_shot_formula(unit_model, monkeypatch):
    p = psde.validate_params(0.5, 0.0)
    e = psde.generate_ensemble(unit_model, p, cfg(seed=3), 20_003)
    # the default grid at the real chunk size: two chunks, the second of 3 values
    est = psde.kde(e, 0.1)
    assert est.density.tobytes() == _one_shot_kde(e.terminal_values, est.grid, 0.1, 20_000).tobytes()
    # the default 512-point grid with short chunks and 3-row blocks: 512 is
    # not a multiple of 3, nor 20 003 of 700
    monkeypatch.setattr(psde.density, "DEFAULT_CHUNK", 700)
    monkeypatch.setattr(psde.density, "_KDE_BLOCK_BYTES", 3 * 8 * 700)
    est = psde.kde(e)
    assert est.density.tobytes() == _one_shot_kde(e.terminal_values, est.grid, est.bandwidth, 700).tobytes()


@st.composite
def adversarial_ensembles(draw, chunk):
    """Values and a bandwidth that put whole rows of a chunk past kde's zero reach.

    Two clusters 80 to 2000 scales apart (one scale is the bandwidth when it is
    given), so grid rows between them are farther than _ZERO_REACH bandwidths
    from every value; centres up to 1e15, where a tiny bandwidth is below the
    values' ulp; values rounded to duplicates; and sizes that make a chunk of
    one, two or three values or a short last chunk.
    """
    n = draw(st.sampled_from([1, 2, 3, chunk - 1, chunk + 1]))
    if draw(st.booleans()):
        bandwidth = "auto"
        scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    else:
        bandwidth = draw(st.floats(1.0, 9.99)) * 10.0 ** draw(st.integers(-300, 0))
        scale = bandwidth
    center = draw(st.sampled_from([0.0, 1.0, -3.5, 1e15, -1e15 + 1.0]))
    gap = draw(st.floats(80.0, 2000.0))
    spread = draw(st.sampled_from([0.0, 0.5, 5.0, 30.0]))
    share = draw(st.sampled_from([0.0, 0.1, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offsets = spread * rng.standard_normal(n) + gap * (rng.random(n) < share)
    if draw(st.booleans()):
        offsets = np.round(offsets, draw(st.integers(0, 1)))
    return center + scale * offsets, bandwidth


@pytest.mark.parametrize("chunk,block_rows", [(None, None), (7, 2)])
def test_kde_matches_one_shot_formula_on_adversarial_ensembles(chunk, block_rows):
    # the real chunk and block, or chunks of 7 values in blocks of 2 grid rows,
    # so blocks in the chunk's order, blocks in sorted order and a short last
    # chunk all run on small ensembles
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(psde.density, "DEFAULT_CHUNK", chunk)
            mp.setattr(psde.density, "_KDE_BLOCK_BYTES", block_rows * 8 * chunk)
        chunk = psde.density.DEFAULT_CHUNK

        @settings(max_examples=12 if chunk > 100 else 150, deadline=None, derandomize=True, database=None)
        @given(adversarial_ensembles(chunk))
        def check(case):
            values, bandwidth = case
            e = psde.Ensemble(values)
            if bandwidth == "auto" and np.std(values) == 0.0:
                with pytest.raises(ValueError):
                    psde.kde(e, bandwidth)
                return
            est = psde.kde(e, bandwidth)
            with np.errstate(over="ignore"):
                expected = _one_shot_kde(values, est.grid, est.bandwidth, chunk)
            assert est.density.tobytes() == expected.tobytes()

        check()


def test_exp_of_a_selection_is_the_selection_of_exp():
    """np.exp gives each lane the same bits whatever array holds it.

    ``kde`` relies on it: it evaluates exp on contiguous ranges of a row in
    sorted order, and writes 0.0 for lanes below exp's underflow, where a
    one-shot evaluation takes exp of the whole row in the chunk's order.
    Checked over [-800, 10], with the slow bands of numpy's SIMD exp (the
    subnormal results in [-745.13, -708.4] and the exact zeros below).
    """
    rng = np.random.default_rng(27)
    x = np.concatenate(
        [
            rng.uniform(-800.0, 10.0, 50_003),
            rng.uniform(-745.2, -708.3, 5_001),
            [-800.0, -748.8, -745.1332191019412, -745.13321910194, -708.4, -706.9, -0.0, 0.0, 10.0],
        ]
    )
    rng.shuffle(x)
    whole = np.exp(x)
    for start in range(17):
        for stop in (start + 1, start + 7, start + 9, start + 4099, x.size - start):
            out = np.full(stop - start, np.nan)
            np.exp(x[start:stop], out=out)
            assert out.tobytes() == whole[start:stop].tobytes()
    for order in (rng.permutation(x.size), np.argsort(x)):
        assert np.exp(x[order]).tobytes() == whole[order].tobytes()
    for i in rng.integers(0, x.size, 500).tolist() + np.flatnonzero((x > -746.0) & (x < -708.0))[:500].tolist():
        assert np.exp(x[i : i + 1]).tobytes() == whole[i : i + 1].tobytes()
    # the reach constant of kde: +0.0 at and past the zero reach
    zero = -0.5 * psde.density._ZERO_REACH * psde.density._ZERO_REACH
    assert np.exp(x[x <= zero]).tobytes() == np.zeros(int(np.sum(x <= zero))).tobytes()


def test_ndtr_matches_scipy():
    x = np.linspace(-40.0, 40.0, 400_001)
    assert np.max(np.abs(psde.density._ndtr(x) - ndtr(x))) <= 2.3e-16
    edges = psde.density._ndtr(np.array([-np.inf, np.inf, np.nan]))
    assert edges[0] == 0.0 and edges[1] == 1.0 and np.isnan(edges[2])
    assert psde.density._ndtr(np.empty((0, 2))).shape == (0, 2)


def test_kde_rejects_empty(unit_model):
    p = psde.validate_params(0.0, 0.0)
    e = psde.generate_ensemble(unit_model, p, cfg(), 0)
    with pytest.raises(ValueError):
        psde.kde(e)


@pytest.mark.parametrize("bandwidth", [math.nan, math.inf, 0.0, -1.0])
def test_kde_refuses_a_bandwidth_that_is_not_finite_and_positive(bandwidth):
    with pytest.raises(ValueError, match="finite and > 0"):
        psde.kde(psde.Ensemble(np.array([0.1, 0.4, 0.2])), bandwidth)


def test_kde_auto_bandwidth_that_overflows_fails():
    # the std of values near 1e190 squares past the float range
    e = psde.Ensemble(np.array([-3e190, 1e190, 2e190]))
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="not finite"):
        psde.kde(e)


@pytest.mark.parametrize(
    "values,bandwidth",
    [
        # n * bandwidth * sqrt(2 pi) is subnormal, so the normaliser is inf
        (np.array([0.1, 0.4, 0.2]), 1e-310),
        # the grid is finite, but n * bandwidth * sqrt(2 pi) overflows, so it is 0
        (np.arange(10.0), 1e307),
    ],
)
def test_kde_refuses_a_normaliser_it_cannot_form(monkeypatch, values, bandwidth):
    def no_kernel(*args):
        raise AssertionError("a kernel value was evaluated")

    monkeypatch.setattr(psde.density, "_exponents", no_kernel)
    with pytest.raises(FloatingPointError, match="normaliser"):
        psde.kde(psde.Ensemble(values), bandwidth)


def test_negative_ensemble_size_fails_before_any_draw(unit_model, monkeypatch):
    def no_draw(*args):
        raise AssertionError("drivers were drawn")

    monkeypatch.setattr(simulate_mod, "path_drivers", no_draw)
    with pytest.raises(ValueError, match="n_paths must be >= 0"):
        psde.generate_ensemble(unit_model, psde.validate_params(0.0, 0.0), cfg(), -1)


def test_ks_gaussian_calibration(unit_model):
    p = psde.validate_params(0.0, 0.0)
    law = psde.reference_gaussian(0.0, 1.0)
    passes = 0
    for seed in range(20):
        e = psde.generate_ensemble(unit_model, p, cfg(seed=1000 + seed), 10_000)
        if psde.ks_test(e, law).passes_1pct:
            passes += 1
    assert passes >= 18


def test_ks_power_against_wrong_variance(unit_model):
    p = psde.validate_params(0.0, 0.0)
    e = psde.generate_ensemble(unit_model, p, cfg(seed=77), 50_000)
    wrong = psde.reference_gaussian(0.0, 1.1)
    assert not psde.ks_test(e, wrong).passes_1pct


def test_ks_single_observation_low_power():
    e = psde.Ensemble(np.array([0.3]))
    r = psde.ks_test(e, psde.reference_gaussian(0.0, 1.0))
    assert r.low_power
    assert 0.0 <= r.statistic <= 1.0


def test_empirical_cdf_nondecreasing(unit_model):
    p = psde.validate_params(0.3, 0.1)
    e = psde.generate_ensemble(unit_model, p, cfg(seed=2), 500)
    v = np.sort(e.terminal_values)
    assert np.all(np.diff(v) >= 0.0)
