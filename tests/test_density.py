import dataclasses
import math

import numpy as np
import pytest
from scipy.special import ndtr

import psde
from psde.simulate import SimConfig


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


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_ensemble_failure_names_its_ensemble_path():
    # b overflows once x passes ~3.55, so some paths of x0 = 2 abort; the
    # first to fail lies past the first 2-path chunk, and every report must
    # name the index path_seed takes, not the row within its chunk
    edge = psde.make_model(
        psde.Coefficient(
            f=lambda x: np.exp(np.asarray(x, dtype=float) * 200.0) * 1e-300,
            f_prime=lambda x: np.zeros(np.shape(np.asarray(x))),
            lipschitz=0.0,
            prime_sup=0.0,
            inf_abs=0.0,
            spec={"kind": "test-edge"},
        ),
        psde.constant(1.0),
        name="edge",
    )
    p = psde.validate_params(0.0, 0.0)
    c = cfg(n_steps=50, seed=0, x0=2.0)
    with pytest.raises(psde.SimulationAborted) as whole:
        psde.generate_ensemble(edge, p, c, 40, chunk_size=40)
    failing = whole.value.path
    assert failing >= 2
    psde.generate_ensemble(edge, p, c, failing, chunk_size=2)  # the paths before it are finite
    with pytest.raises(psde.SimulationAborted) as chunked:
        psde.generate_ensemble(edge, p, c, 40, chunk_size=2, threads=2)
    assert chunked.value.path == failing
    assert str(chunked.value).endswith(f"(ensemble path {failing})")
    with pytest.raises(psde.SimulationAborted) as alone:
        psde.simulate_per_step(edge, p, dataclasses.replace(c, rng_seed=psde.path_seed(0, failing)))
    with pytest.raises(psde.SimulationAborted) as h_norms:
        psde.terminal_h_norms(edge, p, c, 40, chunk_size=2)
    assert (h_norms.value.path, h_norms.value.step) == (failing, alone.value.step)


def test_ensemble_chunking_invariant(unit_model):
    p = psde.validate_params(0.2, 0.1)
    a = psde.generate_ensemble(unit_model, p, cfg(seed=9), 300, chunk_size=37)
    b = psde.generate_ensemble(unit_model, p, cfg(seed=9), 300, chunk_size=300)
    assert np.array_equal(a.terminal_values, b.terminal_values)
    assert a.config_fingerprint == b.config_fingerprint


def test_ensemble_picard_scheme(unit_model):
    p = psde.validate_params(0.3, 0.1)
    c = dataclasses.replace(cfg(n_steps=40, seed=11), scheme=psde.Scheme.PICARD)
    e = psde.generate_ensemble(unit_model, p, c, 5)
    ref = psde.generate_ensemble(unit_model, p, cfg(n_steps=40, seed=11), 5)
    assert np.max(np.abs(e.terminal_values - ref.terminal_values)) <= 1e-8


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


def test_reference_density_normalized():
    law = psde.reference_singly_perturbed(0.5, 1.0)
    v = np.linspace(-9.0, 18.0, 40_001)
    assert float(np.trapezoid(law.density(v), v)) == pytest.approx(1.0, abs=1e-6)
    # cdf monotone from 0 to 1
    f = law.cdf(np.linspace(-9.0, 18.0, 1000))
    assert np.all(np.diff(f) >= -1e-12)
    assert f[0] <= 1e-8 and f[-1] >= 1.0 - 1e-8


def test_fine_grid_ensemble_matches_reference(unit_model):
    p = psde.validate_params(0.5, 0.0)
    e = psde.generate_ensemble(unit_model, p, cfg(n_steps=10_000, seed=3), 20_000)
    law = psde.reference_singly_perturbed(0.5, 1.0)
    ks = psde.ks_test(e, law)
    assert ks.passes_1pct


def test_atom_scan_degenerate_detects_atom():
    e = psde.Ensemble(np.full(10_000, 1.25), 10_000, 1.0, "x")
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


def test_kde_rejects_empty(unit_model):
    p = psde.validate_params(0.0, 0.0)
    e = psde.generate_ensemble(unit_model, p, cfg(), 0)
    with pytest.raises(ValueError):
        psde.kde(e)
    with pytest.raises(ValueError):
        psde.kde(psde.Ensemble(np.array([1.0]), 1, 1.0, "x"), grid=np.empty(0))


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
    e = psde.Ensemble(np.array([0.3]), 1, 1.0, "x")
    r = psde.ks_test(e, psde.reference_gaussian(0.0, 1.0))
    assert r.low_power
    assert 0.0 <= r.statistic <= 1.0


def test_empirical_cdf_nondecreasing(unit_model):
    p = psde.validate_params(0.3, 0.1)
    e = psde.generate_ensemble(unit_model, p, cfg(seed=2), 500)
    v = np.sort(e.terminal_values)
    assert np.all(np.diff(v) >= 0.0)
