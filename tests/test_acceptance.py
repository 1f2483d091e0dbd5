"""Acceptance gate: one test per criterion, printed as PASS/FAIL lines.

Every tolerance is pinned here.  Two checks encode idealized targets that
the analysis in their NOTE comments shows cannot hold at the stated
resolutions (scheme cross-validation ratios and the perturbed-Brownian law
test at dt = 1e-3); they are kept strict and allowed to fail rather than
weakened, and the README's known-failing table carries the same numbers.
The oscillation bound checks the inequality the constant C controls, the
old-time part of the H-norm increment (see its NOTE comment).

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import psde
from psde import ParameterRejection, SimConfig
from psde.malliavin import field_closed_form_singly_perturbed
from psde.simulate import per_step_terminal_chunk, running_argmax, running_argmin


def report(tag: str, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def test_criterion_1_parameter_domain():
    t0 = time.perf_counter()
    accepted = [psde.validate_params(a, b) for a, b in [(0.0, 0.0), (-2.0, 0.5), (0.6, 0.3)]]
    rejected = []
    for a, b in [(0.5, 0.5), (-2.0, 0.6), (1.0, 0.3)]:
        try:
            psde.validate_params(a, b)
            rejected.append(None)
        except ParameterRejection as exc:
            rejected.append(exc.code)
    elapsed = time.perf_counter() - t0
    ok_examples = (
        [p.rho for p in accepted] == [0.0, pytest.approx(-2.0 / 3.0), pytest.approx(9.0 / 14.0)]
        and rejected == ["REJECT_RHO", "REJECT_RHO", "REJECT_ALPHA"]
    )
    rng = np.random.default_rng(2024)
    n_accepted = 0
    all_below = True
    for _ in range(100_000):
        a = rng.uniform(-4.0, 1.5)
        b = rng.uniform(-4.0, 1.5)
        try:
            p = psde.validate_params(a, b)
        except ParameterRejection:
            continue
        n_accepted += 1
        all_below = all_below and (p.alpha + p.beta < 1.0)
    ok = ok_examples and all_below and elapsed < 1e-3
    line = report(
        "1 parameter-domain",
        ok,
        f"examples ok={ok_examples}, {n_accepted} accepted pairs all alpha+beta<1={all_below}, "
        f"example runtime {elapsed * 1e3:.3f} ms",
    )
    assert ok, line


def test_criterion_2_skorokhod_solver():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst_beta0 = worst_alpha0 = 0.0
    p_b0 = psde.validate_params(0.5, 0.0)
    p_a0 = psde.validate_params(0.0, -0.5)
    for _ in range(100):
        vals = np.concatenate(([0.0], np.cumsum(rng.standard_normal(1000) * 0.03)))
        sol = psde.solve_max_min(vals, p_b0)
        worst_beta0 = max(worst_beta0, float(np.max(np.abs(
            sol.m_path - np.maximum.accumulate(vals) / 0.5))))
        sol = psde.solve_max_min(vals, p_a0)
        worst_alpha0 = max(worst_alpha0, float(np.max(np.abs(
            sol.i_path - np.minimum.accumulate(vals) / 1.5))))
    ratio_ok = True
    ratio_detail = []
    for alpha, beta in [(0.5, -0.5), (0.6, 0.3), (-0.8, 0.4)]:
        params = psde.validate_params(alpha, beta)
        worst = 0.0
        for _ in range(100):
            vals = np.concatenate(([0.0], np.cumsum(rng.standard_normal(1000) * 0.03)))
            ratios = psde.contraction_rate(vals, params, 10)
            if len(ratios):
                worst = max(worst, float(np.max(ratios)))
        ratio_ok = ratio_ok and worst <= abs(params.rho) + 0.05
        ratio_detail.append(f"({alpha},{beta}): max ratio {worst:.4f} vs |rho|={abs(params.rho):.4f}")
    elapsed = time.perf_counter() - t0
    ok = worst_beta0 <= 1e-12 and worst_alpha0 <= 1e-12 and ratio_ok and elapsed < 5.0
    line = report(
        "2 skorokhod-solver",
        ok,
        f"beta=0 err {worst_beta0:.2e}, alpha=0 err {worst_alpha0:.2e}; "
        + "; ".join(ratio_detail)
        + f"; runtime {elapsed:.2f} s",
    )
    assert ok, line


def test_criterion_3_scheme_cross_validation():
    # NOTE: the per-step solve and the outer fixed-point iteration satisfy the
    # same discrete system, which has a unique solution; their gap is
    # stopping-tolerance noise (~1e-12), not O(dt).  Implemented as stated.
    t0 = time.perf_counter()
    model = psde.named_model("smooth-generic")
    params = psde.validate_params(0.4, 0.3)
    level_steps = [100, 200, 400]  # dt = 1e-2, 5e-3, 2.5e-3
    sums = np.zeros(3)
    for seed in range(20):
        inc = psde.brownian_driver(100, 1.0, seed)
        for lvl, n in enumerate(level_steps):
            if lvl > 0:
                inc = psde.refine_increments(inc, 1.0, seed=10_000 + 10 * seed + lvl)
            cfg = SimConfig(x0_seed_value=0.5, horizon=1.0, n_steps=n, rng_seed=seed)
            a = psde.simulate_per_step(model, params, cfg, inc)
            b = psde.simulate_picard(model, params, cfg, inc)
            sums[lvl] += float(np.max(np.abs(a.x - b.x)))
    means = sums / 20.0
    ratios = [means[1] / means[0], means[2] / means[1]]
    elapsed = time.perf_counter() - t0
    ok = all(0.35 <= r <= 0.65 for r in ratios) and elapsed < 60.0
    line = report(
        "3 scheme-cross-validation",
        ok,
        f"mean sup-discrepancies {[f'{m:.3e}' for m in means]}, "
        f"halving ratios {[f'{r:.2f}' for r in ratios]} (need 0.35..0.65), "
        f"runtime {elapsed:.1f} s",
    )
    assert ok, line


@pytest.mark.slow
def test_criterion_4_singly_perturbed_law():
    # NOTE: at dt = 1e-3 the discrete running maximum is biased low by
    # ~0.58*sqrt(dt) = 0.018, which exceeds the 3-standard-error band
    # (0.0146 at N = 1e5) and sits at the KS critical value.  Implemented as
    # stated.
    t0 = time.perf_counter()
    model = psde.named_model("unit")
    params = psde.validate_params(0.5, 0.0)
    n_paths = 100_000
    law = psde.reference_singly_perturbed(0.5, 1.0)
    crit = 1.63 / math.sqrt(n_paths)
    passes = 0
    stats = []
    mean_ok = None
    mean_val = None
    for seed in range(20):
        cfg = SimConfig(x0_seed_value=0.0, horizon=1.0, n_steps=1000, rng_seed=seed)
        e = psde.generate_ensemble(model, params, cfg, n_paths)
        ks = psde.ks_test(e, law)
        stats.append(ks.statistic)
        passes += int(ks.statistic < crit)
        if seed == 0:
            mean_val = float(np.mean(e.terminal_values))
            se = float(np.std(e.terminal_values)) / math.sqrt(n_paths)
            mean_ok = abs(mean_val - math.sqrt(2.0 / math.pi)) <= 3.0 * se
    elapsed = time.perf_counter() - t0
    ok = mean_ok and passes >= 18 and elapsed < 300.0
    line = report(
        "4 singly-perturbed-law",
        ok,
        f"mean {mean_val:.5f} vs {math.sqrt(2/math.pi):.5f} within 3 SE={mean_ok}; "
        f"KS < {crit:.5f} in {passes}/20 replicates (need >= 18), "
        f"median KS {np.median(stats):.5f}; runtime {elapsed:.0f} s",
    )
    assert ok, line


def test_criterion_5_malliavin_field():
    t0 = time.perf_counter()
    unit = psde.named_model("unit")
    p_half = psde.validate_params(0.5, 0.0)
    worst_entry = 0.0
    for seed in range(20):
        cfg = SimConfig(x0_seed_value=0.0, horizon=1.0, n_steps=1000, rng_seed=seed)
        path = psde.simulate_per_step(unit, p_half, cfg)
        field = psde.derivative_field(path, unit, p_half)
        ref = field_closed_form_singly_perturbed(path, 0.5)
        worst_entry = max(worst_entry, float(np.max(np.abs(field.d - ref))))
    generic = psde.named_model("smooth-generic")
    params = psde.validate_params(0.3, -0.2)
    cfg = SimConfig(x0_seed_value=0.5, horizon=1.0, n_steps=1000, rng_seed=101)
    path = psde.simulate_per_step(generic, params, cfg)
    field = psde.derivative_field(path, generic, params)
    edges = np.linspace(0.0, 1.0, 21).tolist()
    windows = list(zip(edges[:-1], edges[1:]))
    worst_rel = 0.0
    for (r_lo, r_hi), fd in zip(windows, psde.malliavin_pass(generic, params, cfg, windows, eps=1e-4)[1]):
        fv = psde.directional_from_column(field.d[:, -1], field.dt, r_lo, r_hi)
        worst_rel = max(worst_rel, abs(fv - fd.value) / abs(fd.value))
    elapsed = time.perf_counter() - t0
    ok = worst_entry <= 1e-12 and worst_rel <= 0.01 and elapsed < 120.0
    line = report(
        "5 malliavin-field",
        ok,
        f"closed-form entrywise err {worst_entry:.2e} (<=1e-12), "
        f"finite-difference rel err {worst_rel:.2e} (<=1%), runtime {elapsed:.1f} s",
    )
    assert ok, line


def _field_h_profiles(model, params, cfg, n_paths, chunk_size=128):
    """H-norm profiles of n_paths per-path-seeded fields, and per path
    :func:`_worst_old_time` of each field.  Paths run in chunks through the
    per-step kernel, each built as :func:`psde.simulate_per_step` builds it
    (a kernel row is bit-identical to its standalone path); fields are
    dropped path by path (1000 fields at n = 200 would take ~320 MB).
    """
    n = cfg.n_steps
    grid = cfg.grid()
    profiles = np.empty((n_paths, n + 1))
    worst_old = np.empty((n_paths, n - 1))
    for start in range(0, n_paths, chunk_size):
        drivers = psde.path_drivers(cfg, start, min(start + chunk_size, n_paths))
        trajectories = np.empty((n + 1, len(drivers)))
        _, lo, hi = per_step_terminal_chunk(model, params, cfg.x0_seed_value, cfg.dt, drivers, trajectories)
        model.check_bounds(lo, hi)
        for p, (x, increments) in enumerate(zip(trajectories.T.copy(), drivers), start):
            path = psde.Path(grid=grid, x=x, m=x[running_argmax(x)], i=x[running_argmin(x)], dw=increments)
            field = psde.derivative_field(path, model, params)
            profiles[p] = psde.h_norm_profile(field)
            worst_old[p] = _worst_old_time(field, profiles[p])
    return profiles, worst_old


def _worst_old_time(field, profile):
    """Largest |h[k2] - h[k1] - F(k1, k2)| over 1 <= k1 < k2 at each lag 1..n-1.

    F(k1, k2) = dt * sum_{k1<=j<k2} d[j,k2]^2 is the fresh-time part of the
    increment; what is left is the old-time part
    O(k1, k2) = dt * sum_{j<k1} (d[j,k2]^2 - d[j,k1]^2).
    """
    sq = np.triu(field.d * field.d, 1)  # d[j,k]^2 for j < k only
    fresh = field.dt * np.cumsum(sq[::-1], axis=0)[::-1]  # fresh[k1, k2] = F(k1, k2)
    old = np.abs(profile[None, :] - profile[:, None] - fresh)
    return np.array([np.max(np.diagonal(old, lag)[1:]) for lag in range(1, field.n_steps)])


def test_criterion_6a_hnorm_positivity():
    t0 = time.perf_counter()
    model = psde.named_model("smooth-generic")  # inf sigma = 0.5
    params = psde.validate_params(0.3, -0.2)
    cfg = SimConfig(x0_seed_value=0.5, horizon=1.0, n_steps=256, rng_seed=4000)
    terminal = psde.malliavin_pass(model, params, cfg, n_paths=1000)[2]
    rep = psde.positivity_report(terminal, t=1.0, sigma_inf=model.sigma_inf)
    elapsed = time.perf_counter() - t0
    ok = rep.hypothesis_ok and rep.minimum > 0.0 and rep.fraction_at_or_below["0.0"] == 0.0
    line = report(
        "6a hnorm-positivity",
        ok,
        f"min H-norm {rep.minimum:.4e} over 1000 paths, runtime {elapsed:.1f} s",
    )
    assert ok, line


@pytest.fixture(scope="module")
def additive_profiles():
    model = psde.named_model("additive-sine")  # ||b'|| = 1, sigma = 1
    params = psde.validate_params(0.05, 0.05)
    cfg = SimConfig(x0_seed_value=0.0, horizon=0.01, n_steps=200, rng_seed=6000)
    profiles, worst_old = _field_h_profiles(model, params, cfg, 1000)
    return model, params, cfg, profiles, worst_old


def test_criterion_6b_hnorm_lower_bounds(additive_profiles):
    t0 = time.perf_counter()
    model, params, cfg, profiles, _ = additive_profiles
    horizon = psde.smooth_density_horizon(params.alpha, params.beta, model.b_prime_sup)
    assert cfg.horizon < horizon.t0
    grid = np.linspace(0.0, cfg.horizon, cfg.n_steps + 1)
    bounds = np.array(
        [
            psde.hnorm_lower_bound(s, cfg.horizon, 1.0, params.alpha, params.beta, model.b_prime_sup)
            for s in grid[1:]
        ]
    )
    pointwise_ok = bool(np.all(profiles[:, 1:] >= bounds[None, :]))
    running_bound = psde.hnorm_running_max_lower_bound(
        cfg.horizon, 1.0, params.alpha, params.beta, model.b_prime_sup
    )
    running_ok = bool(np.all(np.max(profiles, axis=1) >= running_bound))
    elapsed = time.perf_counter() - t0
    ok = pointwise_ok and running_ok
    line = report(
        "6b hnorm-lower-bounds",
        ok,
        f"pointwise bound held on all 1000 paths={pointwise_ok} "
        f"(min margin {float(np.min(profiles[:, -1])) / bounds[-1]:.1f}x), "
        f"running-max bound held={running_ok}; runtime {elapsed:.1f} s",
    )
    assert ok, line


def test_criterion_6b_oscillation_bound(additive_profiles):
    # NOTE: C bounds the old-time part of the H-norm increment, not the
    # increment itself.  With h(t) = ||DX_t||_H^2 and t1 < t2,
    #   h(t2) - h(t1) = F + O,  F = int_{t1}^{t2} |D_r X_{t2}|^2 dr (fresh time),
    #                           O = int_0^{t1} (|D_r X_{t2}|^2 - |D_r X_{t1}|^2) dr,
    # and |O| <= C(t2 - t1) * max h for t2 - t1 <= 1 (see smoothness_constant).
    # F is not bounded by C: an unperturbed Brownian motion has F = sigma^2 (t2 - t1)
    # while C vanishes, so the full |h(t2) - h(t1)| (worst ratio 1.44 on these
    # paths) is reported but not asserted.
    t0 = time.perf_counter()
    model, params, cfg, profiles, worst_old = additive_profiles
    dt = cfg.dt
    lags = np.arange(1, cfg.n_steps)
    assert lags[-1] * dt <= 1.0
    c_of_lag = np.array(
        [
            psde.smoothness_constant(int(l) * dt, params.alpha, params.beta, model.b_prime_sup)
            for l in lags
        ]
    )
    scale = c_of_lag[None, :] * np.max(profiles, axis=1)[:, None]
    ratios = worst_old / scale
    paths_with_violation = int(np.sum(np.any(ratios > 1.0, axis=1)))
    worst_full = max(
        float(np.max(np.abs(profiles[:, 1 + lag :] - profiles[:, 1:-lag]) / scale[:, i, None]))
        for i, lag in enumerate(lags)
    )
    elapsed = time.perf_counter() - t0
    ok = paths_with_violation == 0
    line = report(
        "6b oscillation-bound",
        ok,
        f"{paths_with_violation}/1000 paths violate |O| <= C(t2-t1) max h at some (t1,t2) pair, "
        f"worst old-time ratio {float(np.max(ratios)):.3f} "
        f"(full-increment ratio {worst_full:.2f}, not bounded by C); runtime {elapsed:.1f} s",
    )
    assert ok, line


def test_criterion_6c_atom_scan_scaling():
    t0 = time.perf_counter()
    model = psde.named_model("smooth-generic")
    params = psde.validate_params(0.3, -0.2)
    cfg = SimConfig(x0_seed_value=0.5, horizon=1.0, n_steps=1000, rng_seed=8000)
    ensemble = psde.generate_ensemble(model, params, cfg, 100_000)
    widths = [1e-1, 1e-2, 1e-3]
    masses = [psde.atom_scan(ensemble, w).max_mass for w in widths]
    x = np.log(widths)
    y = np.log(masses)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    r2 = 1.0 - float(np.sum((y - fitted) ** 2)) / float(np.sum((y - np.mean(y)) ** 2))
    elapsed = time.perf_counter() - t0
    ok = r2 >= 0.9
    line = report(
        "6c atom-scan-scaling",
        ok,
        f"masses {[f'{m:.2e}' for m in masses]} slope {slope:.2f} R^2 {r2:.4f} (>=0.9); "
        f"runtime {elapsed:.1f} s",
    )
    assert ok, line


def test_criterion_7_lamperti_reduction():
    t0 = time.perf_counter()
    model = psde.named_model("multiplicative-sine")
    params = psde.validate_params(0.3, -0.2)
    unit_drift = psde.named_model("additive-sine")
    gaps = np.zeros((10, 3))
    commutation = True
    for seed in range(10):
        cfg = SimConfig(x0_seed_value=0.5, horizon=1.0, n_steps=250, rng_seed=seed)
        rep = psde.pathwise_reduction_check(model, params, cfg, n_refinements=3)
        gaps[seed] = [lv.sup_discrepancy for lv in rep.levels]
        commutation = commutation and rep.commutation_exact
    means = gaps.mean(axis=0)
    monotone = bool(means[0] > means[1] > means[2])
    sigma1 = psde.pathwise_reduction_check(
        unit_drift, params, SimConfig(x0_seed_value=0.5, horizon=1.0, n_steps=200, rng_seed=3),
        n_refinements=1,
    )
    sigma1_ok = sigma1.levels[0].sup_discrepancy <= 1e-10
    elapsed = time.perf_counter() - t0
    ok = monotone and commutation and sigma1_ok and elapsed < 120.0
    line = report(
        "7 lamperti-reduction",
        ok,
        f"mean gaps {[f'{m:.3e}' for m in means]} monotone={monotone}, "
        f"sigma=1 gap {sigma1.levels[0].sup_discrepancy:.1e} (<=1e-10), "
        f"commutation exact={commutation}; runtime {elapsed:.1f} s",
    )
    assert ok, line


def test_criterion_8_constants():
    t0 = time.perf_counter()
    h = psde.smooth_density_horizon(0.0, 0.0, 1.0)
    t0_ok = abs(h.t0 - (3.0 - 2.0 * math.sqrt(2.0)) / 3.0) <= 1e-15
    s = psde.SMOOTHNESS_THRESHOLD
    below = psde.smooth_density_horizon(math.sqrt(s) * (1.0 - 1e-8), 0.0, 1.0)
    boundary = psde.smooth_density_horizon(math.sqrt(s), 0.0, 1.0)
    # math.sqrt(s)**2 rounds to within one ulp of the threshold; the flip
    # must happen no later than exact equality
    flip_ok = below.threshold_ok and (
        not boundary.threshold_ok
        if math.sqrt(s) ** 2 >= s
        else boundary.threshold_ok
    )
    rng = np.random.default_rng(88)
    checked = 0
    c_ok = True
    while checked < 10_000:
        alpha, beta = rng.uniform(-0.12, 0.12, size=2)
        k = rng.uniform(0.05, 4.0)
        hor = psde.smooth_density_horizon(alpha, beta, k)
        if not hor.threshold_ok:
            continue
        checked += 1
        # t0 is defined by C(t0) = 1 exactly, so the check carries the
        # module-level consistency slack of 1e-9
        c_ok = c_ok and psde.smoothness_constant(hor.t0, alpha, beta, k) < 1.0 + 1e-9
    elapsed = time.perf_counter() - t0
    ok = t0_ok and flip_ok and c_ok and elapsed < 1.0
    line = report(
        "8 constants",
        ok,
        f"t0(0,0,1) err {abs(h.t0 - (3 - 2 * math.sqrt(2)) / 3):.1e} (<=1e-15), "
        f"threshold flip={flip_ok}, C(t0)<1+1e-9 on {checked} sets={c_ok}; "
        f"runtime {elapsed * 1e3:.0f} ms",
    )
    assert ok, line
