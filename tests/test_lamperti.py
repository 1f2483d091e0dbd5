import numpy as np
import pytest

import psde
from psde.simulate import SimConfig


def reciprocal_sine_model():
    # sigma(u) = 1/(1 + 0.5 sin u): G has the closed antiderivative
    # G(y) = (y - x) - 0.5 (cos y - cos x)
    return psde.make_model(
        psde.constant(0.0),
        psde.Coefficient(
            f=lambda x: 1.0 / (1.0 + 0.5 * np.sin(np.asarray(x, dtype=float))),
            f_prime=lambda x: -0.5
            * np.cos(np.asarray(x, dtype=float))
            / (1.0 + 0.5 * np.sin(np.asarray(x, dtype=float))) ** 2,
            prime_sup=2.0,
            inf_abs=2.0 / 3.0,
            spec={"kind": "reciprocal-sine"},
        ),
        name="reciprocal-sine",
    )


def test_unit_sigma_transform_is_shift(additive_model):
    tr = psde.build_transform(additive_model, 0.3, -4.0, 4.0)
    ys = np.linspace(-3.5, 3.5, 101)
    assert np.max(np.abs(tr.g(ys) - (ys - 0.3))) <= 1e-12
    assert np.max(np.abs(tr.g_inv(tr.g(ys)) - ys)) <= 1e-10
    # b_tilde(z) = b(z + 0.3) for sigma = 1
    zs = tr.g(ys)
    assert np.max(np.abs(tr.b_tilde(zs) - np.sin(ys))) <= 1e-8


def test_constant_sigma_two():
    model = psde.make_model(psde.sinusoidal(0.0, 1.0), psde.constant(2.0), name="c2")
    tr = psde.build_transform(model, 1.0, -5.0, 5.0)
    ys = np.linspace(-4.0, 4.0, 101)
    assert np.max(np.abs(tr.g(ys) - (ys - 1.0) / 2.0)) <= 1e-12
    zs = (ys - 1.0) / 2.0
    assert np.max(np.abs(tr.b_tilde(zs) - np.sin(2.0 * zs + 1.0) / 2.0)) <= 1e-8


def test_quadrature_matches_antiderivative():
    model = reciprocal_sine_model()
    x0 = 0.3
    tr = psde.build_transform(model, x0, -6.0, 6.0)
    ys = np.linspace(-5.5, 5.5, 301)
    exact = (ys - x0) - 0.5 * (np.cos(ys) - np.cos(x0))
    assert np.max(np.abs(tr.g(ys) - exact)) <= 1e-8
    assert tr.g(x0) == 0.0


def test_monotone_and_derivative_bound():
    model = psde.named_model("multiplicative-sine")
    tr = psde.build_transform(model, 0.0, -8.0, 8.0)
    ys = np.linspace(-7.5, 7.5, 400)
    g = tr.g(ys)
    assert np.all(np.diff(g) > 0.0)
    steps = np.abs(np.diff(g))
    assert np.all(steps <= np.diff(ys) / model.sigma_inf + 1e-12)


def test_out_of_range_extension():
    model = psde.named_model("multiplicative-sine")
    tr = psde.build_transform(model, 0.0, -2.0, 2.0)
    wide = psde.build_transform(model, 0.0, -6.0, 6.0)
    for y in (-4.0, 3.5, 5.9):
        assert tr.g(y) == pytest.approx(wide.g(y), abs=1e-9)
    assert tr.g_inv(tr.g(5.0)) == pytest.approx(5.0, abs=1e-9)
    assert tr.g_inv(tr.g(-4.0)) == pytest.approx(-4.0, abs=1e-9)
    ys = np.array([-4.0, -1.5, 0.0, 1.5, 3.5, 5.0])
    assert np.max(np.abs(tr.g_inv(tr.g(ys)) - ys)) <= 1e-9


def test_inverse_far_past_table_with_steep_sigma():
    # sigma = 1 + 0.9 sin u varies 19-fold: plain Newton from the table end
    # overshoots and diverges here, the bracket's bisection keeps it on the root
    tr = _steep_transform()
    width = tr.g_nodes[-1] - tr.g_nodes[0]
    zs = np.linspace(tr.g_nodes[0] - 5.0 * width, tr.g_nodes[-1] + 5.0 * width, 201)
    assert np.max(np.abs(tr.g(tr.g_inv(zs)) - zs)) <= 1e-9


def _steep_transform():
    return psde.build_transform(
        psde.make_model(psde.constant(0.0), psde.sinusoidal(1.0, 0.9), name="steep"), 0.0, -1.0, 1.0
    )


def test_b_tilde_array_matches_scalar_calls():
    for tr in (psde.build_transform(psde.named_model("smooth-generic"), 0.5, -3.0, 3.0), _steep_transform()):
        width = tr.g_nodes[-1] - tr.g_nodes[0]
        # inside the table, on its nodes' images, past both ends (far past
        # them for the steep sigma, where the bracket bisects), and non-finite
        zs = np.concatenate(
            (
                np.linspace(tr.g_nodes[0] - 1.0, tr.g_nodes[-1] + 1.0, 57),
                np.linspace(tr.g_nodes[0] - 5.0 * width, tr.g_nodes[-1] + 5.0 * width, 21),
                tr.g_nodes[[0, 1, -1]],
                [0.0, np.nan, np.inf, -np.inf],
            )
        )
        for f in (tr.g_inv, tr.b_tilde):
            whole = f(zs)
            scalars = np.array([f(float(z)) for z in zs])
            singles = np.concatenate([f(zs[k : k + 1]) for k in range(len(zs))])
            assert np.array_equal(whole, scalars, equal_nan=True)
            assert np.array_equal(whole, singles, equal_nan=True)
            assert np.isnan(whole[-3:]).all()
            assert f(zs[:1].reshape(1, 1)).shape == (1, 1)


def test_capped_newton_fails_alike_for_one_point_and_arrays(monkeypatch):
    tr = _steep_transform()
    z = float(tr.g_nodes[-1] + 5.0 * (tr.g_nodes[-1] - tr.g_nodes[0]))
    monkeypatch.setattr(psde.lamperti, "NEWTON_MAX_STEPS", 3)
    with pytest.raises(psde.NoConvergenceError) as one:
        tr.g_inv(z)
    with pytest.raises(psde.NoConvergenceError) as many:
        tr.g_inv(np.array([z, z]))
    assert len(one.value.history) == 3
    assert one.value.history == many.value.history


def test_newton_cap_inside_an_ensemble_names_no_path(monkeypatch):
    # a G^-1 failure inside the reduced drift belongs to no path of the
    # block, so the ensemble passes it on without an ensemble path
    tr = psde.build_transform(psde.named_model("multiplicative-sine"), 0.0, -1.0, 1.0)
    reduced = psde.make_model(tr.reduced_drift_coefficient(), psde.constant(1.0), name="reduced")
    monkeypatch.setattr(psde.lamperti, "NEWTON_MAX_STEPS", 1)
    cfg = SimConfig(x0_seed_value=0.0, horizon=1.0, n_steps=20, rng_seed=3)
    with pytest.raises(psde.NoConvergenceError) as err:
        psde.generate_ensemble(reduced, psde.validate_params(0.0, 0.0), cfg, 4)
    assert err.value.path is None
    assert "ensemble path" not in str(err.value)


@pytest.mark.parametrize("name", ["multiplicative-sine", "smooth-generic"])
def test_reduced_drift_declares_exact_bounds(name):
    tr = psde.build_transform(psde.named_model(name), 0.0, -3.0, 3.0)
    coef = tr.reduced_drift_coefficient()
    zs = np.linspace(tr.g_nodes[0], tr.g_nodes[-1], 200_001)
    reached = float(np.max(np.abs(coef.f_prime(zs))))
    assert coef.prime_sup * (1.0 - 1e-6) <= reached <= coef.prime_sup + 1e-12
    # both reduced drifts change sign on the table, so inf |b_tilde| is 0
    signs = np.sign(tr.b_tilde(tr.g(np.array([-2.0, 0.0, 2.0]))))
    assert signs.min() < 0.0 < signs.max()
    assert coef.inf_abs == 0.0


def test_anchor_next_to_grid_node():
    # 0.2 lies 1.7e-16 from a node of linspace(-3, 3, 4096)
    tr = psde.build_transform(psde.named_model("smooth-generic"), 0.2, -3.0, 3.0)
    assert np.all(np.diff(tr.g_nodes) > 0.0)
    assert tr.g(0.2) == 0.0


def test_sigma_not_positive_rejected():
    crossing = psde.make_model(psde.constant(0.0), psde.sinusoidal(0.2, 1.0), name="crossing")
    with pytest.raises(psde.SigmaNotPositiveError):
        psde.build_transform(crossing, 0.0, -4.0, 4.0)


def test_commutation_identity_exact():
    model = psde.named_model("multiplicative-sine")
    p = psde.validate_params(0.3, -0.2)
    cfg = SimConfig(x0_seed_value=0.5, horizon=1.0, n_steps=300, rng_seed=13)
    path = psde.simulate_per_step(model, p, cfg)
    tr = psde.build_transform(
        model, float(path.x[0]), float(np.min(path.x)) - 1.0, float(np.max(path.x)) + 1.0
    )
    gx = tr.g(path.x)
    assert float(np.max(gx)) == tr.g(float(np.max(path.x)))
    assert float(np.min(gx)) == tr.g(float(np.min(path.x)))


def test_reduction_unit_sigma_within_tolerance(additive_model):
    p = psde.validate_params(0.3, -0.2)
    cfg = SimConfig(x0_seed_value=0.5, horizon=1.0, n_steps=200, rng_seed=2)
    report = psde.pathwise_reduction_check(additive_model, p, cfg, n_refinements=1)
    assert report.levels[0].sup_discrepancy <= cfg.fixed_point_tol


def test_reduction_discrepancy_decreases():
    model = psde.named_model("multiplicative-sine")
    p = psde.validate_params(0.3, -0.2)
    cfg = SimConfig(x0_seed_value=0.5, horizon=1.0, n_steps=250, rng_seed=9)
    report = psde.pathwise_reduction_check(model, p, cfg, n_refinements=3)
    gaps = [lv.sup_discrepancy for lv in report.levels]
    assert report.commutation_exact
    assert gaps[-1] < gaps[0]
    d = report.to_dict()
    assert len(d["levels"]) == 3
