import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

import psde
from psde.models import MonotoneCubic

TABLES = {
    # non-uniform abscissae with sign changes of the secants
    "wiggle": (np.array([-3.0, -2.2, -0.9, -0.85, 0.0, 0.4, 1.7, 3.1, 3.15, 5.0]),
               np.array([0.5, -1.0, 2.0, 2.3, -0.7, -0.7, 4.0, 1.0, 1.2, -2.0])),
    # flat runs between monotone pieces, and a one-sided end slope clipped to zero
    "flat": (np.array([0.0, 0.3, 1.0, 1.1, 2.5, 2.6, 4.0]),
             np.array([1.0, 1.0, 1.0, 2.0, 2.0, 5.0, 5.01])),
    # end slopes limited to three secants
    "ends": (np.array([0.0, 1.0, 1.1, 3.0, 3.05, 4.0]),
             np.array([0.0, 1.0, 0.2, 0.1, 3.0, 3.2])),
    "three-points": (np.array([-1.0, 0.5, 2.0]), np.array([0.0, 3.0, 1.0])),
    "two-points": (np.array([-0.5, 2.0]), np.array([1.5, -0.25])),
    "monotone": (np.sort(np.random.default_rng(3).uniform(-4.0, 4.0, 200)),
                 np.cumsum(np.random.default_rng(4).exponential(size=200))),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_monotone_cubic_matches_scipy_pchip(name):
    x, y = TABLES[name]
    ours, ref = MonotoneCubic(x, y), PchipInterpolator(x, y)
    width = x[-1] - x[0]
    # inside, on and between the nodes, and past both ends
    v = np.concatenate((np.linspace(x[0] - 0.5 * width, x[-1] + 0.5 * width, 1001), x, 0.5 * (x[1:] + x[:-1])))
    for table, reference in ((ours, ref), (ours.derivative(), ref.derivative())):
        values = table(v)
        assert np.array_equal(values, reference(v))
        assert np.array_equal(np.array([table.at(float(t)) for t in v]), values)
    assert np.array_equal(ours(y[:0]), ref(y[:0]))


def test_tabulated_coefficient_clamps_past_the_table():
    x, y = TABLES["wiggle"]
    coef = psde.tabulated(x, y)
    ref = PchipInterpolator(x, y)
    v = np.linspace(-6.0, 8.0, 701)
    inside = (v >= x[0]) & (v <= x[-1])
    assert np.array_equal(coef.f(v)[inside], ref(v[inside]))
    assert np.array_equal(coef.f_prime(v)[inside], ref.derivative()(v[inside]))
    assert np.all(coef.f(v)[v < x[0]] == y[0]) and np.all(coef.f(v)[v > x[-1]] == y[-1])
    assert np.all(coef.f_prime(v)[~inside] == 0.0)
    with pytest.raises(ValueError, match=">= 2 points"):
        psde.tabulated([0.0], [1.0])


@pytest.mark.parametrize("name", sorted(TABLES))
def test_tabulated_bounds_are_exact(name):
    # the declared sup |f'| and inf |f| hold on 1001 points per interval,
    # and the sup is attained there to a relative 1e-6
    x, y = TABLES[name]
    coef = psde.tabulated(x, y)
    v = np.concatenate([np.linspace(a, b, 1001) for a, b in zip(x[:-1], x[1:])])
    dense_prime = np.max(np.abs(coef.f_prime(v)))
    assert dense_prime <= coef.prime_sup + 1e-12
    assert dense_prime >= coef.prime_sup * (1.0 - 1e-6)
    dense_inf = np.min(np.abs(coef.f(v)))
    assert coef.inf_abs <= dense_inf
    assert coef.inf_abs == np.min(np.abs(y)) or coef.inf_abs == 0.0


def test_affine_clipped_values_derivative_and_bounds():
    # f = clip(2x - 1, -0.5, 1.5): the band is 0.25 < x < 1.25
    coef = psde.affine_clipped(2.0, -1.0, -0.5, 1.5)
    x = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
    assert coef.f(x).tolist() == [-0.5, -0.5, 0.0, 1.0, 1.5]
    assert coef.f_prime(x).tolist() == [0.0, 0.0, 2.0, 2.0, 0.0]
    assert (coef.prime_sup, coef.inf_abs) == (2.0, 0.0)
    assert psde.affine_clipped(-3.0, 0.0, 1.0, 2.0).prime_sup == 3.0
    model = psde.make_model(coef, psde.affine_clipped(0.5, 2.0, 1.0, 3.0))
    assert model.sigma_inf == 1.0
    model.check_bounds(-5.0, 5.0)
