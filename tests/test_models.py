import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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


_PARAM = st.floats(allow_nan=False, allow_infinity=False)
# the families built from arithmetic and ufuncs, on any finite parameters
ARITHMETIC_COEFFICIENTS = st.one_of(
    st.builds(psde.constant, _PARAM),
    st.tuples(_PARAM, _PARAM, _PARAM, _PARAM)
    .filter(lambda t: t[2] < t[3])
    .map(lambda t: psde.affine_clipped(*t)),
    st.builds(psde.sinusoidal, _PARAM, _PARAM, _PARAM, _PARAM),
    st.builds(psde.logistic, _PARAM, _PARAM, _PARAM, _PARAM),
)


@settings(max_examples=400, deadline=None)
@given(coef=ARITHMETIC_COEFFICIENTS, x=st.floats())
def test_arithmetic_coefficients_evaluate_a_float_as_its_0d_array(coef, x):
    # a Python float or numpy float64 gives the bits of the 0-d array, as a
    # numpy scalar, so a division by it keeps numpy's inf and NaN semantics
    with np.errstate(all="ignore"):
        for f in (coef.f, coef.f_prime):
            want = np.asarray(f(np.asarray(x)), dtype=float).tobytes()
            for value in (x, np.float64(x)):
                got = f(value)
                assert type(got) is np.float64
                assert got.tobytes() == want


def _checked(b_prime=0.0, sigma=1.0, sigma_prime=0.0, b_prime_sup=1.0):
    """A model whose b', sigma and sigma' are constants, sup |b'| declared as given."""
    const = lambda value: lambda x: np.full(np.shape(x), value)  # noqa: E731
    return psde.make_model(
        psde.Coefficient(f=const(0.0), f_prime=const(b_prime), prime_sup=b_prime_sup, inf_abs=0.0),
        psde.Coefficient(f=const(sigma), f_prime=const(sigma_prime), prime_sup=1.0, inf_abs=0.5),
    )


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: _checked().check_bounds(0.0, np.inf), "finite"),
        (lambda: _checked().check_bounds(np.nan, 1.0), "finite"),
        (lambda: _checked(b_prime=np.nan).check_bounds(-1.0, 1.0), "b'"),
        (lambda: _checked(b_prime_sup=np.nan).check_bounds(-1.0, 1.0), "b'"),
        (lambda: _checked(sigma_prime=2.0).check_bounds(-1.0, 1.0), "sigma'"),
        (lambda: _checked(sigma_prime=np.nan).check_bounds(-1.0, 1.0), "sigma'"),
        (lambda: _checked(sigma=0.25).check_bounds(-1.0, 1.0), r"\|sigma\|"),
        (lambda: _checked(sigma=np.nan).check_bounds(-1.0, 1.0), r"\|sigma\|"),
        (lambda: psde.tabulated([0.0, 1.0, 1.0], [1.0, 2.0, 3.0]), "strictly increasing"),
        (lambda: psde.named_model("no-such-preset"), "unknown model preset"),
    ],
    ids=["range inf", "range nan", "b' nan", "declared b' nan", "sigma' above", "sigma' nan", "sigma below",
         "sigma nan", "table abscissae", "preset"],
)
def test_model_checks_reject(call, match):
    with pytest.raises(ValueError, match=match):
        call()
