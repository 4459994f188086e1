"""Property tests of the contract every kernel family and service law keeps:
the argument rules of the base classes and the identities between members."""
import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hawkesq as hq

from dense_reference import quad_laplace

_SETTINGS = settings(max_examples=25, derandomize=True, deadline=None, database=None)
_GRID = np.array([[0.0, 0.3], [1.7, 12.0]])

norms = st.floats(0.05, 0.95)


@st.composite
def mixtures(draw):
    n = draw(st.integers(1, 3))
    betas = np.array(draw(st.lists(st.floats(0.2, 5.0), min_size=n, max_size=n)))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    return hq.SumOfExponentialsKernel(draw(norms) * weights / weights.sum() * betas, betas)


@st.composite
def power_laws(draw):
    scale, exponent = draw(st.floats(0.2, 3.0)), draw(st.floats(2.5, 6.0))
    return hq.PowerLawKernel(scale, exponent, draw(norms) * scale * (exponent - 1.0))


@st.composite
def tables(draw):
    values = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=30)))
    dt = draw(st.floats(0.05, 0.5))
    return hq.TabulatedKernel(dt, values * draw(norms) / max(np.trapezoid(values, dx=dt), 1.0))


def _check_family(kern, x):
    assert kern(-x) == 0.0 and type(kern(x)) is float
    assert kern(_GRID).shape == _GRID.shape and kern(-_GRID - x).max() == 0.0
    assert kern.fourier(0.0) == kern.l1_norm()            # bitwise
    assert type(kern.fourier(x)) is complex
    assert kern.tail_mass(0.0) == pytest.approx(kern.l1_norm(), rel=1e-12, abs=1e-12)


@_SETTINGS
@given(mixtures(), st.floats(1e-9, 20.0), st.floats(0.1, 10.0))
def test_mixture_contract(kern, x, omega):
    _check_family(kern, x)
    assert kern.laplace(omega) == pytest.approx(quad_laplace(kern, omega), abs=1e-10)


@_SETTINGS
@given(power_laws(), st.floats(1e-9, 20.0), st.floats(0.1, 10.0))
def test_power_law_contract(kern, x, omega):
    _check_family(kern, x)
    # A (1 + c t)^-g has the Laplace transform (A / c) e^{omega/c} E_g(omega/c)
    c, g, A = kern.scale, kern.exponent, kern.amplitude
    exact = float(A / c * mpmath.exp(omega / c) * mpmath.expint(g, omega / c))
    assert kern.laplace(omega) == pytest.approx(exact, abs=1e-11 * A / c)


@_SETTINGS
@given(tables(), st.floats(1e-9, 20.0))
# h1 on 8,001 nodes: the transform's sum over its cells at omega = 0 is off ||h|| in the last bit
@example(hq.TabulatedKernel(0.005, 0.5 * np.exp(-(np.arange(8001) * 0.005))), 0.7)
def test_table_contract(kern, x):
    _check_family(kern, x)


services = st.one_of(
    st.floats(0.1, 10.0).map(hq.ExponentialService),
    st.floats(0.1, 10.0).map(hq.DeterministicService),
    st.tuples(st.floats(-1.0, 1.0), st.floats(0.1, 2.0)).map(lambda p: hq.LogNormalService(*p)),
    st.lists(st.floats(0.01, 2.0), min_size=1, max_size=10).map(
        lambda steps: hq.TabulatedInverseCDFService(np.concatenate([[0.0], np.cumsum(steps)]))))


@_SETTINGS
@given(services, st.floats(-5.0, 50.0))
def test_service_cdf_contract(F, x):
    assert type(F.cdf(x)) is float and type(F.survival(x)) is float
    assert F.cdf(_GRID).shape == _GRID.shape and F.cdf(np.empty(0)).shape == (0,)
    assert F.cdf(-abs(x) - 1e-9) == 0.0
    assert type(F.survival_integral(x)) is float and F.survival_integral(-abs(x)) == 0.0
    assert F.survival_integral(_GRID).shape == _GRID.shape
