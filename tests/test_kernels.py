import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.special import exp1
from scipy.stats import kstest

import hawkesq as hq
from hawkesq.errors import ConfigurationError, IntegrabilityError, NumericalError

from dense_reference import quad_laplace


def test_l1_norms(h1, h2):
    assert hq.l1_norm(h1) == pytest.approx(0.5)
    assert hq.l1_norm(h2) == pytest.approx(0.5)
    assert hq.l1_norm(hq.ZERO_KERNEL) == 0.0


def test_empty_mixture_values_and_types():
    z = hq.ZERO_KERNEL
    assert repr(hq.SumOfExponentialsKernel()) == "SumOfExponentialsKernel(0)"
    for t in (0.0, 1.5, -1.0):
        for value in (z(t), z.tail_mass(t), z.tail_integral(t)):
            assert type(value) is float and value == 0.0
        assert type(z.fourier(t)) is complex and z.fourier(t) == 0j
    for value in (z.l1_norm(), z.laplace(2.0), z.first_moment(), z.second_moment()):
        assert type(value) is float and value == 0.0
    grid = np.linspace(-1.0, 3.0, 12).reshape(3, 4)
    for out, dtype in [(z(grid), float), (z.fourier(grid), complex)]:
        assert out.dtype == dtype and out.shape == (3, 4) and not out.any()
    assert z(np.empty(0)).shape == (0,)
    for beta in (0.3, 1.0, 7.0):
        assert hq.var_xe_infty_exponential(0.0, beta) == 1.0
    assert hq.laplace_pipeline(z).phi_tilde(1.0) == 0.0
    assert hq.laplace_pipeline(z).to_dict()["phi_tilde_at"] == {}


def test_laplace_transform_values(h1, h2):
    assert hq.laplace_transform(h2, 1.0) == pytest.approx(0.16, abs=1e-12)
    assert hq.laplace_transform(h1, 1.0) == pytest.approx(0.25, abs=1e-12)
    assert hq.laplace_transform(hq.ZERO_KERNEL, 3.7) == 0.0


@pytest.mark.parametrize("omega", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
def test_laplace_quadrature_agrees_with_closed_form(h1, h2, omega):
    for kern in (h1, h2):
        assert quad_laplace(kern, omega) == pytest.approx(kern.laplace(omega), abs=1e-12)


def test_fourier_transform_values(h1):
    assert hq.fourier_transform(h1, 0.0) == pytest.approx(0.5 + 0j)
    assert hq.fourier_transform(h1, 1.0) == pytest.approx(0.25 + 0.25j)
    assert hq.fourier_transform(hq.ZERO_KERNEL, 3.0) == 0.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fourier_conjugate_symmetry(seed):
    rng = np.random.default_rng(seed)
    kern = hq.SumOfExponentialsKernel(rng.uniform(0.05, 0.3, 3), rng.uniform(0.5, 4.0, 3))
    for omega in rng.uniform(0.1, 30.0, 5):
        assert kern.fourier(-omega) == pytest.approx(np.conj(kern.fourier(omega)))


def test_tabulated_matches_sum_exp_transforms(h1):
    grid = np.arange(0, 4001) * 0.01
    tab = hq.TabulatedKernel(0.01, h1(grid))
    assert tab.l1_norm() == pytest.approx(0.5, abs=1e-5)
    assert tab.laplace(1.0) == pytest.approx(0.25, abs=1e-5)
    for omega in (0.3, 2.0, 50.0, 400.0):
        assert tab.fourier(omega) == pytest.approx(h1.fourier(omega), abs=2e-5)
    assert tab.first_moment() == pytest.approx(h1.first_moment(), abs=1e-4)


def test_power_law_norm_and_integrability():
    kern = hq.PowerLawKernel(scale=2.0, exponent=5.0, amplitude=1.0)
    assert kern.l1_norm() == pytest.approx(1.0 / 8.0)
    assert quad_laplace(kern, 1.0) == pytest.approx(kern.laplace(1.0), abs=1e-12)
    with pytest.raises(IntegrabilityError):
        hq.PowerLawKernel(scale=1.0, exponent=0.5).l1_norm()
    with pytest.raises(IntegrabilityError):
        hq.PowerLawKernel(scale=1.0, exponent=2.5).second_moment()


def test_power_law_offsets_follow_inverse_cdf():
    kern = hq.PowerLawKernel(scale=2.0, exponent=5.0)
    rng = np.random.default_rng(5)
    draws = kern.sample_offsets(rng, 200_000)
    # CDF F(t) = 1 - (1+2t)^-4; compare the empirical median
    median = (2.0 ** 0.25 - 1.0) / 2.0
    assert np.median(draws) == pytest.approx(median, abs=5e-3)


@pytest.mark.parametrize("alphas,betas", [([0.1, 0.4], [0.25, 4.0]),      # h2
                                          ([1.0, -0.9], [1.0, 2.0])])    # mixed sign
def test_exponential_mixture_offsets_ks(alphas, betas):
    kern = hq.SumOfExponentialsKernel(alphas, betas)
    a, b = np.asarray(alphas), np.asarray(betas)

    def cdf(t):   # int_0^t h / ||h||, written out term by term
        t = np.asarray(t)[..., None]
        return (a / b * -np.expm1(-b * t)).sum(axis=-1) / (a / b).sum()

    draws = kern.sample_offsets(np.random.default_rng(11), 50_000)
    assert draws.size == 50_000 and draws.min() >= 0.0
    assert kstest(draws, cdf).pvalue > 1e-3


def test_mixed_sign_admission():
    # nonnegative everywhere: e^-t - 0.9 e^-2t >= 0
    kern = hq.SumOfExponentialsKernel([1.0, -0.9], [1.0, 2.0])
    assert kern.l1_norm() == pytest.approx(0.55)
    with pytest.raises(ConfigurationError):
        hq.SumOfExponentialsKernel([0.5, -0.6], [1.0, 2.0])  # negative at 0


def test_spectral_radius_cases(h1):
    m1 = hq.KernelMatrix([[h1]], [1.0])
    assert m1.spectral_radius() == pytest.approx(0.5)
    diag = hq.KernelMatrix([[h1, hq.ZERO_KERNEL],
                            [hq.ZERO_KERNEL, h1]], [1.0, 1.0])
    assert diag.spectral_radius() == pytest.approx(0.5)
    q = hq.SumOfExponentialsKernel([0.25], [1.0])
    full = hq.KernelMatrix([[q, q], [q, q]], [1.0, 1.0])
    assert full.spectral_radius() == pytest.approx(0.5)


def test_spectral_radius_diagonal_is_max_norm():
    a = hq.SumOfExponentialsKernel([0.2], [1.0])
    b = hq.SumOfExponentialsKernel([0.6], [1.0])
    m = hq.KernelMatrix([[a, hq.ZERO_KERNEL], [hq.ZERO_KERNEL, b]], [1.0, 1.0])
    assert m.spectral_radius() == pytest.approx(0.6)
    assert hq.spectral_radius(np.zeros((3, 3))) == 0.0


def test_unstable_configs_rejected(h1):
    with pytest.raises(ConfigurationError):
        hq.HawkesConfig(1.0, hq.SumOfExponentialsKernel([2.0], [1.0]))
    strong = hq.SumOfExponentialsKernel([0.6], [1.0])
    with pytest.raises(ConfigurationError):
        hq.KernelMatrix([[strong, strong], [strong, strong]], [1.0, 1.0])
    cfg = hq.HawkesConfig(10.0, h1)
    assert cfg.mean_rate() == pytest.approx(20.0)


def test_mean_rate_vector(quarter_matrix):
    cfg = hq.HawkesConfig(3.0, quarter_matrix)
    assert cfg.mean_rate_vector() == pytest.approx([6.0, 6.0])
    assert quarter_matrix.branching_vector() == pytest.approx([2.0, 2.0])


def test_kernel_json_round_trip(h2, quarter_matrix):
    for spec in (h2, hq.PowerLawKernel(1.0, 3.0, 0.4),
                 hq.TabulatedKernel(0.5, [1.0, 0.5, 0.0]), quarter_matrix):
        rebuilt = hq.kernel_from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt.to_dict() == spec.to_dict()
    with pytest.raises(ConfigurationError):
        hq.kernel_from_dict({"type": "nope"})


_FAMILIES = [hq.SumOfExponentialsKernel([0.5], [1.0]), hq.PowerLawKernel(1.0, 3.5, 0.5),
             hq.TabulatedKernel(0.5, [1.0, 0.5, 0.25, 0.0])]


@pytest.mark.parametrize("kern", _FAMILIES, ids=["sum_exp", "power_law", "tabulated"])
def test_laplace_rejects_unknown_method(kern):
    # one exact rule per family: laplace takes no method at all
    with pytest.raises(TypeError, match="method"):
        kern.laplace(1.0, method="quadrature")
    with pytest.raises(ConfigurationError, match="omega > 0"):
        kern.laplace(0.0)


@pytest.mark.parametrize("kern", _FAMILIES, ids=["sum_exp", "power_law", "tabulated"])
def test_laplace_refuses_non_finite_omega(kern):
    # NaN passes the test omega <= 0, and the table's transform at inf is NaN
    for omega in (math.nan, math.inf):
        with pytest.raises(ConfigurationError, match="finite omega > 0"):
            kern.laplace(omega)


@pytest.mark.parametrize("build", [
    lambda: hq.PowerLawKernel(math.nan, 3.0, 1.0),
    lambda: hq.PowerLawKernel(1.0, math.nan, 1.0),
    lambda: hq.PowerLawKernel(1.0, 3.0, math.nan),
    lambda: hq.PowerLawKernel(1.0, 3.0, math.inf),
    lambda: hq.PowerLawKernel(math.inf, 3.0, 1.0),
    lambda: hq.TabulatedKernel(math.nan, [1.0, 0.0]),
    lambda: hq.TabulatedKernel(math.inf, [1.0, 0.0]),
    lambda: hq.KernelMatrix([[hq.SumOfExponentialsKernel([0.5], [1.0])]], [math.nan]),
    lambda: hq.KernelMatrix([[hq.SumOfExponentialsKernel([0.5], [1.0])]], [math.inf]),
    lambda: hq.spectral_radius([[math.nan]]),
    lambda: hq.spectral_radius([[math.inf]]),
], ids=["pl-scale-nan", "pl-exponent-nan", "pl-amplitude-nan", "pl-amplitude-inf",
        "pl-scale-inf", "tab-dt-nan", "tab-dt-inf", "p-nan", "p-inf", "radius-nan",
        "radius-inf"])
def test_kernel_parameters_refuse_non_finite_values(build):
    # each range check in the positive form, which NaN fails
    with pytest.raises(ConfigurationError, match="finite"):
        build()


def test_tabulated_laplace_quadrature_is_quadrature():
    # laplace is the exact transform of the interpolant, so adaptive quadrature of
    # the interpolant, cell by cell, agrees at any omega dt (the series branch below
    # omega dt = 1e-3 included)
    tab = hq.TabulatedKernel(0.5, [1.0, 0.5, 0.25, 0.0])
    assert tab.laplace(1.0) == pytest.approx(0.41483041, abs=1e-8)
    rough = hq.TabulatedKernel(0.01, hq.rep_stream(4, 0).random(300))
    for kern in (tab, rough):
        for omega in (1e-5, 1e-3, 0.099, 0.5, 1.0, 3.0, 150.0, 1e4):
            exact = quad_laplace(kern, omega, kern.grid)
            assert abs(kern.laplace(omega) - exact) <= 1e-12 * exact, (kern, omega)


def _interpolant_transform(kern, s):
    # 50 digits: the sum over cells of int_0^dt e^{-s (c dt + u)} (f_c + (f_{c+1} - f_c) u/dt) du
    with mpmath.workdps(50):
        dt = mpmath.mpf(kern.dt)
        q = mpmath.exp(-s * dt)
        flat = -mpmath.expm1(-s * dt) / s                  # int_0^dt e^{-s u} du
        ramp = (1 - q * (1 + s * dt)) / (s * s * dt)       # int_0^dt e^{-s u} u/dt du
        total, phase = mpmath.mpf(0), mpmath.mpf(1)
        for f0, f1 in zip(kern.values[:-1], kern.values[1:]):
            total += phase * (f0 * flat + (f1 - f0) * ramp)
            phase *= q
        return total


@pytest.mark.parametrize("kern", [hq.TabulatedKernel(0.5, [1.0, 0.5, 0.25, 0.0]),
                                  hq.TabulatedKernel(0.5, [0.0, 0.4, 0.3, 0.1, 0.0]),
                                  hq.TabulatedKernel(0.01, hq.rep_stream(4, 0).random(300))],
                         ids=["dt0.5-falling", "dt0.5-hump", "dt0.01-rough"])
def test_tabulated_transforms_match_mpmath(kern):
    # one transform of the interpolant serves laplace and fourier; omega dt = 1e-3 is
    # where the cell weights switch to their series, so both sides of it are probed
    omegas = np.concatenate([np.logspace(-4, 4, 33), np.array([0.999e-3, 1.001e-3]) / kern.dt])
    bound = 1e-13 * kern.l1_norm()
    for w in omegas:
        exact = complex(_interpolant_transform(kern, mpmath.mpc(0.0, -w)))
        assert abs(kern.fourier(w) - exact) <= bound, w
        assert abs(kern.laplace(w) - float(_interpolant_transform(kern, mpmath.mpf(w)))) \
            <= bound, w


def _interpolant_moment(dt, values, k):
    # int t^k h over the interpolant, cell by cell in exact rationals
    dt, values, total = Fraction(dt), [Fraction(v) for v in values], Fraction(0)
    for c, (f0, f1) in enumerate(zip(values[:-1], values[1:])):
        t0, t1 = c * dt, (c + 1) * dt
        slope = (f1 - f0) / dt                     # h = f0 + slope (t - t0) on the cell
        lead = f0 - slope * t0
        total += lead * (t1**(k + 1) - t0**(k + 1)) / (k + 1) \
            + slope * (t1**(k + 2) - t0**(k + 2)) / (k + 2)
    return total


def test_tabulated_moments_exact_for_interpolant():
    # the table of the CI runtime job: in decimal its moments are 13/40 and 79/240,
    # where the trapezoid sums on its grid read 0.3125 for the second
    decimal = ["0", "0.4", "0.3", "0.1", "0"]
    assert [_interpolant_moment("0.5", decimal, k) for k in (1, 2)] == \
        [Fraction(13, 40), Fraction(79, 240)]
    for kern in (hq.TabulatedKernel(0.5, [float(v) for v in decimal]),
                 hq.TabulatedKernel(0.01, hq.rep_stream(4, 0).random(300))):
        for k, moment in [(1, kern.first_moment), (2, kern.second_moment)]:
            exact = _interpolant_moment(kern.dt, kern.values, k)
            assert moment() == pytest.approx(float(exact), rel=1e-14), (kern, k)


@pytest.mark.parametrize("kern", _FAMILIES[1:], ids=["power_law", "tabulated"])
def test_fourier_of_2d_frequencies_is_elementwise(kern):
    omega = np.array([[0.0, 1.5], [-2.0, 40.0]])
    out = kern.fourier(omega)
    assert out.shape == (2, 2) and out.dtype == complex
    for idx in np.ndindex(2, 2):
        assert out[idx] == kern.fourier(omega[idx])


def test_zero_amplitude_mixture_refuses_offsets():
    rng = np.random.default_rng(0)
    for kern in (hq.SumOfExponentialsKernel([0.0], [1.0]), hq.ZERO_KERNEL,
                 hq.PowerLawKernel(1.0, 3.0, 0.0), hq.TabulatedKernel(0.5, [0.0, 0.0])):
        for n in (0, 5):
            with pytest.raises(ConfigurationError, match="zero kernel"):
                kern.sample_offsets(rng, n)


@pytest.mark.parametrize("g", [1.5, 2.0, 3.5, 5.0])
@pytest.mark.parametrize("scale, amplitude", [(1.0, 1.0), (0.3, 2.0), (4.0, 0.5)])
def test_power_law_transforms_match_mpmath(g, scale, amplitude):
    # A (1 + c t)^-g has the Fourier transform (A/c) e^z E_g(z) at z = -i omega/c and
    # the Laplace transform the same at z = omega/c; the exponential sum the power law
    # builds holds both to 1e-11 A/c from omega = 1e-3 to 1e3, heavy tails included
    kern = hq.PowerLawKernel(scale, g, amplitude)
    omegas = np.logspace(-3, 3, 25)
    got = kern.fourier(omegas)
    for w, f in zip(omegas, got):
        z = mpmath.mpc(0.0, -w / scale)
        assert abs(f - complex(amplitude / scale * mpmath.exp(z) * mpmath.expint(g, z))) \
            <= 1e-11 * amplitude / scale, w
        lap = float(amplitude / scale * mpmath.exp(w / scale) * mpmath.expint(g, w / scale))
        assert abs(kern.laplace(w) - lap) <= 1e-11 * amplitude / scale, w
    assert kern.fourier(0.0) == kern.l1_norm()         # bitwise, not the sum's norm
    assert kern.fourier(-1.7) == np.conj(kern.fourier(1.7))


def test_power_law_exponential_sum_limits():
    # the transforms need ||h|| < inf; close to g = 1 the slowest rate underflows
    with pytest.raises(IntegrabilityError, match="L1 norm"):
        hq.PowerLawKernel(1.0, 0.8).laplace(1.0)
    with pytest.raises(NumericalError, match="too close to 1"):
        hq.PowerLawKernel(1.0, 1.04).fourier(1.0)
    assert hq.PowerLawKernel(1.0, 1.06, 0.1).fourier(1.0) == pytest.approx(complex(
        0.1 * mpmath.exp(-1j) * mpmath.expint(1.06, -1j)), abs=1e-12)


@pytest.mark.parametrize("scale, amplitude, omega",
                         [(0.2, 1.0, 0.5), (1.0, 0.8, 0.3), (0.05, 0.5, 2.0),
                          (3.0, 2.0, 0.1), (0.5, 1.0, 10.0), (2.0, 0.3, 0.01)])
def test_power_law_laplace_matches_exponent_two_closed_form(scale, amplitude, omega):
    # int_0^inf e^{-omega t} A (1 + c t)^{-2} dt = A/c (1 - z e^z E1(z)), z = omega/c;
    # read through the exponential sum, for z from 0.005 (the slow tail dominates) to 40
    z = omega / scale
    exact = amplitude / scale * (1.0 - z * math.exp(z) * exp1(z))
    got = hq.PowerLawKernel(scale, 2.0, amplitude).laplace(omega)
    assert abs(got - exact) <= 1e-10 * exact
