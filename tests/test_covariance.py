import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.fft import next_fast_len

import hawkesq as hq
from hawkesq import covariance
from hawkesq.errors import ConfigurationError, NumericalError

import oracles
from dense_reference import dense_density, running_integral_cov


def test_zero_kernel_gives_zero_density():
    phi = hq.solve_phi_grid(hq.ZERO_KERNEL, dt=0.05, t_max=40.0)
    assert np.all(phi.values == 0.0)
    K = hq.variance_function(phi)
    assert K.at(7.5) == pytest.approx(7.5, abs=1e-12)
    assert hq.limit_covariance_G(phi, K, 3.0, 10.0) == pytest.approx(3.0, abs=1e-12)


def test_phi_grid_matches_exponential_closed_form(phi_h1):
    exact = np.array([oracles.phi1(t) for t in phi_h1.t])
    assert np.abs(phi_h1.values - exact).max() < 1e-4
    assert phi_h1.values[0] == pytest.approx(1.5, abs=1e-4)
    assert phi_h1.residual < 1e-6


def test_phi_closed_form_constructor(phi_h1_exact):
    assert phi_h1_exact.values[0] == pytest.approx(1.5)
    assert phi_h1_exact(2.0) == pytest.approx(1.5 * np.exp(-1.0))
    with pytest.raises(ConfigurationError):
        hq.phi_exponential_closed_form(1.0, 0.5)
    limit = hq.phi_exponential_closed_form(0.0, 1.0)
    assert np.all(limit.values == 0.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-6, 1e6), st.floats(0.0, 1.0, exclude_max=True))
def test_closed_form_branching_vector(beta, share):
    # the density derives a from its kernel, 1/(1 - alpha/beta) bitwise at k = 1
    alpha = share * beta
    assume(alpha < beta)
    phi = hq.phi_exponential_closed_form(alpha, beta, dt=1.0, t_max=1.0)
    assert phi.a.shape == (1,) and phi.a[0] == 1.0 / (1.0 - alpha / beta)


def test_exponential_parameters_refuse_nan():
    for alpha, beta in [(np.nan, 1.0), (0.5, np.nan)]:
        with pytest.raises(ConfigurationError, match="beta > 0"):
            hq.phi_exponential_closed_form(alpha, beta)
    with pytest.raises(ConfigurationError, match="decay rates must be positive"):
        hq.SumOfExponentialsKernel([0.5], [np.nan])


def test_solved_branching_vector(h1, phi_asymmetric):
    one = hq.KernelMatrix([[h1]], [2.0])
    assert np.array_equal(hq.solve_phi_grid(one, dt=0.05).a, one.branching_vector())
    assert one.branching_vector().tolist() == [4.0]
    assert np.array_equal(phi_asymmetric.a, phi_asymmetric.kernel.branching_vector())


def _trapezoid_laplace(phi, omega):
    """int_0^t_max exp(-omega t) phi(t) dt by the trapezoid rule on the grid."""
    return np.trapezoid(np.exp(-omega * phi.t) * phi.values, dx=phi.dt)


def test_phi_grid_h2_laplace_values(phi_h2):
    # Exact rational solution of the two-term Laplace system.
    assert _trapezoid_laplace(phi_h2, 0.25) == pytest.approx(1.2, abs=1e-3)
    assert _trapezoid_laplace(phi_h2, 4.0) == pytest.approx(0.2, abs=1e-3)
    assert _trapezoid_laplace(phi_h2, 1.0) == pytest.approx(oracles.H2_PHI_TILDE_1, abs=1e-3)


def test_laplace_pipeline_example_constants(h2):
    pipe = hq.laplace_pipeline(h2)
    assert pipe.R == pytest.approx([5.0 / 6.0, 10.0 / 63.0], abs=1e-12)
    assert np.allclose(pipe.M, [[17.0 / 60.0, 2.0 / 15.0],
                                [8.0 / 315.0, 17.0 / 315.0]], atol=1e-12)
    assert pipe.Xtilde == pytest.approx(oracles.H2_XTILDE, abs=1e-12)
    assert pipe.residual < 1e-10
    assert pipe.phi_tilde(1.0) == pytest.approx(oracles.H2_PHI_TILDE_1, abs=1e-12)


def test_laplace_pipeline_single_term(h1):
    pipe = hq.laplace_pipeline(h1)
    assert pipe.Xtilde == pytest.approx([1.0])      # phi~(beta) = 1.5/1.5
    assert pipe.phi_tilde(1.0) == pytest.approx(1.0)


def test_laplace_pipeline_zero_kernel():
    pipe = hq.laplace_pipeline(hq.ZERO_KERNEL)
    assert pipe.Xtilde.size == 0
    assert pipe.phi_tilde(2.0) == 0.0


@pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
def test_pipeline_consistency_with_grid(phi_h1, phi_h2, h1, h2, omega):
    for kern, phi in ((h1, phi_h1), (h2, phi_h2)):
        pipe = hq.laplace_pipeline(kern)
        assert _trapezoid_laplace(phi, omega) == pytest.approx(pipe.phi_tilde(omega), abs=1e-3)


# --- the spectral identity ----------------------------------------------------------

_OMEGAS = np.array([0.0, 0.3, 1.0, 3.0])


def _spectral_gap(kern, dt, t_max):
    """Largest gap, relative to the largest value, between the trapezoid cosine
    transform 2 int_0^t_max phi(t) cos(w t) dt of the solved density and
    phi^(w) = (|1 - h^(w)|^-2 - 1)/(1 - ||h||) at four frequencies."""
    phi = hq.solve_phi_grid(kern, dt=dt, t_max=t_max)
    got = 2.0 * np.trapezoid(np.cos(np.outer(_OMEGAS, phi.t)) * phi.values, dx=dt, axis=1)
    exact = (np.abs(1.0 - kern.fourier(_OMEGAS)) ** -2 - 1.0) / (1.0 - kern.l1_norm())
    return np.abs(got - exact).max() / np.abs(exact).max()


@st.composite
def stable_mixtures(draw):
    n = draw(st.integers(1, 3))
    betas = np.array(draw(st.lists(st.floats(0.5, 5.0), min_size=n, max_size=n)))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    return hq.SumOfExponentialsKernel(draw(st.floats(0.05, 0.8)) * weights / weights.sum() * betas,
                                      betas)


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(stable_mixtures())
def test_phi_spectral_identity_random_mixtures(kern):
    # a positive mixture's phi decays at least at min beta (1 - ||h||) >= 0.1, so
    # it is below e^-30 of phi(0) beyond t_max = 300; the gap is second order in dt
    coarse, fine = _spectral_gap(kern, 0.02, 300.0), _spectral_gap(kern, 0.01, 300.0)
    assert fine < 2e-3
    assert 3.5 < coarse / fine < 4.5


@pytest.mark.parametrize("kern,t_max,steps", [
    # H(80) = 1.16e-8 exceeds the grid's 1e-8 tail tolerance, so t_max = 100
    (hq.PowerLawKernel(1.0, 5.0, 2.0), 100.0, (0.02, 0.01)),
    (hq.SumOfExponentialsKernel([1.0, -0.5], [1.0, 2.0]), 80.0, (0.02, 0.01, 0.005)),
    (hq.TabulatedKernel(0.5, [0.0, 0.4, 0.3, 0.1, 0.0]), 80.0, (0.02, 0.01, 0.005))],
    ids=["power-law", "mixed-sign", "table"])
def test_phi_spectral_identity_fixed_kernels(kern, t_max, steps):
    # relative gaps: power law 1.24e-3 and 3.1e-4; mixture 2.7e-5, 6.7e-6 and 1.7e-6;
    # table 3.2e-5, 8.0e-6 and 2.0e-6
    gaps = [_spectral_gap(kern, dt, t_max) for dt in steps]
    assert gaps[0] < 2e-3
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 3.5 < coarse / fine < 4.5


def test_phi_tilde_positive(h1, h2):
    for kern in (h1, h2):
        pipe = hq.laplace_pipeline(kern)
        for omega in (0.1, 1.0, 7.0):
            assert pipe.phi_tilde(omega) > 0.0


def test_variance_function_h1(phi_h1, K_h1):
    assert K_h1.at(0.0) == 0.0
    for t in (0.5, 1.0, 2.0, 5.0):
        assert K_h1.at(t) == pytest.approx(oracles.K1(t), abs=1e-3)
    assert np.all(np.diff(K_h1.values) >= 0.0)


def test_variance_function_refuses_nan(K_h1):
    for x in (np.nan, [1.0, np.nan]):
        with pytest.raises(ConfigurationError, match="outside the solved grid"):
            K_h1.at(x)


def test_variance_convex_and_lipschitz(phi_h1, K_h1):
    second = np.diff(K_h1.values, 2)
    assert second.min() >= -1e-9
    lip = (1.0 / (1.0 - phi_h1.norm) + 2.0 * float(phi_h1.l1()) + 1e-9) * phi_h1.dt
    assert np.diff(K_h1.values).max() <= lip


def test_phi_nonnegative(phi_h1, phi_h2):
    assert phi_h1.values.min() >= -1e-9
    assert phi_h2.values.min() >= -1e-9


def test_limit_covariance_G(phi_h1, K_h1):
    assert hq.limit_covariance_G(phi_h1, K_h1, 2.0, 2.0) == pytest.approx(K_h1.at(2.0))
    got = hq.limit_covariance_G(phi_h1, K_h1, 1.0, 2.0)
    assert got == pytest.approx(oracles.covG1(1.0, 2.0), abs=1e-3)
    # symmetric wrapper
    assert hq.limit_covariance_G(phi_h1, K_h1, 2.0, 1.0) == pytest.approx(got)
    with pytest.raises(ConfigurationError):
        hq.limit_covariance_G(phi_h1, K_h1, 1.0, 100.0)


def test_stationary_increments_identity(phi_h1, K_h1):
    # K(t) + K(s) - 2 Cov(G(t), G(s)) = K(t - s) over all grid pairs:
    # with the running-integral form this reduces to an exact identity, so
    # check it vectorized across the full grid.
    t = phi_h1.t
    _, psi2 = phi_h1.cumulative()
    K = K_h1.values
    for i in range(1, t.size, 97):          # every s = t[i], all t >= s at once
        cov = t[i] / (1.0 - phi_h1.norm) + psi2[i] + psi2[i:] - psi2[:t.size - i]
        lhs = K[i:] + K[i] - 2.0 * cov
        assert np.abs(lhs - K[:t.size - i]).max() < 1e-6


def test_non_markov_witness(phi_h1, K_h1):
    g = lambda s, t: hq.limit_covariance_G(phi_h1, K_h1, s, t)
    witness = g(1, 3) * g(2, 2) - g(1, 2) * g(2, 3)
    assert abs(witness) > 1e-6
    assert witness == pytest.approx(oracles.H1_WITNESS_123, abs=5e-3)


def test_asymptotic_slope(h1, h2, quarter_matrix):
    assert hq.asymptotic_slope(hq.ZERO_KERNEL) == 1.0
    assert hq.asymptotic_slope(h1) == pytest.approx(8.0)
    assert hq.asymptotic_slope(h2) == pytest.approx(8.0)
    for kernel in (hq.KernelMatrix([[h1]], [1.0]), quarter_matrix):
        for spectral in (hq.asymptotic_slope, hq.asymptotic_offset, hq.laplace_pipeline):
            with pytest.raises(ConfigurationError):
                spectral(kernel)


def test_slope_consistency_with_grid(K_h1):
    assert K_h1.at(40.0) - K_h1.at(39.0) == pytest.approx(8.0, abs=1e-3)


def test_asymptotic_offset_h1(h1):
    assert hq.asymptotic_offset(hq.ZERO_KERNEL) == 0.0
    assert hq.asymptotic_offset(h1) == pytest.approx(oracles.H1_OFFSET, abs=5e-2)


def test_asymptotic_offset_h2_two_methods(h2, K_h2):
    bartlett = hq.asymptotic_offset(h2)
    assert bartlett == pytest.approx(oracles.H2_OFFSET, abs=5e-2)
    # large-t extrapolation from the solved grid, slope-corrected
    t1, t2 = 60.0, 78.0
    slope = (K_h2.at(t2) - K_h2.at(t1)) / (t2 - t1)
    extrapolated = K_h2.at(t1) - slope * t1
    assert bartlett == pytest.approx(extrapolated, abs=5e-2)


def test_asymptotic_offset_tabulated(h1):
    grid = np.arange(0, 8001) * 0.005
    tab = hq.TabulatedKernel(0.005, h1(grid))
    tracemalloc.start()
    try:
        offset = hq.asymptotic_offset(tab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert offset == pytest.approx(-12.0, abs=5e-2)
    # 4001 frequencies x 8001 values: one dense complex work table would take 512 MB
    assert peak < 100e6
    # the same 4001-node integral in long double, over 50-digit cell weights of the
    # interpolant's transform and its exact rational moments; the float64 integrand
    # lands 1.0e-12 relative from it, 4e-12 of that from rounding the transform and the
    # rest from (1 - ||h||)^2 - |1 - h^|^2, which cancels to 1e-8 at omega = 1e-4
    assert offset == pytest.approx(-11.999777104092509, rel=1e-12)


def test_asymptotic_offset_power_law():
    # the same spectral integral over mpmath's exact transform (A/c) e^z E_g(z),
    # z = -i omega/c, reads -4.139794996; the omega^-2 of the integrand amplifies
    # an error of the transform at small omega, so 1e-10 there moves it by 4e-5
    assert hq.asymptotic_offset(hq.PowerLawKernel(1.0, 5.0, 2.0)) == \
        pytest.approx(-4.1397950, abs=1e-7)


def test_multivariate_reduces_to_univariate(phi_h1, h1):
    km = hq.KernelMatrix([[h1]], [1.0])
    multi = hq.solve_multivariate_phi(km, dt=0.01, t_max=40.0)
    assert np.abs(multi.values[:, 0, 0] - phi_h1.values).max() < 1e-10


def test_multivariate_decoupled_off_diagonals(h1):
    km = hq.KernelMatrix([[h1, hq.ZERO_KERNEL], [hq.ZERO_KERNEL, h1]], [1.0, 1.0])
    multi = hq.solve_multivariate_phi(km, dt=0.05, t_max=40.0)
    assert np.abs(multi.values[:, 0, 1]).max() < 1e-8
    assert np.abs(multi.values[:, 1, 0]).max() < 1e-8
    K = hq.variance_function(multi)
    assert abs(K.at(5.0)[0, 1]) < 1e-8


def test_multivariate_exchangeable_symmetry(phi_quarter):
    v = phi_quarter.values
    assert np.abs(v[:, 0, 0] - v[:, 1, 1]).max() <= 1e-12
    assert np.abs(v[:, 0, 1] - v[:, 1, 0]).max() <= 1e-12
    # mark thinning makes every entry 0.75 exp(-t/2) for this configuration
    exact = 0.75 * np.exp(-0.5 * phi_quarter.t)
    assert np.abs(v[:, 0, 0] - exact).max() < 5e-3
    assert np.abs(v[:, 0, 1] - exact).max() < 5e-3


def test_multivariate_variance_and_covariance(phi_quarter, phi_h1):
    K = hq.variance_function(phi_quarter)
    assert np.all(K.at(0.0) == 0.0)
    got = hq.limit_covariance_G(phi_quarter, K, 2.0, 2.0)
    assert got == pytest.approx(K.at(2.0), abs=1e-12)
    # k = 1 reduction agrees with the running integrals of the scalar density
    km = hq.KernelMatrix([[hq.SumOfExponentialsKernel([0.5], [1.0])]], [1.0])
    multi = hq.solve_multivariate_phi(km, dt=0.01, t_max=40.0)
    scalar = running_integral_cov(phi_h1)(1.0, 2.0)[0, 0]
    assert hq.count_limit_model(multi).cov(1.0, 2.0)[0, 0] == pytest.approx(scalar, abs=1e-8)


_E = hq.SumOfExponentialsKernel
_DENSE_CASES = {
    "h1": (_E([0.5], [1.0]), dict(dt=0.1, t_max=40.0)),
    "h2": (_E([0.1, 0.4], [0.25, 4.0]), dict(dt=0.1, t_max=80.0)),
    "near-critical": (_E([0.99], [1.0]), dict(dt=0.1)),
    # near the rounding floor that _GMRES_RTOL sits above; at dt = 0.1 the trapezoid
    # sum of h is 1.0007, a supercritical discrete system
    "critical-0.9999": (_E([0.9999], [1.0]), dict(dt=0.02)),
    "power-law": (hq.PowerLawKernel(1.0, 5.0, 2.0), dict(dt=0.1)),
    "tabulated": (hq.TabulatedKernel(0.05, 0.6 * np.arange(801) * 0.05
                                     * np.exp(-np.arange(801) * 0.05)),
                  dict(dt=0.1, t_max=40.0)),
    "quarter-k2": (hq.KernelMatrix([[_E([0.25], [1.0])] * 2] * 2, [1.0, 1.0]),
                   dict(dt=0.1, t_max=40.0)),
    # four distinct entries: a transposed index in either sum changes the grid
    "asymmetric-k2": (hq.KernelMatrix([[_E([0.3], [1.0]), _E([0.1], [2.0])],
                                       [_E([0.2], [0.5]), hq.PowerLawKernel(1.0, 5.0, 0.6)]],
                                      [1.0, 0.5]),
                      dict(dt=0.2)),
}


def test_matrix_density_evaluates_arrays(phi_asymmetric):
    phi = phi_asymmetric
    x = np.array([0.05, 0.37, 2.0, 7.31])
    fwd, bwd = phi(x), phi(-x)
    assert fwd.shape == (4, 2, 2)
    assert np.array_equal(bwd, np.swapaxes(fwd, 1, 2))     # Phi(-x) = Phi(x)^T
    assert np.abs(fwd[:, 0, 1] - fwd[:, 1, 0]).min() > 1e-3
    for xi, m in zip(x, fwd):
        assert np.array_equal(phi(xi), m) and np.array_equal(phi(-xi), m.T)
    beyond = phi.t_max + np.array([0.01, 3.0])
    assert np.array_equal(phi(np.concatenate([beyond, -beyond])), np.zeros((4, 2, 2)))


@pytest.mark.parametrize("case", sorted(_DENSE_CASES))
def test_matches_dense_reference(case):
    kernel, grid = _DENSE_CASES[case]
    if isinstance(kernel, hq.KernelMatrix):
        km, phi = kernel, hq.solve_multivariate_phi(kernel, **grid)
    else:
        km, phi = hq.KernelMatrix([[kernel]], [1.0]), hq.solve_phi_grid(kernel, **grid)
    ref = dense_density(km.entries, km.branching_vector(), phi.t, phi.dt)
    got = phi.values.reshape(ref.shape)
    assert np.abs(got - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())


def test_unconverged_solve_raises(monkeypatch):
    monkeypatch.setattr(covariance, "_GMRES_BASIS", 2)
    # an exponential kernel converges in one step (its history part has rank one)
    with pytest.raises(NumericalError, match="GMRES did not converge"):
        hq.solve_phi_grid(hq.PowerLawKernel(1.0, 5.0, 2.0), dt=0.1)


def test_supercritical_trapezoid_system_raises():
    # ||h|| = 0.9999, but the trapezoid sum of h at dt 0.1 is 0.9999 * 1.00083 = 1.0007
    kernel = _E([0.9999], [1.0])
    with pytest.raises(NumericalError, match=r"trapezoid norm .* 1\.0007\d* >= 1 at dt = 0\.1; "
                                             r"refine dt"):
        hq.solve_phi_grid(kernel, dt=0.1)
    assert hq.solve_phi_grid(kernel, dt=0.02).values.min() >= 0.0
    # k > 1: the spectral radius of the matrix of trapezoid sums, 2 * 0.49995 * 1.00083
    half = _E([0.49995], [1.0])
    with pytest.raises(NumericalError, match=r"trapezoid norm .* 1\.0007\d* >= 1 at dt = 0\.1"):
        hq.solve_multivariate_phi(hq.KernelMatrix([[half, half], [half, half]], [1.0, 1.0]),
                                  dt=0.1)


def test_fft_length_matches_scipy():
    cap = 2 * covariance._MAX_UNKNOWNS
    for n in [*range(1, 2**17 + 1), *range(cap - 40, cap + 41)]:
        assert covariance._next_fast_len(n) == next_fast_len(n, real=True), n


_HEAVY = hq.PowerLawKernel(1.0, 1.5, 0.2)     # tail mass ~ t^-1/2: no horizon reaches 1e-8


@pytest.mark.parametrize("solve", [
    lambda: hq.solve_phi_grid(_HEAVY, dt=0.02),
    lambda: hq.solve_multivariate_phi(
        hq.KernelMatrix([[_HEAVY, hq.ZERO_KERNEL], [hq.ZERO_KERNEL, _HEAVY]], [1.0, 1.0]), dt=0.02),
    lambda: hq.solve_phi_grid(_E([0.5], [1.0]), dt=1e-5, t_max=40.0),
    lambda: hq.solve_multivariate_phi(
        hq.KernelMatrix([[_E([0.25], [1.0])] * 2] * 2, [1.0, 1.0]), dt=1e-4, t_max=40.0),
], ids=["auto-k1", "auto-k2", "explicit-k1", "explicit-k2"])
def test_grid_cap_checked_before_allocation(solve):
    tracemalloc.start()
    try:
        with pytest.raises(NumericalError):
            solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_residual_reported(phi_h1, phi_h2, phi_quarter):
    for phi in (phi_h1, phi_h2, phi_quarter):
        assert phi.residual < 1e-6


def test_csv_emitters(tmp_path, phi_h1, K_h1):
    # the covG.csv dump of `analyze` is checked in test_cli
    phi_h1.write_csv(tmp_path / "phi.csv")
    K_h1.write_csv(tmp_path / "K.csv")
    for name, label in (("phi.csv", "phi"), ("K.csv", "K")):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == f"t,{label}" and len(lines) == phi_h1.t.size + 1
