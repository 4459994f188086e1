import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import hawkesq as hq
from hawkesq import limits
from hawkesq.errors import ConfigurationError, NumericalError, TruncationError

import oracles
from dense_reference import dense_double_sum, nested_quad_steady_var, running_integral_cov


# --- var_X_infty and the general-service queue limit ------------------------------

def test_var_x_infty_poisson_is_mean_service():
    phi0 = hq.solve_phi_grid(hq.ZERO_KERNEL, dt=0.02, t_max=40.0)
    assert hq.var_X_infty(hq.ExponentialService(2.0), phi0) == pytest.approx(0.5, abs=1e-9)
    assert hq.var_X_infty(hq.DeterministicService(1.0), phi0) == pytest.approx(1.0, abs=1e-9)
    # The zero density has no lag term, so heavy service tails whose survival
    # cutoff / dt exceeds the lattice's node cap still give E[S], with no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        var = hq.var_X_infty(hq.LogNormalService(0.0, 2.0), phi0)
        approx = hq.gaussian_queue_approx(20.0, hq.ZERO_KERNEL,
                                          service=hq.LogNormalService(0.0, 1.5))
    assert var == pytest.approx(math.exp(2.0))
    assert approx.sigma == pytest.approx(math.sqrt(20.0 * math.exp(1.125)))
    limit = hq.phi_exponential_closed_form(0.0, 1.0)
    assert hq.var_X_infty(hq.DeterministicService(2.0), limit) == 2.0


def test_var_x_infty_h1_exponential(phi_h1, phi_h1_exact):
    assert hq.var_X_infty(hq.ExponentialService(1.0), phi_h1) == \
        pytest.approx(3.0, abs=1e-3)
    assert hq.var_X_infty(hq.ExponentialService(1.0), phi_h1_exact) == \
        pytest.approx(3.0, abs=1e-6)


@pytest.mark.parametrize("alphas,betas,exact", [([0.5], [1.0], {0.5: 7.0, 2.0: 1.3}),
                                                ([1.0, -0.5], [1.0, 2.0], {0.5: 25.9, 2.0: 3.4})])
def test_var_x_infty_exponential_rates(alphas, betas, exact):
    # (a + phi~(r)) / r is rational for a rational mixture: h1 from its closed form
    # (a = 2, phi~(r) = 1.5 / (r + 0.5)); the mixed-sign mixture from its Laplace
    # system in exact rationals (259/10 and 17/5), which the partial fractions of
    # 1 - h^ confirm.  The lattice lag sum is second order, within 1e-4 at dt = 0.01.
    # Every model reads the one steady-state rule, so the OU-type limit and
    # steady_state_cov_multi are exact too; a kernel-built model's value is a float.
    phi = hq.solve_phi_grid(hq.SumOfExponentialsKernel(alphas, betas), dt=0.01, t_max=40.0)
    for r, value in exact.items():
        F = hq.ExponentialService(r)
        steady = hq.multi_ou_limit_model(phi, [r]).steady_state_variance
        assert type(steady) is float
        for got in (hq.var_X_infty(F, phi), steady, hq.steady_state_cov_multi(phi, [r])[0, 0],
                    hq.queue_limit_model(phi, F, F, 0.0).steady_state_variance):
            assert got == pytest.approx(value, rel=0.0, abs=1e-12)
        assert abs(limits._steady_cov(phi, [F])[0, 0] - value) < 1e-4


def test_var_x_infty_h1_deterministic(phi_h1):
    # Q(t) with deterministic service v counts arrivals in a window of length v,
    # so the steady-state variance is exactly K(v); 0.555 and 2.3456 are off the lattice.
    for v in (1.0, 0.555, 2.3456):
        got = hq.var_X_infty(hq.DeterministicService(v), phi_h1)
        assert got == pytest.approx(oracles.K1(v), abs=1e-4)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_var_x_infty_node_cap_checked_before_allocation(phi_h1):
    # survival cutoff 1.3e6: 1.3e8 lattice nodes at dt = 0.01; the truncation
    # certificate, a NumericalError too, refuses it before the node cap does
    def call():
        with pytest.raises(NumericalError):
            hq.var_X_infty(hq.LogNormalService(0.0, 2.0), phi_h1)

    _, peak = _peak_bytes(call)
    assert peak < 1e6


def test_truncation_certificate_checked_before_the_lag_sum(phi_h1, phi_quarter):
    # the dropped tail 2 max|Phi| max E[S_i] max int_{cutoff_i}^inf S_i must stay
    # under 1e-6: for Exp(r) it is 2 max|Phi| 1e-12 / min r^2 (max|Phi| = 0.75 on
    # phi_quarter); LogNormal(0, 3) keeps 1.0e-3 of its mean beyond its cutoff
    assert issubclass(TruncationError, NumericalError)
    with pytest.raises(TruncationError, match="1.50e-04"):
        hq.steady_state_cov_multi(phi_quarter, [1e-4, 1.0])
    with pytest.raises(TruncationError, match="2.70e-01"):
        hq.var_X_infty(hq.LogNormalService(0.0, 3.0), phi_h1)


def test_var_x_infty_heavy_service_grid_matches_closed_form(phi_h1_exact):
    # survival cutoff 1135: 113,512 lattice nodes at dt = 0.01
    F = hq.LogNormalService(0.0, 1.0)
    grid, peak = _peak_bytes(lambda: hq.var_X_infty(F, phi_h1_exact))
    assert peak < 50e6
    exact = nested_quad_steady_var(F, oracles.phi1, phi_h1_exact.a[0], phi_h1_exact.t_max)
    assert abs(grid - exact) < 1e-5


def test_consistency_identity_exponential_service(h1, phi_h1_exact):
    # Corollary-route double integral vs the Laplace-route formula, 1e-6.
    lhs = nested_quad_steady_var(hq.ExponentialService(1.0), oracles.phi1, phi_h1_exact.a[0],
                                 phi_h1_exact.t_max)
    rhs = hq.var_xe_infty(h1)
    assert abs(lhs - rhs) < 1e-6


def _cov_x_general_deterministic_h1(v, q0, s, t):
    """Independent oracle: the h1 closed-form density integrated over the
    indicator region of a deterministic service time v (F0 = F)."""
    lo, hi = sorted((s, t))
    d = hi - lo
    term1 = q0 * (lo >= v) * (hi < v)
    term2 = min(lo, max(v - d, 0.0)) / (1.0 - oracles.ALPHA1 / oracles.BETA1)

    # ages tau (of u) in [0, min(hi, v)], sigma (of v') in [0, min(lo, v)], lag
    # d + sigma - tau; the inner integral is split at the kink of phi1 at lag 0
    def inner(tau):
        kink = [tau - d] if 0.0 < tau - d < min(lo, v) else None
        val, _ = quad(lambda sig: oracles.phi1(d + sig - tau), 0.0, min(lo, v),
                      points=kink, epsabs=1e-13, epsrel=1e-13)
        return val

    term3, _ = quad(inner, 0.0, min(hi, v), epsabs=1e-12, epsrel=1e-12)
    return term1 + term2 + term3


def test_cov_x_general_deterministic_second_order(phi_h1):
    # the survival step is integrated to its jump, not sampled at the nodes:
    # sampling it at the nodes left errors of 1.2e-3 to 2.2e-2 here at dt = 0.01
    for v, s, t in [(1.0, 0.37, 2.913), (1.0, 0.8, 1.3), (0.555, 1.234, 1.5),
                    (2.3456, 1.0, 3.0), (1.0, 2.5, 2.5)]:
        F = hq.DeterministicService(v)
        got = hq.queue_limit_model(phi_h1, F, F, 2.0).cov(s, t)
        assert got == pytest.approx(_cov_x_general_deterministic_h1(v, 2.0, s, t), abs=1e-4)


def test_cov_x_general_basics(phi_h1):
    F = hq.ExponentialService(1.0)
    model = hq.queue_limit_model(phi_h1, F, F, 0.0)
    assert model.cov(0.0, 5.0) == 0.0
    # q0 = 0 kills the bridge term: s = t variance matches eq. components
    assert model.cov(3.0, 3.0) > 0
    with pytest.raises(ConfigurationError):
        hq.queue_limit_model(phi_h1, F, F, 1.0).cov(1.0, 1000.0)


def test_cov_x_general_poisson_limit():
    phi0 = hq.solve_phi_grid(hq.ZERO_KERNEL, dt=0.02, t_max=40.0)
    F = hq.ExponentialService(1.0)
    t = 30.0
    v = hq.queue_limit_model(phi0, F, F, 1.0).cov(t, t)
    assert v == pytest.approx(1.0, abs=1e-4)   # M/M/inf limit variance = offered load


def test_cov_x_general_reduces_to_cov_xe(phi_h1, phi_asymmetric):
    # exponential service with q0 at the offered load is the OU case
    F = hq.ExponentialService(1.0)
    q0 = 1.0 / (1.0 - phi_h1.norm)
    for s, t in [(1.0, 2.0), (0.5, 3.0), (2.5, 2.5)]:
        a = hq.queue_limit_model(phi_h1, F, F, q0).cov(s, t)
        b = hq.exp_queue_limit_model(phi_h1).cov(s, t)
        assert a == pytest.approx(b, rel=1e-14)
    r = np.array([1.0, 0.7])
    Fs = [hq.ExponentialService(ri) for ri in r]
    general = hq.queue_limit_model(phi_asymmetric, Fs, Fs, q0=phi_asymmetric.a / r)
    ou = hq.multi_ou_limit_model(phi_asymmetric, r).gram(_GRAM_TIMES)
    assert np.abs(general.gram(_GRAM_TIMES) - ou).max() <= 1e-14 * np.abs(ou).max()


# --- X_e ------------------------------------------------------------------------

def test_cov_xe_poisson_and_zero_start(phi_h1):
    phi0 = hq.solve_phi_grid(hq.ZERO_KERNEL, dt=0.02, t_max=40.0)
    assert hq.exp_queue_limit_model(phi0).cov(4.0, 4.0) == \
        pytest.approx(1.0 - np.exp(-8.0), abs=1e-12)
    assert hq.exp_queue_limit_model(phi_h1).cov(0.0, 5.0) == 0.0


def test_cov_xe_matches_explicit_display(phi_h1):
    # the last two pairs lie off the dt = 0.01 lattice
    model = hq.exp_queue_limit_model(phi_h1)
    for s, t in [(1.0, 2.0), (0.5, 1.5), (2.0, 2.0), (0.37, 2.913), (1.234, 5.678)]:
        assert model.cov(s, t) == pytest.approx(oracles.cov_xe1(s, t), abs=1e-4)


def _dense_cov_xe(phi, s, t):
    lo, hi = sorted((s, t))
    first = (np.exp(-(hi - lo)) - np.exp(-(hi + lo))) / (1.0 - phi.norm)
    return first + dense_double_sum(phi, hi, lo, lambda u: np.exp(-(hi - u)),
                                    lambda v: np.exp(-(lo - v)))


def _dense_queue_cov(phi, F, i, j, s, t):
    """Cov(X_i(t), X_j(s)) of the queue limit with F0_i = F_i and q0_i = 1: the
    theta term by adaptive quadrature of the survival, the lag part densely."""
    if t < s:
        return _dense_queue_cov(phi, F, j, i, t, s)

    def axis(G, T):
        # the integrand over arrival times in [u0, T]; a deterministic survival
        # is 1 on ages [0, v], so integrate 1 over u >= T - v
        if isinstance(G, hq.DeterministicService):
            return np.ones_like, max(T - G.value, 0.0)
        return (lambda u: G.survival(T - u)), 0.0

    (fu, u0), (fv, v0) = axis(F[i], t), axis(F[j], s)
    out = dense_double_sum(phi, t, s, fu, fv, i, j, u0=u0, v0=v0)
    if i == j:
        G = F[i]
        jump = [G.value] if isinstance(G, hq.DeterministicService) and t - s < G.value < t else None
        theta, _ = quad(G.survival, t - s, t, points=jump, epsabs=1e-14, epsrel=1e-13)
        out += G.cdf(s) * G.survival(t) + phi.a[i] * theta
    return out


def _dense_cov_x_general(F, phi, s, t):
    """The k = 1 queue limit with F0 = F and q0 = 1."""
    return _dense_queue_cov(phi, [F], 0, 0, s, t)


def _dense_cov_multi_ou_offdiag(phi, r, i, j, s, t):
    if t < s:
        return _dense_cov_multi_ou_offdiag(phi, r, j, i, t, s)
    return dense_double_sum(phi, t, s, lambda u: np.exp(-r[i] * (t - u)),
                            lambda v: np.exp(-r[j] * (s - v)), i, j)


_SERVICES = {"lognormal": hq.LogNormalService(0.0, 0.5),
             "exponential": hq.ExponentialService(1.0),
             "deterministic": hq.DeterministicService(1.0)}
# keyed by covariance form: X_e, the k = 1 queue limit, the k = 2 OU-type entry (i, j)
_LAG_CASES = {
    "cov_Xe": lambda phi, pm, s, t: (hq.exp_queue_limit_model(phi).cov(s, t),
                                     _dense_cov_xe(phi, s, t)),
    **{f"cov_X_general-{name}": (
        lambda phi, pm, s, t, F=F: (hq.queue_limit_model(phi, F, F, 1.0).cov(s, t),
                                    _dense_cov_x_general(F, phi, s, t)))
       for name, F in _SERVICES.items()},
    **{f"cov_multi_ou-{i}{j}": (
        lambda phi, pm, s, t, i=i, j=j: (hq.multi_ou_limit_model(pm, [1.0, 2.0]).cov(s, t)[i, j],
                                         _dense_cov_multi_ou_offdiag(pm, [1.0, 2.0], i, j, s, t)))
       for i, j in [(0, 1), (1, 0)]},
}


@pytest.mark.parametrize("case", sorted(_LAG_CASES))
def test_lag_quadrature_matches_dense_reference(case, phi_h1, phi_asymmetric):
    # grid-aligned times in both orders: the lag sum is the dense double sum reordered
    for s, t in [(1.0, 3.0), (2.5, 2.5), (4.0, 0.5)]:
        got, ref = _LAG_CASES[case](phi_h1, phi_asymmetric, s, t)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def test_var_xe_infty_h1(h1, phi_h1):
    assert hq.var_xe_infty_exponential(0.5, 1.0) == pytest.approx(3.0, abs=1e-12)
    assert hq.var_xe_infty(h1) == pytest.approx(3.0, abs=5e-4)
    assert hq.var_xe_infty(h1, phi=phi_h1, method="grid") == pytest.approx(3.0, abs=1e-3)
    assert hq.var_xe_infty(hq.ZERO_KERNEL) == pytest.approx(1.0)


def test_var_xe_infty_h2(h2, phi_h2):
    # Exact value 88/35 from the rational Laplace system (see oracles.py for
    # why this differs from the 2.5246 printed in the source example).
    assert hq.var_xe_infty(h2) == pytest.approx(oracles.H2_VAR_XE, abs=1e-12)
    assert hq.var_xe_infty(h2, phi=phi_h2, method="grid") == \
        pytest.approx(oracles.H2_VAR_XE, abs=1e-3)


@pytest.mark.parametrize("alpha,beta", [(0.1, 0.6), (0.3, 1.0), (0.5, 1.0),
                                        (0.9, 1.3), (1.5, 2.0), (2.0, 9.0)])
def test_var1_lattice_identity(alpha, beta):
    # VAR1 equals phi~(1) + 1/(1 - alpha/beta) with the closed-form phi~.
    pref = alpha * beta * (2 * beta - alpha) / (2 * (beta - alpha) ** 2)
    phi_tilde_1 = pref / (1.0 + beta - alpha)
    assert oracles.var1(alpha, beta) == pytest.approx(
        phi_tilde_1 + 1.0 / (1.0 - alpha / beta), abs=1e-10)
    assert hq.var_xe_infty_exponential(alpha, beta) == pytest.approx(
        oracles.var1(alpha, beta), abs=1e-12)


@pytest.mark.parametrize("seed", [3, 4])
def test_monotone_influence(seed):
    rng = np.random.default_rng(seed)
    alphas = rng.uniform(0.05, 0.2, 2)
    betas = rng.uniform(0.5, 3.0, 2)
    kern = hq.SumOfExponentialsKernel(alphas, betas)
    poisson_value = 1.0 / (1.0 - kern.l1_norm())
    assert hq.var_xe_infty(kern) > poisson_value


# --- Gaussian queue pmf -----------------------------------------------------------

def test_gaussian_queue_pair_h1(h1):
    approx = hq.gaussian_queue_approx(100.0, h1)
    assert approx.mean == pytest.approx(200.0)
    assert approx.sigma == pytest.approx(np.sqrt(300.0), abs=1e-9)
    assert approx.pmf(200) == pytest.approx(1.0 / np.sqrt(2 * np.pi * 300.0))


def test_gaussian_queue_pair_h2(h2):
    approx = hq.gaussian_queue_approx(100.0, h2)
    assert approx.sigma**2 == pytest.approx(100.0 * oracles.H2_VAR_XE, abs=1e-9)


def test_gaussian_pmf_symmetry(h1):
    approx = hq.gaussian_queue_approx(100.0, h1)   # integer mean 200
    for x in (1, 5, 17):
        assert approx.pmf(200 + x) == pytest.approx(approx.pmf(200 - x))


# --- multivariate OU -----------------------------------------------------------

def test_cov_multi_ou_decoupled(h1):
    km = hq.KernelMatrix([[h1, hq.ZERO_KERNEL], [hq.ZERO_KERNEL, h1]], [1.0, 1.0])
    model = hq.multi_ou_limit_model(hq.solve_multivariate_phi(km, dt=0.05, t_max=40.0),
                                    [1.0, 1.0])
    assert abs(model.cov(1.0, 2.0)[0, 1]) < 1e-8
    assert model.cov(0.0, 2.0)[0, 0] == 0.0


def test_cov_multi_ou_k1_matches_cov_xe(phi_h1, h1):
    km = hq.KernelMatrix([[h1]], [1.0])
    model = hq.multi_ou_limit_model(hq.solve_multivariate_phi(km, dt=0.01, t_max=40.0), [1.0])
    for s, t in [(1.0, 2.0), (3.0, 0.5)]:
        assert model.cov(s, t)[0, 0] == pytest.approx(
            hq.exp_queue_limit_model(phi_h1).cov(s, t), abs=1e-6)


def test_cov_multi_ou_rejects_bad_rates_and_classes(phi_h1, phi_asymmetric):
    # a zero, negative, nan or missing rate is a configuration error, not nan
    # or a silent value
    for phi, r in [(phi_h1, [0.0]), (phi_h1, [-1.0]), (phi_h1, [1.0, 1.0]),
                   (phi_asymmetric, [1.0]), (phi_asymmetric, [1.0, np.nan])]:
        with pytest.raises(ConfigurationError):
            hq.multi_ou_limit_model(phi, r)
    with pytest.raises(ConfigurationError):
        hq.steady_state_cov_multi(phi_asymmetric, [1.0, 0.0])
    # one queue of a k = 1 model: one service law for two classes is refused
    for call in (hq.var_xe_infty, lambda kernel: hq.gaussian_queue_approx(1.0, kernel)):
        with pytest.raises(ConfigurationError, match="one service law per class"):
            call(phi_asymmetric.kernel)
    # per-class laws and loads of the queue limit: one per class, or one for all
    F = hq.LogNormalService(0.0, 0.5)
    for F0, Fs, q0, x0 in [(F, [F] * 3, 1.0, 0.0), ([F], F, 1.0, 0.0), (F, F, [1.0] * 3, 0.0),
                           (F, F, 1.0, [0.0])]:
        with pytest.raises(ConfigurationError):
            hq.queue_limit_model(phi_asymmetric, F0, Fs, q0, x0)


def test_steady_state_cov_multi_exchangeable(phi_quarter):
    ss = hq.steady_state_cov_multi(phi_quarter, [1.0, 1.0])
    # frozen oracle: superposition/thinning argument gives [[2.5, .5], [.5, 2.5]]
    assert np.allclose(ss, [[2.5, 0.5], [0.5, 2.5]], atol=5e-3)
    assert ss[0, 0] == pytest.approx(ss[1, 1], abs=1e-9)


def test_steady_state_cov_multi_decoupled(h1):
    km = hq.KernelMatrix([[h1, hq.ZERO_KERNEL], [hq.ZERO_KERNEL, h1]], [1.0, 1.0])
    phi = hq.solve_multivariate_phi(km, dt=0.02, t_max=40.0)
    ss = hq.steady_state_cov_multi(phi, [1.0, 1.0])
    assert abs(ss[0, 1]) < 1e-6
    assert ss[0, 0] == pytest.approx(hq.var_xe_infty(h1), abs=2e-3)
    eigs = np.linalg.eigvalsh(ss)
    assert eigs.min() > 0


# --- assembled models and sampling -----------------------------------------------

def test_sample_limit_path_brownian():
    phi0 = hq.solve_phi_grid(hq.ZERO_KERNEL, dt=0.02, t_max=40.0)
    model = hq.count_limit_model(phi0)
    draws = hq.sample_limit_path(model, [1.0, 2.0], seed=5, n_draws=10_000)
    cov = np.cov(draws.T)
    target = np.array([[1.0, 1.0], [1.0, 2.0]])
    se = np.sqrt(2.0 / draws.shape[0]) * 2.0      # crude moment SE
    assert np.abs(cov - target).max() < 3.0 * se * 2.0


def test_sample_limit_path_h1_count(phi_h1, K_h1):
    model = hq.count_limit_model(phi_h1)
    draws = hq.sample_limit_path(model, [1.0, 2.0], seed=6, n_draws=10_000)
    cov = np.cov(draws.T)
    for (a, s), (b, t) in [((0, 1.0), (0, 1.0)), ((0, 1.0), (1, 2.0)), ((1, 2.0), (1, 2.0))]:
        target = hq.limit_covariance_G(phi_h1, K_h1, s, t)
        se = (abs(target) + 1.0) * np.sqrt(2.0 / draws.shape[0])
        assert abs(cov[a, b] - target) < 4.0 * se


def test_exp_queue_limit_model_steady_state_of_a_matrix_density(h1):
    # a 1 x 1 KernelMatrix is the k = 1 model: its exponential-mixture entry takes
    # the exact Laplace route, as the Kernel does
    phi = hq.solve_multivariate_phi(hq.KernelMatrix([[h1]], [1.0]), dt=0.01, t_max=40.0)
    assert hq.exp_queue_limit_model(phi).steady_state_variance == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("kernel", [
    hq.SumOfExponentialsKernel([0.5], [1.0]), hq.SumOfExponentialsKernel([0.1, 0.4], [0.25, 4.0]),
    hq.SumOfExponentialsKernel([0.99], [1.0]), hq.PowerLawKernel(1, 5, 2),
], ids=["h1", "h2", "near-critical", "power-law"])
def test_one_model_one_answer(kernel):
    # the 1 x 1 KernelMatrix and the Kernel are one model: bitwise the same values
    # at the default grid, each in its own shape
    matrix = hq.KernelMatrix([[kernel]], [1.0])
    phis = {}
    for form in (kernel, matrix):
        phi = phis[form] = hq.solve_phi_grid(form)
        again = hq.solve_multivariate_phi(form)
        assert phi.dt == 0.01 and np.array_equal(phi.grid, again.grid)
        assert phi.is_matrix is (form is matrix) and phi.values.ndim == (3 if form is matrix else 1)
    pk, pm = phis[kernel], phis[matrix]
    assert np.array_equal(pk.t, pm.t) and np.array_equal(pk.grid, pm.grid)
    assert np.array_equal(pk.a, pm.a) and pk.residual == pm.residual

    def view(value):
        return value[0, 0] if np.ndim(value) == 2 else value

    for r in (1.0, 2.0):
        F = hq.ExponentialService(r)
        assert hq.var_X_infty(F, pk) == hq.var_X_infty(F, pm)
        assert hq.gaussian_queue_approx(20.0, kernel, service=F) == \
            hq.gaussian_queue_approx(20.0, matrix, service=F)
        ou_k, ou_m = (hq.multi_ou_limit_model(p, [r]).steady_state_variance for p in (pk, pm))
        assert type(ou_k) is float and np.shape(ou_m) == (1, 1) and ou_k == view(ou_m)
        assert np.array_equal(hq.steady_state_cov_multi(pk, [r]),
                              hq.steady_state_cov_multi(pm, [r]))
    assert hq.var_xe_infty(kernel) == hq.var_xe_infty(matrix)
    assert hq.exp_queue_limit_model(pk).steady_state_variance == \
        view(hq.exp_queue_limit_model(pm).steady_state_variance)
    config = hq.HawkesConfig(10.0, matrix)
    assert not config.is_multivariate
    assert config.mean_rate() == hq.HawkesConfig(10.0, kernel).mean_rate()


def test_gaussian_queue_approx_scales_with_the_baseline_shape(h1):
    doubled = hq.gaussian_queue_approx(20.0, hq.KernelMatrix([[h1]], [2.0]))
    plain = hq.gaussian_queue_approx(40.0, h1)
    assert doubled.mean == pytest.approx(plain.mean, rel=1e-12)
    assert doubled.sigma == pytest.approx(plain.sigma, rel=1e-12)


def test_one_class_matrix_models_keep_the_class_axis(h1, phi_h1):
    # a density built from a 1 x 1 KernelMatrix shows every value as a matrix, the
    # one built from the Kernel as a scalar: cov, phi, K, steady state and draws alike
    phi_m = hq.solve_multivariate_phi(hq.KernelMatrix([[h1]], [1.0]), dt=0.01, t_max=40.0)
    F, times = hq.DeterministicService(1.5), [1.0, 2.0]
    assert phi_m(0.5).shape == hq.variance_function(phi_m).at(1.0).shape == (1, 1)
    assert np.shape(hq.limit_covariance_G(phi_m, None, 1.0, 2.0)) == (1, 1)
    for build in (hq.count_limit_model, lambda phi: hq.multi_ou_limit_model(phi, [1.0]),
                  lambda phi: hq.queue_limit_model(phi, F, F, 1.0)):
        matrix, scalar = build(phi_m), build(phi_h1)
        assert np.shape(matrix.cov(1.0, 2.0)) == (1, 1) and np.ndim(scalar.cov(1.0, 2.0)) == 0
        assert hq.sample_limit_path(matrix, times, seed=3).shape == (1, 2, 1)
        assert hq.sample_limit_path(scalar, times, seed=3).shape == (1, 2)
        if build is not hq.count_limit_model:            # G has no steady state
            assert matrix.steady_state_variance.shape == (1, 1)
            assert type(scalar.steady_state_variance) is float


def test_queue_limit_of_service_that_never_ends(phi_h1):
    # the steady state is computed on first access, so a model without one builds;
    # with no initial load it is the count limit
    never = hq.DeterministicService(math.inf)
    model = hq.queue_limit_model(phi_h1, hq.ExponentialService(1.0), never, 0.0)
    assert np.array_equal(model.gram(_GRAM_TIMES), hq.count_limit_model(phi_h1).gram(_GRAM_TIMES))
    with pytest.raises(ConfigurationError, match="service mean must be finite"):
        model.steady_state_variance


def test_sample_limit_path_determinism(phi_h1):
    model = hq.exp_queue_limit_model(phi_h1, x0=1.0)
    a = hq.sample_limit_path(model, [0.5, 1.0, 2.0], seed=9, n_draws=3)
    b = hq.sample_limit_path(model, [0.5, 1.0, 2.0], seed=9, n_draws=3)
    assert np.array_equal(a, b)


def test_sample_limit_path_multivariate(phi_quarter):
    model = hq.multi_ou_limit_model(phi_quarter, [1.0, 1.0])
    draws = hq.sample_limit_path(model, [1.0, 3.0], seed=2, n_draws=8000)
    assert draws.shape == (8000, 2, 2)
    c = np.cov(draws[:, 1, 0], draws[:, 1, 1])[0, 1]
    target = model.cov(3.0, 3.0)[0, 1]
    assert abs(c - target) < 0.1


def test_queue_general_model_deterministic_service_sampling(phi_h1):
    # the limit is Gaussian for any service law: its exact Gram samples it
    F0, F, q0, x0 = hq.DeterministicService(1.5), hq.DeterministicService(1.0), 2.0, 1.0
    model = hq.queue_limit_model(phi_h1, F0, F, q0=q0, x0=x0)
    assert model.cov(1.0, 2.0) == model.cov(2.0, 1.0)
    times = [1.0, 2.0]
    draws = hq.sample_limit_path(model, times, seed=1, n_draws=20_000)
    assert draws.shape == (20_000, 2)
    mean = np.array([x0 * F0.survival(t) for t in times])
    assert np.array_equal(model.mean_vector(times), mean)
    se_mean = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - mean) < 4.0 * se_mean)
    for a, b in [(0, 0), (0, 1), (1, 1)]:
        target = model.cov(times[a], times[b])
        sample = np.cov(draws[:, a], draws[:, b])[0, 1]
        se = np.sqrt(hq.simulate.var_of_sample_cov(draws[:, a], draws[:, b]))
        assert abs(sample - target) < 4.0 * se


def test_model_evaluators_symmetric_psd(phi_h1, phi_quarter):
    rng = np.random.default_rng(0)
    grid = np.sort(rng.uniform(0.2, 8.0, 5))
    models = [hq.exp_queue_limit_model(phi_h1),
              hq.queue_limit_model(phi_h1, hq.ExponentialService(1.0),
                                   hq.ExponentialService(1.0), q0=2.0),
              hq.count_limit_model(phi_h1),
              hq.multi_ou_limit_model(phi_quarter, [1.0, 1.0])]
    for model in models:
        gram = model.gram(grid)
        assert np.allclose(gram, gram.T, atol=1e-10)
        eigs = np.linalg.eigvalsh(gram + 1e-10 * np.eye(gram.shape[0]))
        assert eigs.min() > -1e-9


# --- Gram matrices from the batched lag sums ---------------------------------------

def _pairwise_gram(cov, d, grid):
    """The Gram of d classes from one cov(s, t) call per pair: block (a, b) is
    cov(t_b, t_a)."""
    m = len(grid)
    out = np.empty((m * d, m * d))
    for a in range(m):
        for b in range(a, m):
            block = np.reshape(cov(grid[b], grid[a]), (d, d))
            out[b * d:(b + 1) * d, a * d:(a + 1) * d] = block.T
            out[a * d:(a + 1) * d, b * d:(b + 1) * d] = block
    return 0.5 * (out + out.T)


# unsorted, with a repeated time, off the lattice of dt = 0.01 and 0.05 in places
_GRAM_TIMES = [3.7, 0.37, 1.234, 3.7, 0.0, 5.678, 2.913, 1.0]


def test_gram_matches_pairwise_cov(phi_h1, phi_quarter, phi_asymmetric):
    logn, det = hq.LogNormalService(0.0, 0.5), hq.DeterministicService(1.0)
    models = {"exp queue": hq.exp_queue_limit_model(phi_h1),
              "lognormal": hq.queue_limit_model(phi_h1, hq.ExponentialService(2.0), logn, q0=2.0),
              "deterministic": hq.queue_limit_model(phi_h1, hq.DeterministicService(1.5), det,
                                                    q0=2.0),
              "multi ou": hq.multi_ou_limit_model(phi_quarter, [1.0, 0.7]),
              "k2 general": hq.queue_limit_model(phi_asymmetric, hq.ExponentialService(2.0),
                                                 [logn, det], q0=[2.0, 1.0])}
    for name, model in models.items():
        got, ref = model.gram(_GRAM_TIMES), _pairwise_gram(model.cov, model.dim, _GRAM_TIMES)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), name


def test_gram_matches_dense_reference(phi_h1, phi_asymmetric):
    times = [3.0, 1.0, 2.5, 1.0, 0.5]         # on both lattices, unsorted, one repeat
    F = hq.LogNormalService(0.0, 0.5)
    r = [1.0, 2.0]

    def ou(s, t):
        # Cov(X_i(t), X_j(s)) for every (i, j), s the earlier time when they differ
        lo, hi = sorted((s, t))
        out = np.array([[_dense_cov_multi_ou_offdiag(phi_asymmetric, r, i, j, s, t)
                         for j in range(2)] for i in range(2)])
        return out + np.diag(phi_asymmetric.a / r * (np.exp(-np.multiply(r, hi - lo))
                                                    - np.exp(-np.multiply(r, hi + lo))))

    Fs = [F, hq.DeterministicService(1.0)]
    cases = [(hq.exp_queue_limit_model(phi_h1), lambda s, t: _dense_cov_xe(phi_h1, s, t)),
             (hq.queue_limit_model(phi_h1, F, F, q0=1.0),
              lambda s, t: _dense_cov_x_general(F, phi_h1, s, t)),
             (hq.multi_ou_limit_model(phi_asymmetric, r), ou),
             (hq.queue_limit_model(phi_asymmetric, Fs, Fs, q0=1.0),
              lambda s, t: np.array([[_dense_queue_cov(phi_asymmetric, Fs, i, j, s, t)
                                      for j in range(2)] for i in range(2)]))]
    for model, dense in cases:
        ref = _pairwise_gram(dense, model.dim, times)
        got = model.gram(times)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def test_lag_sums_off_lattice_match_direct_double_sum(phi_asymmetric):
    # the direct sum reads phi(x) = Phi(x), Phi(-x) = Phi(x)^T, at every lag of the
    # lattice weights; off the lattice the lags fall inside cells, (-dt, 0) included.
    # The line of lags in [0, dt), at f dt, stands for the lags within dt/2 of its
    # own, a share 1/2 - f of which lies across the jump Phi_ji(0) - Phi_ij(0) at 0.
    from hawkesq.covariance import _lattice_weights
    r, dt = [1.0, 0.7], phi_asymmetric.dt
    for s, t in [(0.37, 1.234), (1.234, 2.913), (0.9, 0.9), (0.02, 3.33)]:
        x = [_lattice_weights(t, dt, lambda a, ri=ri: np.exp(-ri * a)) for ri in r]
        y = [_lattice_weights(s, dt, lambda a, ri=ri: np.exp(-ri * a)) for ri in r]
        n0 = math.floor((t - s) / dt)
        f = (t - s) / dt - n0
        for i in range(2):
            for j in range(2):
                u, v = np.arange(x[i].size), np.arange(y[j].size)
                table = phi_asymmetric(t - s + (v[None, :] - u[:, None]) * dt)
                jump = phi_asymmetric.grid[0, j, i] - phi_asymmetric.grid[0, i, j]
                on_line = u[:, None] - v[None, :] == n0
                direct = x[i] @ (table[:, :, i, j] + (0.5 - f) * jump * on_line) @ y[j]
                if i == j:
                    direct += phi_asymmetric.a[i] / r[i] * (np.exp(-r[i] * (t - s))
                                                             - np.exp(-r[i] * (t + s)))
                got = hq.multi_ou_limit_model(phi_asymmetric, r).cov(s, t)[i, j]
                assert abs(got - direct) <= 1e-13 * abs(direct), (s, t, i, j)


def test_gram_200_points_is_symmetric_and_factors(phi_h1):
    gram = hq.exp_queue_limit_model(phi_h1).gram(np.linspace(0.1, 20.0, 200))
    assert gram.shape == (200, 200)
    assert np.array_equal(gram, gram.T)
    np.linalg.cholesky(gram)


# --- the count limit: the queue limit whose service never ends -------------------

def test_count_gram_matches_limit_covariance_g_on_the_lattice(phi_h1):
    # on the lattice the lag sum and the running integrals of K are one trapezoid rule
    times = [3.7, 0.37, 1.23, 3.7, 0.0, 5.67, 2.91, 1.0]
    got = hq.count_limit_model(phi_h1).gram(times)
    ref = _pairwise_gram(running_integral_cov(phi_h1), 1, times)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_count_gram_matches_limit_covariance_multi(phi_h1, phi_asymmetric):
    # off the lattice and across asymmetric classes both routes are second order.
    # Most of the gap is the oracle's linear interpolation of K between nodes: at
    # (0.37, 0.37), class 0, dt = 0.05, it is 0.106 dt^2, and the lag sum is 8x
    # closer to the dt -> 0 value there.
    for phi in (phi_asymmetric, phi_h1):
        got = hq.count_limit_model(phi).gram(_GRAM_TIMES)
        ref = _pairwise_gram(running_integral_cov(phi), phi.k, _GRAM_TIMES)
        assert np.abs(got - ref).max() <= 0.1 * phi.dt ** 2 * np.abs(ref).max()


def test_cross_class_lag_sum_is_second_order(phi_asymmetric):
    # Phi_12(0) != Phi_21(0): one off-lattice cross-class entry gains about a
    # factor 4 in accuracy per halving of dt, and (i, j) at equal times is (j, i)
    km, r = phi_asymmetric.kernel, [1.0, 0.7]
    values = []
    for dt in (0.05, 0.025, 0.0125):
        model = hq.multi_ou_limit_model(hq.solve_multivariate_phi(km, dt=dt, t_max=40.0), r)
        values.append(model.cov(1.0, 5.0075)[0, 1])
        for t in (0.9, 2.0, 3.33):
            equal = model.cov(t, t)
            assert abs(equal[0, 1] - equal[1, 0]) <= 1e-15
    ratio = (values[0] - values[1]) / (values[1] - values[2])
    assert 3.5 < ratio < 4.5


def test_count_gram_200_points_k2_factors(phi_asymmetric):
    # a first-order cross-class lag sum made this Gram indefinite (min eigenvalue -1.43)
    times = np.linspace(0.1, 20.0, 200)
    gram = hq.count_limit_model(phi_asymmetric).gram(times)
    assert gram.shape == (400, 400)
    np.linalg.cholesky(gram)
    ref = _pairwise_gram(running_integral_cov(phi_asymmetric), 2, times)
    assert np.abs(gram - ref).max() <= 0.1 * phi_asymmetric.dt ** 2


def test_model_means_are_x0_times_initial_survival(phi_h1, phi_quarter):
    times = np.array([0.0, 0.37, 1.0, 5.678])
    assert np.array_equal(hq.exp_queue_limit_model(phi_h1, x0=1.7).mean_vector(times),
                          1.7 * np.exp(-times))
    r, x0 = np.array([1.0, 0.7]), np.array([2.0, -0.5])
    assert np.array_equal(hq.multi_ou_limit_model(phi_quarter, r, x0).mean_vector(times),
                          (x0 * np.exp(-r * times[:, None])).ravel())
    assert np.array_equal(hq.count_limit_model(phi_quarter).mean_vector(times), np.zeros(8))
