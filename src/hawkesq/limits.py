"""Gaussian limit objects for the heavy-baseline regime.

Covariance evaluators for the count limit G, the general-service queue
limit X, the exponential-service OU-type limit X_e, their multivariate
analogues, steady-state summaries, the Gaussian queue pmf, and exact
finite-dimensional sampling of any of these from its covariance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len
from scipy.integrate import quad

from .covariance import (CovarianceDensity, VarianceFunction, _lattice_weights,
                         laplace_pipeline, limit_covariance_G, solve_phi_grid,
                         variance_function)
from .errors import ConfigurationError, NumericalError, TruncationError
from .kernels import Kernel, SumOfExponentialsKernel
from .service import _SURVIVAL_FLOOR, DeterministicService, ExponentialService, ServiceModel
from .simulate import rep_stream

_PSD_JITTERS = (0.0, 1e-10, 1e-9, 1e-8)
_STEADY_TAIL_TOL = 1e-6   # bound on the mass that survival truncation drops


def _survival_weights(F: ServiceModel, T: float, dt: float, shift: float = 0.0) -> np.ndarray:
    """Lattice weights of int_0^T S(shift + tau) g(tau) dtau, S the service survival.

    A deterministic service time v has S = 1 up to v and 0 beyond, so the
    range is cut at v - shift and integrated with f = 1; sampling the step
    at the nodes would leave an O(dt) error.
    """
    if isinstance(F, DeterministicService):
        return _lattice_weights(min(T, max(F.value - shift, 0.0)), dt, np.ones_like)
    return _lattice_weights(T, dt, lambda a: F.survival(shift + a))


def _lag_sum(phi: CovarianceDensity, x: np.ndarray, y: np.ndarray, d: float,
             i: int = 0, j: int = 0) -> float:
    """sum_a sum_b x[a] y[b] Phi_ij(d + (b - a) dt) on the phi lattice.

    Equals sum_l C[l] Phi_ij(d + l dt) with C[l] = sum_a x[a] y[a + l] the
    cross-correlation of the weights, taken by rFFT on enough points that
    the lags -(nx - 1) .. ny - 1 do not wrap; Phi_ij is evaluated once per
    lag, as Phi_ji(-x) at negative lags.
    """
    size = next_fast_len(x.size + y.size - 1, real=True)
    corr = np.fft.irfft(np.fft.rfft(x, size).conj() * np.fft.rfft(y, size), size)
    lags = np.arange(1 - x.size, y.size)
    at = d + lags * phi.dt
    neg = np.searchsorted(at, 0.0)           # at increases: the negative lags lead
    values = np.concatenate([np.interp(-at[:neg], phi.t, phi.grid[:, j, i], right=0.0),
                             np.interp(at[neg:], phi.t, phi.grid[:, i, j], right=0.0)])
    return float(corr[lags] @ values)


def cov_X_general(F0: ServiceModel, F: ServiceModel, q0: float,
                  phi: CovarianceDensity, s: float, t: float) -> float:
    """Covariance of the general-service queue limit X at (s, t).

    For s <= t:  q0 F0(s)(1 - F0(t)) + (1-||h||)^{-1} int_0^s (1-F(t-u)) du
                 + int_0^s int_0^t (1-F(t-u)) (1-F(s-v)) phi(v-u) du dv.
    The Brownian-bridge and theta components are the first two summands.
    """
    phi._univariate("cov_X_general")
    lo, hi = (s, t) if s <= t else (t, s)
    if lo < 0:
        raise ConfigurationError("times must be nonnegative")
    if hi > phi.t_max:
        raise ConfigurationError(f"t = {hi:g} beyond the phi grid [0, {phi.t_max:g}]")
    term1 = q0 * F0.cdf(lo) * F0.survival(hi)
    if lo == 0.0:
        return float(term1)
    # in the ages tau = hi - u and sigma = lo - v the lag u - v is hi - lo + sigma - tau
    term2 = _survival_weights(F, lo, phi.dt, hi - lo).sum()
    term3 = _lag_sum(phi, _survival_weights(F, hi, phi.dt), _survival_weights(F, lo, phi.dt),
                     hi - lo)
    return float(term1 + term2 * phi.a[0] + term3)


def var_X_infty(F: ServiceModel, phi: CovarianceDensity, method: str = "auto"):
    """Steady-state variance of X: mean-service term plus the survival-weighted
    double integral of the covariance density (infinite-horizon version of
    the queue-limit variance).

    "grid" is the k = 1 case of `_steady_cov`, in O(n log n) time and O(n)
    memory for n = cutoff/dt nodes; it raises NumericalError when n exceeds
    the node cap (heavy service tails at fine dt).  "closed_form" (when phi
    carries an exact evaluator) uses nested adaptive quadrature of the
    lag-correlation form.
    """
    phi._univariate("var_X_infty")
    mean = F.mean()
    if not math.isfinite(mean):
        raise ConfigurationError("service mean must be finite")
    if method == "auto":
        method = "closed_form" if phi.closed_form is not None else "grid"
    if method == "closed_form":
        if phi.closed_form is None:
            raise ConfigurationError("phi carries no closed form")
        U = F.survival_cutoff()

        def lag_corr(w):
            val, _ = quad(lambda u: F.survival(u) * F.survival(u + w), 0.0, U, limit=200)
            return val

        val, _ = quad(lambda w: phi.closed_form(w) * lag_corr(w), 0.0, phi.t_max,
                      limit=200)
        return mean * phi.a[0] + 2.0 * val
    if method != "grid":
        raise ConfigurationError(f"unknown method {method!r}")
    return float(_steady_cov(phi, [F])[0, 0])


def _steady_cov(phi: CovarianceDensity, services) -> np.ndarray:
    """Steady-state covariance 1_{i=j} a_i E[S_i] + int int S_i(u) S_j(v) Phi_ij(v-u)
    du dv of k classes, S_i the survival of service F_i, each axis truncated
    at the 1e-12 survival cutoff; symmetrized."""
    x = [_survival_weights(F, F.survival_cutoff(), phi.dt) for F in services]
    lag = np.array([[_lag_sum(phi, xi, xj, 0.0, i, j) for j, xj in enumerate(x)]
                    for i, xi in enumerate(x)])
    return 0.5 * (lag + lag.T) + np.diag(phi.a * [F.mean() for F in services])


def cov_Xe(phi: CovarianceDensity, s: float, t: float) -> float:
    """Covariance of the unit-rate OU-type limit X_e at (s, t), the k = 1,
    r = 1 case of `cov_multi_ou`:

        (e^{-(t-s)} - e^{-(t+s)})/(1-||h||)
        + int_0^t int_0^s e^{-(t-u)} e^{-(s-v)} phi(u-v) dv du,   s <= t.
    """
    phi._univariate("cov_Xe")
    return cov_multi_ou(phi, [1.0], 0, 0, s, t)


def mean_Xe(x0: float, t) -> float:
    """E[X_e(t) | X_e(0) = x0] = x0 exp(-t)."""
    return x0 * np.exp(-np.asarray(t, dtype=float))


def var_xe_infty_exponential(alpha: float, beta: float) -> float:
    """Single-exponential closed form of Var(X_e(inf)):

        alpha*beta*(2 beta - alpha) / (2 (beta-alpha)^2 (1 + beta - alpha))
        + beta / (beta - alpha).
    """
    if not 0 <= alpha < beta:
        raise ConfigurationError("need 0 <= alpha < beta")
    return (alpha * beta * (2.0 * beta - alpha)
            / (2.0 * (beta - alpha) ** 2 * (1.0 + beta - alpha))
            + beta / (beta - alpha))


def var_xe_infty(kernel: Kernel, phi: CovarianceDensity | None = None,
                 method: str = "auto") -> float:
    """Var(X_e(inf)) = phi~(1) + 1/(1 - ||h||).

    Prefers the exact Laplace pipeline for exponential mixtures (VAR1 for a
    single term); otherwise integrates exp(-t) against a solved phi grid.
    """
    norm = kernel.l1_norm()
    if not norm < 1.0:
        raise ConfigurationError("||h|| >= 1")
    if method == "auto":
        method = "pipeline" if isinstance(kernel, SumOfExponentialsKernel) else "grid"
    if method == "var1":
        if not isinstance(kernel, SumOfExponentialsKernel) or kernel.alphas.size > 1:
            raise ConfigurationError("VAR1 closed form needs a single exponential term")
        if kernel.alphas.size == 0:
            return 1.0
        return var_xe_infty_exponential(float(kernel.alphas[0]), float(kernel.betas[0]))
    if method == "pipeline":
        return laplace_pipeline(kernel).phi_tilde(1.0) + 1.0 / (1.0 - norm)
    if method == "grid":
        if phi is None:
            phi = solve_phi_grid(kernel)
        return float(phi.laplace(1.0)) + 1.0 / (1.0 - norm)
    raise ConfigurationError(f"unknown method {method!r}")


@dataclass
class GaussianQueueApprox:
    """Normal-density approximation of the steady-state queue-length pmf."""

    mean: float
    sigma: float

    def pmf(self, i):
        i = np.asarray(i, dtype=float)
        z = (i - self.mean) / self.sigma
        out = np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))
        return out if i.ndim else float(out)

    def to_dict(self):
        return {"mean": self.mean, "sigma": self.sigma}


def gaussian_queue_approx(mu: float, kernel: Kernel, phi: CovarianceDensity | None = None,
                          service: ServiceModel = ExponentialService(1.0)) -> GaussianQueueApprox:
    """Gaussian steady state of the Hawkes/G/infinity queue with service F:
    mean lambda_bar E[S] = mu E[S]/(1-||h||), variance mu * var_X_infty(F, phi).

    For the default Exp(1) service the variance is mu * Var(X_e(inf)) from
    `var_xe_infty`, exact for exponential mixtures; other services solve
    phi on the default grid unless it is given.
    """
    if mu <= 0:
        raise ConfigurationError("mu must be positive")
    lam = mu / (1.0 - kernel.l1_norm())
    if isinstance(service, ExponentialService) and service.rate == 1.0:
        var = var_xe_infty(kernel, phi=phi)
    else:
        var = var_X_infty(service, solve_phi_grid(kernel) if phi is None else phi)
    return GaussianQueueApprox(lam * service.mean(), math.sqrt(mu * var))


def gaussian_queue_pmf(mu: float, kernel: Kernel, i: int) -> float:
    """P(Q = i) under the Gaussian steady-state approximation."""
    if i < 0 or int(i) != i:
        raise ConfigurationError("i must be a nonnegative integer")
    return gaussian_queue_approx(mu, kernel).pmf(float(i))


# --- multivariate OU-type limit -----------------------------------------------

def _class_rates(phi: CovarianceDensity, r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if r.shape != (phi.k,) or not np.all(r > 0):
        raise ConfigurationError("need one positive service rate per class")
    return r


def cov_multi_ou(phi: CovarianceDensity, r, i: int, j: int,
                 s: float, t: float) -> float:
    """Cov(X_i(t), X_j(s)) for the k-dimensional OU-type queue limit:

        1_{i=j} (a_i/r_i) (e^{-r_i(t-s)} - e^{-r_i(t+s)})
        + int_0^t int_0^s e^{-r_i(t-u)} e^{-r_j(s-v)} Phi_ij(u-v) dv du,  s <= t,

    with the matrix extension rule for negative lags.
    """
    r = _class_rates(phi, r)
    if i not in range(phi.k) or j not in range(phi.k):
        raise ConfigurationError(f"class indices ({i}, {j}) outside 0..{phi.k - 1}")
    if t < s:
        return cov_multi_ou(phi, r, j, i, t, s)
    if s < 0:
        raise ConfigurationError("times must be nonnegative")
    if t > phi.t_max:
        raise ConfigurationError("t beyond the solved grid")
    first = 0.0
    if i == j:
        first = phi.a[i] / r[i] * (math.exp(-r[i] * (t - s)) - math.exp(-r[i] * (t + s)))
    if s == 0.0:
        return float(first)
    return float(first + _lag_sum(phi, _lattice_weights(t, phi.dt, lambda a: np.exp(-r[i] * a)),
                                  _lattice_weights(s, phi.dt, lambda a: np.exp(-r[j] * a)),
                                  t - s, i, j))


def steady_state_cov_multi(phi: CovarianceDensity, r) -> np.ndarray:
    """Steady-state covariance matrix of the k-dimensional OU-type limit:

        1_{i=j} a_i/r_i + int_0^inf int_0^inf e^{-r_i u} e^{-r_j v} Phi_ij(v-u) du dv,

    the `_steady_cov` of Exp(r_i) service, truncated where the exponential
    weights fall below 1e-12, with the truncation certificate checked
    against 1e-6.  The result is validated to be PSD.
    """
    r = _class_rates(phi, r)
    tail = float(np.abs(phi.grid).max()) * 2.0 * _SURVIVAL_FLOOR / r.min() ** 2
    if tail > _STEADY_TAIL_TOL:
        raise TruncationError(f"truncation tail bound {tail:.2e} > {_STEADY_TAIL_TOL:g}")
    out = _steady_cov(phi, [ExponentialService(ri) for ri in r])
    eigmin = float(np.linalg.eigvalsh(out).min())
    if eigmin < -1e-8 * max(1.0, float(np.abs(np.diag(out)).max())):
        raise NumericalError(f"steady-state covariance not PSD (min eig {eigmin:.2e})")
    return out


# --- assembled limit models and exact Gaussian sampling ------------------------

@dataclass
class LimitModel:
    """Mean and covariance evaluators for one Gaussian limit object.

    cov(s, t) returns a scalar for a univariate object and a dim x dim
    matrix (entry (i, j) = Cov(Z_i(t), Z_j(s))) for a multivariate one.
    """

    dim: int
    mean: object
    cov: object
    steady_state_variance: object = None

    def gram(self, t_grid) -> np.ndarray:
        """Covariance of the stacked (Z(t_1), ..., Z(t_m)): block (a, b) is
        cov(t_b, t_a), block (b, a) its transpose, which cov(t_a, t_b) is."""
        t_grid = np.asarray(t_grid, dtype=float)
        d = self.dim
        out = np.empty((t_grid.size * d, t_grid.size * d))
        for a in range(t_grid.size):
            for b in range(a, t_grid.size):
                block = np.reshape(self.cov(t_grid[b], t_grid[a]), (d, d))
                out[b * d:(b + 1) * d, a * d:(a + 1) * d] = block.T
                out[a * d:(a + 1) * d, b * d:(b + 1) * d] = block
        return 0.5 * (out + out.T)

    def mean_vector(self, t_grid) -> np.ndarray:
        return np.array([np.ravel(self.mean(t)) for t in t_grid], dtype=float).ravel()


def count_limit_model(phi: CovarianceDensity,
                      K: VarianceFunction | None = None) -> LimitModel:
    if K is None:
        K = variance_function(phi)
    zero = np.zeros(phi.k) if phi.is_matrix else 0.0
    return LimitModel(phi.k, lambda t: zero,
                      lambda s, t: limit_covariance_G(phi, K, s, t))


def queue_limit_model(phi: CovarianceDensity, F0: ServiceModel, F: ServiceModel,
                      q0: float, x0: float = 0.0) -> LimitModel:
    return LimitModel(
        1,
        lambda t: x0 * F0.survival(t),
        lambda s, t: cov_X_general(F0, F, q0, phi, s, t),
        steady_state_variance=var_X_infty(F, phi))


def exp_queue_limit_model(phi: CovarianceDensity, x0: float = 0.0) -> LimitModel:
    steady = None
    if phi.kernel is not None and isinstance(phi.kernel, Kernel):
        steady = var_xe_infty(phi.kernel, phi=phi)
    return LimitModel(1,
                      lambda t: mean_Xe(x0, t),
                      lambda s, t: cov_Xe(phi, s, t),
                      steady_state_variance=steady)


def multi_ou_limit_model(phi: CovarianceDensity, r, x0=None) -> LimitModel:
    r = np.asarray(r, dtype=float)
    x0 = np.zeros(phi.k) if x0 is None else np.asarray(x0, dtype=float)
    return LimitModel(
        phi.k,
        lambda t: x0 * np.exp(-r * t),
        lambda s, t: np.array([[cov_multi_ou(phi, r, i, j, s, t)
                                for j in range(phi.k)] for i in range(phi.k)]),
        steady_state_variance=steady_state_cov_multi(phi, r))


def sample_limit_path(model: LimitModel, t_grid, seed: int,
                      n_draws: int = 1) -> np.ndarray:
    """Exact Gaussian draws of the limit process on a time grid.

    Returns (n_draws, len(t_grid)) or (n_draws, len(t_grid), k).  The Gram
    matrix is factorized after symmetrization, escalating a diagonal jitter
    tenfold from 1e-10 to at most 1e-8 before failing.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    gram = model.gram(t_grid)
    L = None
    for jitter in _PSD_JITTERS:
        try:
            L = np.linalg.cholesky(gram + jitter * np.eye(gram.shape[0]))
            break
        except np.linalg.LinAlgError:
            continue
    if L is None:
        raise NumericalError("covariance matrix indefinite beyond 1e-8 jitter")
    rng = rep_stream(seed, 0)
    z = rng.standard_normal((n_draws, gram.shape[0]))
    draws = model.mean_vector(t_grid)[None, :] + z @ L.T
    return draws.reshape(n_draws, t_grid.size, -1) if model.dim > 1 else draws
