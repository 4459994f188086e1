"""Gaussian limit objects for the heavy-baseline regime.

Covariance evaluators for the count limit G and the infinite-server queue
limit X of k classes, one service law per class (the OU-type X_e and its
multivariate analogue are its exponential case), steady-state summaries,
the Gaussian queue pmf, and exact finite-dimensional sampling of any of
these from its covariance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len
from scipy.integrate import quad

from .covariance import (_MAX_UNKNOWNS, CovarianceDensity, VarianceFunction, _lattice_weights,
                         laplace_pipeline, limit_covariance_G, solve_phi_grid,
                         variance_function)
from .errors import ConfigurationError, NumericalError, TruncationError
from .kernels import Kernel, SumOfExponentialsKernel
from .service import (_SURVIVAL_FLOOR, DeterministicService, ExponentialService, ServiceModel,
                      _normalize_services)
from .simulate import rep_stream

_PSD_JITTERS = (0.0, 1e-10, 1e-9, 1e-8)
_STEADY_TAIL_TOL = 1e-6   # bound on the mass that survival truncation drops


def _survival_weights(F: ServiceModel, T: float, dt: float) -> np.ndarray:
    """Lattice weights of int_0^T S(tau) g(tau) dtau, S the service survival.

    A deterministic service time v has S = 1 up to v and 0 beyond, so the
    range is cut at v and integrated with f = 1; sampling the step at the
    nodes would leave an O(dt) error.
    """
    if isinstance(F, DeterministicService):
        return _lattice_weights(min(T, F.value), dt, np.ones_like)
    return _lattice_weights(T, dt, F.survival)


def _lag_sums(phi: CovarianceDensity, rows, pairs) -> np.ndarray:
    """Lag sums of the lattice quadrature, one per (p, q) in `pairs`:

        sum_u sum_v x[u] y[v] Phi_ij(t_p - t_q + (v - u) dt),

    where row p = (t_p, i, x) holds the later time (t_p >= t_q) and row
    q = (t_q, j, y).  Phi_ij is phi's linear interpolant, read as Phi_ji(-x)
    at negative lags and 0 beyond t_max.

    With t_p - t_q = (n0 + f) dt the interpolant at lag (n0 + f + l) dt is
    (1 - f) Q[n0 + l] + f Q[n0 + l + 1], Q the two-sided lattice values
    (Q[L] = Phi_ij(L dt), Phi_ji(-L dt) for L < 0, 0 beyond t_max), so the sum
    is (1 - f) R(n0) + f R(n0 + 1) with R(n) = sum_u x[u] H[n - u] and
    H[m] = sum_v y[v] Q[m + v].  H is one rFFT correlation per earlier row and
    later class, formed one at a time; each pair then costs two dot products.
    The cell (-dt, 0) interpolates from Phi_ji(0), not Phi_ij(0): a last term
    f (Phi_ji(0) - Phi_ij(0)) sum_u x[u] y[u - n0 - 1] restores it.
    """
    p, q = np.asarray(pairs, dtype=int).reshape(-1, 2).T
    t = np.array([row[0] for row in rows], dtype=float)
    cls = np.array([row[1] for row in rows], dtype=int)
    nodes = np.array([row[2].size for row in rows], dtype=int)
    z = (t[p] - t[q]) / phi.dt
    n0 = np.floor(z).astype(int)
    f = z - n0
    # every index n - u of H and every lag n + v - u of a pair lies in [lo, hi],
    # so an FFT of hi - lo + 1 points does not wrap
    lo, hi = int(np.min(n0 - nodes[p] + 1, initial=0)), int(np.max(n0 + nodes[q], initial=0))
    size = next_fast_len(hi - lo + 1, real=True)
    if size > _MAX_UNKNOWNS:
        raise NumericalError(f"lag sums need an FFT of {size} points, over the cap {_MAX_UNKNOWNS}")
    top = phi.t.size - 1
    neg, pos = max(lo, -top), min(hi, top)                  # Q is 0 outside [neg, pos]
    spectra = {}

    def spectrum(i, j):
        if (i, j) not in spectra:
            Q = np.zeros(size)                              # Q[L] at L - lo
            Q[-lo:pos - lo + 1] = phi.grid[:pos + 1, i, j]
            Q[neg - lo:-lo] = phi.grid[-neg:0:-1, j, i]
            # reversed: the convolution with y holds H[m] at size - 1 - (m - lo),
            # so H[n - u] runs forward in u
            spectra[i, j] = np.fft.rfft(Q[::-1])
        return spectra[i, j]

    out = np.empty(p.size)
    order = np.lexsort((cls[p], q))                    # by earlier row, then later class
    key = None
    for n, pn, qn, i, fn, nn in zip(order.tolist(), p[order].tolist(), q[order].tolist(),
                                    cls[p[order]].tolist(), f[order].tolist(),
                                    n0[order].tolist()):
        if key is None or key[0] != qn:
            y = rows[qn][2]
            y_hat = np.fft.rfft(y, size)
        if key != (qn, i):
            key, j = (qn, i), rows[qn][1]
            H = np.fft.irfft(spectrum(i, j) * y_hat, size)
            jump = phi.grid[0, j, i] - phi.grid[0, i, j]
        x = rows[pn][2]
        at = size - 1 + lo - nn                        # H[nn - u] is at at + u
        out[n] = (1.0 - fn) * (x @ H[at:at + x.size]) + fn * (x @ H[at - 1:at - 1 + x.size])
        if fn and jump:
            xs = x[nn + 1:nn + 1 + y.size]
            out[n] += fn * jump * (xs @ y[:xs.size])
    return out


def _check_times(phi: CovarianceDensity, times):
    if np.min(times, initial=0.0) < 0:
        raise ConfigurationError("times must be nonnegative")
    hi = np.max(times, initial=0.0)
    if hi > phi.t_max:
        raise ConfigurationError(f"t = {hi:g} beyond the phi grid [0, {phi.t_max:g}]")


def _queue_closed(phi: CovarianceDensity, F0, F, q0, s, t) -> np.ndarray:
    """The terms 1_{i=j} [q0_i F0_i(s) S0_i(t) + a_i int_{t-s}^t S_i] of
    Cov(X_i(t), X_j(s)) outside the lag sum, a k x k block per pair s <= t of
    arrays or scalars; theta is exact through the survival integral of F_i."""
    diag = np.stack([q * G.cdf(s) * G.survival(t)
                     + a * (H.survival_integral(t) - H.survival_integral(t - s))
                     for G, H, q, a in zip(F0, F, q0, phi.a)], axis=-1)
    return diag[..., None] * np.eye(len(F))


def _queue_cov(phi: CovarianceDensity, F0, F, q0, i: int, j: int, s: float, t: float) -> float:
    """Cov(X_i(t), X_j(s)) of the k-class queue limit, s and t in either order."""
    if i not in range(phi.k) or j not in range(phi.k):
        raise ConfigurationError(f"class indices ({i}, {j}) outside 0..{phi.k - 1}")
    _check_times(phi, [s, t])
    rows = [(t, i, _survival_weights(F[i], t, phi.dt)), (s, j, _survival_weights(F[j], s, phi.dt))]
    lag = _lag_sums(phi, rows, [(0, 1) if t >= s else (1, 0)])[0]    # later time's row first
    return float(_queue_closed(phi, F0, F, q0, min(s, t), max(s, t))[i, j] + lag)


def cov_X_general(F0: ServiceModel, F: ServiceModel, q0: float,
                  phi: CovarianceDensity, s: float, t: float) -> float:
    """Covariance of the general-service queue limit X at (s, t), the k = 1
    entry of the k-class queue limit (`queue_limit_model`).

    For s <= t:  q0 F0(s)(1 - F0(t)) + (1-||h||)^{-1} int_0^s (1-F(t-u)) du
                 + int_0^s int_0^t (1-F(t-u)) (1-F(s-v)) phi(v-u) du dv.
    The Brownian-bridge and theta components are the first two summands.
    """
    phi._univariate("cov_X_general")
    return _queue_cov(phi, [F0], [F], [q0], 0, 0, s, t)


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
    k = len(services)
    rows = [(0.0, i, _survival_weights(F, F.survival_cutoff(), phi.dt))
            for i, F in enumerate(services)]
    lag = _lag_sums(phi, rows, [(i, j) for i in range(k) for j in range(k)]).reshape(k, k)
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


# --- the OU-type limit: the queue limit with exponential service --------------

def _exponential_laws(phi: CovarianceDensity, r):
    """(F0, F, q0) = (Exp(r_i), Exp(r_i), a_i/r_i), the steady-state load, for
    which the closed terms are (a_i/r_i) (e^{-r_i(t-s)} - e^{-r_i(t+s)})."""
    r = np.asarray(r, dtype=float)
    if r.shape != (phi.k,) or not np.all(r > 0):
        raise ConfigurationError("need one positive service rate per class")
    F = [ExponentialService(ri) for ri in r]
    return F, F, phi.a / r


def cov_multi_ou(phi: CovarianceDensity, r, i: int, j: int,
                 s: float, t: float) -> float:
    """Cov(X_i(t), X_j(s)) for the k-dimensional OU-type queue limit:

        1_{i=j} (a_i/r_i) (e^{-r_i(t-s)} - e^{-r_i(t+s)})
        + int_0^t int_0^s e^{-r_i(t-u)} e^{-r_j(s-v)} Phi_ij(u-v) dv du,  s <= t,

    with the matrix extension rule for negative lags.
    """
    return _queue_cov(phi, *_exponential_laws(phi, r), i, j, s, t)


def steady_state_cov_multi(phi: CovarianceDensity, r) -> np.ndarray:
    """Steady-state covariance matrix of the k-dimensional OU-type limit:

        1_{i=j} a_i/r_i + int_0^inf int_0^inf e^{-r_i u} e^{-r_j v} Phi_ij(v-u) du dv,

    the `_steady_cov` of Exp(r_i) service, truncated where the exponential
    weights fall below 1e-12, with the truncation certificate checked
    against 1e-6.  The result is validated to be PSD.
    """
    F = _exponential_laws(phi, r)[1]
    tail = float(np.abs(phi.grid).max()) * 2.0 * _SURVIVAL_FLOOR / min(G.rate for G in F) ** 2
    if tail > _STEADY_TAIL_TOL:
        raise TruncationError(f"truncation tail bound {tail:.2e} > {_STEADY_TAIL_TOL:g}")
    out = _steady_cov(phi, F)
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
    A queue limit's cov(s, t) is its terms without a double integral plus
    a lag sum of phi.  It gives the first as closed(s, t), a block per pair
    at arrays s <= t, and the second as lag = (phi, weights), weights(t) the
    per-class survival weights at time t.  The count limit gives neither:
    its Gram calls cov once per pair.
    """

    dim: int
    mean: object
    cov: object
    steady_state_variance: object = None
    closed: object = None
    lag: tuple | None = None

    def gram(self, t_grid) -> np.ndarray:
        """Covariance of the stacked (Z(t_1), ..., Z(t_m)): block (a, b) is
        cov(t_b, t_a), block (b, a) its transpose, which cov(t_a, t_b) is.
        The lag parts of all pairs come from one `_lag_sums` call."""
        t_grid = np.asarray(t_grid, dtype=float)
        m, d = t_grid.size, self.dim
        a, b = np.triu_indices(m)
        later = t_grid[a] >= t_grid[b]                # equal times keep the grid order
        pairs = np.column_stack([np.where(later, a, b), np.where(later, b, a)])
        closed = self.closed or (lambda s, t: [self.cov(*pair) for pair in zip(s, t)])
        blocks = np.reshape(closed(t_grid[pairs[:, 1]], t_grid[pairs[:, 0]]), (-1, d, d))
        if self.lag is not None:
            phi, weights = self.lag
            _check_times(phi, t_grid)
            rows = [(t, c, w) for t in t_grid for c, w in enumerate(weights(t))]
            c = np.arange(d)        # row a d + c holds class c at time a
            row_pairs = np.broadcast_arrays(pairs[:, :1, None] * d + c[:, None],
                                            pairs[:, 1:, None] * d + c)
            blocks += _lag_sums(phi, rows, np.stack(row_pairs, axis=-1)).reshape(-1, d, d)
        out = np.empty((m, d, m, d))
        out[pairs[:, 0], :, pairs[:, 1], :] = blocks
        out[pairs[:, 1], :, pairs[:, 0], :] = np.swapaxes(blocks, 1, 2)
        out = out.reshape(m * d, m * d)
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


def _queue_model(phi: CovarianceDensity, F0, F, q0, mean, steady) -> LimitModel:
    """The k-class queue limit of per-class laws F0, F and initial loads q0."""
    classes = range(phi.k)
    return LimitModel(
        phi.k, mean,
        lambda s, t: phi._public(np.array([[_queue_cov(phi, F0, F, q0, i, j, s, t)
                                            for j in classes] for i in classes])),
        steady_state_variance=steady,
        closed=lambda s, t: _queue_closed(phi, F0, F, q0, s, t),
        lag=(phi, lambda t: [_survival_weights(H, t, phi.dt) for H in F]))


def queue_limit_model(phi: CovarianceDensity, F0, F, q0, x0=0.0) -> LimitModel:
    """The queue limit of k classes: class i starts with q0_i customers per unit
    of mu, of residual service F0_i, serves arrivals with F_i, and has mean
    x0_i S0_i(t).  F0, F, q0 and x0 each take one value per class or one for all."""
    k = phi.k
    F0, F = _normalize_services(F0, k), _normalize_services(F, k)
    q0, x0 = (np.full(k, v, float) if np.ndim(v) == 0 else np.asarray(v, float) for v in (q0, x0))
    if q0.shape != (k,) or x0.shape != (k,):
        raise ConfigurationError(f"need one q0 and one x0 per class (k = {k})")
    mean = (lambda t: x0 * np.array([G.survival(t) for G in F0])) if phi.is_matrix \
        else (lambda t: x0[0] * F0[0].survival(t))
    steady = _steady_cov(phi, F) if phi.is_matrix else var_X_infty(F[0], phi)
    return _queue_model(phi, F0, F, q0, mean, steady)


def exp_queue_limit_model(phi: CovarianceDensity, x0: float = 0.0) -> LimitModel:
    phi._univariate("exp_queue_limit_model")
    steady = var_xe_infty(phi.kernel, phi=phi) if isinstance(phi.kernel, Kernel) else None
    return _queue_model(phi, *_exponential_laws(phi, [1.0]), lambda t: mean_Xe(x0, t), steady)


def multi_ou_limit_model(phi: CovarianceDensity, r, x0=None) -> LimitModel:
    r = np.asarray(r, dtype=float)
    x0 = np.zeros(phi.k) if x0 is None else np.asarray(x0, dtype=float)
    return _queue_model(phi, *_exponential_laws(phi, r), lambda t: x0 * np.exp(-r * t),
                        steady_state_cov_multi(phi, r))


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
