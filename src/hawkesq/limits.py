"""Gaussian limit objects for the heavy-baseline regime.

One model, `LimitModel`, of the infinite-server queue limit X of k classes,
one service law per class: the OU-type X_e and its multivariate analogue
are its exponential case, the count limit G its case of service that never
ends.  Its covariance, Gram and mean, one steady-state rule (`_steady`),
the Gaussian queue approximation, and exact finite-dimensional sampling of
any model from its covariance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .covariance import (_MAX_UNKNOWNS, CovarianceDensity, _lattice_weights, _next_fast_len,
                         laplace_pipeline, solve_phi_grid)
from .errors import ConfigurationError, NumericalError, TruncationError
from .kernels import Kernel, KernelMatrix, _as_matrix
from .service import (DeterministicService, ExponentialService, ServiceModel, _ndtr,
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
    Phi jumps by Phi_ji(0) - Phi_ij(0) on the line of lag 0.  The cell
    (-dt, 0) interpolates from Phi_ji(0), not Phi_ij(0): a term
    f (Phi_ji(0) - Phi_ij(0)) sum_u x[u] y[u - n0 - 1] restores it.  The
    lattice line of lag f dt stands for the lags within dt/2 of its own, a
    share 1/2 - f of which lies across the jump: a term
    (1/2 - f) (Phi_ji(0) - Phi_ij(0)) sum_u x[u] y[u - n0] makes the sum
    second order there (on the lattice, f = 0, the line reads the mean of
    the two sides), so the (i, j) and (j, i) sums at equal times agree.
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
    size = _next_fast_len(hi - lo + 1)
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
        if jump:
            xs, xs1 = x[nn:nn + y.size], x[nn + 1:nn + 1 + y.size]
            out[n] += jump * ((0.5 - fn) * (xs @ y[:xs.size]) + fn * (xs1 @ y[:xs1.size]))
    return out


def _steady(kernel, services, phi: CovarianceDensity | None = None):
    """The one steady-state covariance of k classes, S_i the survival of F_i:

        1_{i=j} a_i E[S_i] + int_0^inf int_0^inf S_i(u) S_j(v) Phi_ij(v-u) du dv,

    always the k x k matrix, for the model of `kernels._as_matrix`.  Exp(r)
    service at k = 1 on an entry with an exponential sum (a mixture, or a
    power law through its `_sum`) is exact: (a + p phi~(r)) / r, phi~ the
    Laplace pipeline's transform of that sum at p = 1.
    Any other case is the lattice lag sum `_steady_cov` on phi, solved on the
    default grid when not given.  Its truncation drops at most
    2 max|Phi| max_i E[S_i] max_i int_{cutoff_i}^inf S_i, checked against 1e-6
    before the sum; the result is checked to be PSD.
    """
    multi = _as_matrix(kernel)
    services = _normalize_services(services, multi.k)
    if not all(math.isfinite(F.mean()) for F in services):
        raise ConfigurationError("service mean must be finite")
    F, entry = services[0], multi.entries[0][0]
    if multi.k == 1 and isinstance(F, ExponentialService) and entry._sum is not None:
        phi_tilde = multi.p * laplace_pipeline(entry._sum).phi_tilde(F.rate)
        return (multi.branching_vector() + phi_tilde)[:, None] / F.rate
    if phi is None:
        phi = solve_phi_grid(kernel)
    tail = (2.0 * float(np.abs(phi.grid).max()) * max(G.mean() for G in services)
            * max(G.mean() - G.survival_integral(G.survival_cutoff()) for G in services))
    if tail > _STEADY_TAIL_TOL:
        raise TruncationError(f"truncation tail bound {tail:.2e} > {_STEADY_TAIL_TOL:g}")
    out = _steady_cov(phi, services)
    eigmin = float(np.linalg.eigvalsh(out).min())
    if eigmin < -1e-8 * max(1.0, float(np.abs(np.diag(out)).max())):
        raise NumericalError(f"steady-state covariance not PSD (min eig {eigmin:.2e})")
    return out


def _steady_cov(phi: CovarianceDensity, services) -> np.ndarray:
    """The lattice steady-state covariance of `_steady`, each axis truncated at
    the 1e-12 survival cutoff; symmetrized.  A zero density has no lag term,
    so heavy service tails on it stay off the node cap."""
    k = len(services)
    out = np.diag(phi.a * [F.mean() for F in services])
    if phi.grid.any():
        rows = [(0.0, i, _survival_weights(F, F.survival_cutoff(), phi.dt))
                for i, F in enumerate(services)]
        lag = _lag_sums(phi, rows, [(i, j) for i in range(k) for j in range(k)]).reshape(k, k)
        out += 0.5 * (lag + lag.T)
    return out


def var_X_infty(F: ServiceModel, phi: CovarianceDensity) -> float:
    """Steady-state variance of X: mean-service term plus the survival-weighted
    double integral of the covariance density (infinite-horizon version of
    the queue-limit variance), by the rule of `_steady`.
    """
    return float(_steady(phi.kernel, [F], phi)[0, 0])


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


def var_xe_infty(kernel: Kernel | KernelMatrix, phi: CovarianceDensity | None = None,
                 method: str = "auto") -> float:
    """Var(X_e(inf)) = a + p phi~(1) of a k = 1 model, the Exp(1) case of `_steady`
    ("auto": exact for mixtures and power laws) or, with "grid", its lag sum on
    phi (solved on the default grid when not given).
    """
    F = ExponentialService(1.0)
    if method == "auto":
        return float(_steady(kernel, [F], phi)[0, 0])
    if method != "grid":
        raise ConfigurationError(f"unknown method {method!r}")
    _normalize_services([F], _as_matrix(kernel).k)
    return float(_steady_cov(solve_phi_grid(kernel) if phi is None else phi, [F])[0, 0])


@dataclass
class GaussianQueueApprox:
    """Normal approximation of the steady-state queue-length pmf."""

    mean: float
    sigma: float

    def pmf(self, i):
        """The normal mass of the cell [i - 1/2, i + 1/2), with all the mass
        below 1/2 in cell 0 and none below it, so the pmf sums to 1; each
        difference is taken on the side of the mean that keeps its precision."""
        i = np.asarray(i, dtype=float)
        lo = np.where(i > 0, (i - 0.5 - self.mean) / self.sigma, -np.inf)
        hi = np.where(i >= 0, (i + 0.5 - self.mean) / self.sigma, -np.inf)
        out = np.where(lo > 0, _ndtr(-lo) - _ndtr(-hi), _ndtr(hi) - _ndtr(lo))
        return out if i.ndim else float(out)


def gaussian_queue_approx(mu: float, kernel: Kernel | KernelMatrix,
                          service: ServiceModel = ExponentialService(1.0)) -> GaussianQueueApprox:
    """Gaussian steady state of the Hawkes/G/infinity queue of a k = 1 model
    with service F: mean lambda_bar E[S] = mu p E[S]/(1-||h||), variance mu
    times the `_steady` variance of (kernel, F), exact for exponential
    service on an exponential mixture or a power law; other pairs solve phi
    on the default grid.
    """
    if not 0 < mu < math.inf:               # NaN fails this test too
        raise ConfigurationError("mu must be positive and finite")
    multi = _as_matrix(kernel)
    var = float(_steady(multi, [service])[0, 0])
    lam = float(mu * multi.p[0] / (1.0 - multi.l1_matrix()[0, 0]))
    return GaussianQueueApprox(lam * service.mean(), math.sqrt(mu * var))


# --- assembled limit models and exact Gaussian sampling ------------------------

@dataclass
class LimitModel:
    """The Gaussian limit of k classes: the infinite-server queue limit X whose
    class i starts with q0_i customers per unit of mu, of residual service F0_i,
    serves arrivals with F_i, and has mean x0_i S0_i(t).  The count limit G is
    its case of service that never ends (S = 1) and an empty start.

    cov and gram read one block helper, `_blocks`.
    """

    phi: CovarianceDensity
    F0: list
    F: list
    q0: np.ndarray
    x0: np.ndarray

    @property
    def dim(self) -> int:
        return self.phi.k

    @cached_property
    def steady_state_variance(self):
        """Covariance of X(inf) by the rule of `_steady`, computed on first
        access, in the view of `cov`: a float for a model built from a Kernel,
        else the k x k matrix."""
        steady = self.phi._public(_steady(self.phi.kernel, self.F, self.phi))
        return steady if self.phi.is_matrix else float(steady)

    def _blocks(self, times: np.ndarray, pairs: np.ndarray) -> np.ndarray:
        """The k x k blocks Cov(X_i(t), X_j(s)) of the pairs (p, q) of `times`,
        t = t_p >= s = t_q: the closed term 1_{i=j} [q0_i F0_i(s) S0_i(t)
        + a_i int_{t-s}^t S_i], exact through the survival integral of F_i,
        plus the lag sum of phi against the survival weights of F_i on [0, t]
        and of F_j on [0, s], all pairs in one `_lag_sums` call."""
        phi, d, hi = self.phi, self.dim, np.max(times, initial=0.0)
        if not np.all(times >= 0):             # NaN fails this test too
            raise ConfigurationError("times must be nonnegative numbers")
        if hi > phi.t_max:
            raise ConfigurationError(f"t = {hi:g} beyond the phi grid [0, {phi.t_max:g}]")
        rows = [(t, c, _survival_weights(G, t, phi.dt))
                for t in times for c, G in enumerate(self.F)]
        later, earlier = pairs[:, :1, None], pairs[:, 1:, None]
        c = np.arange(d)        # row a d + c holds class c at time a
        row_pairs = np.stack(np.broadcast_arrays(later * d + c[:, None], earlier * d + c), axis=-1)
        lag = _lag_sums(phi, rows, row_pairs).reshape(-1, d, d)
        t, s = times[pairs[:, 0]], times[pairs[:, 1]]
        closed = np.stack([q * G.cdf(s) * G.survival(t)
                           + a * (H.survival_integral(t) - H.survival_integral(t - s))
                           for G, H, q, a in zip(self.F0, self.F, self.q0, phi.a)], axis=-1)
        return closed[..., None] * np.eye(d) + lag

    def cov(self, s: float, t: float):
        """Cov(Z(t), Z(s)), s and t in either order: a scalar for a univariate
        object, else the dim x dim matrix with entry (i, j) = Cov(Z_i(t), Z_j(s))."""
        later = t >= s
        block = self._blocks(np.array([t, s], dtype=float), np.array([[0, 1] if later else [1, 0]]))
        return self.phi._public(block[0] if later else block[0].T)

    def gram(self, t_grid) -> np.ndarray:
        """Covariance of the stacked (Z(t_1), ..., Z(t_m)): block (a, b) is
        cov(t_b, t_a), block (b, a) its transpose, which cov(t_a, t_b) is."""
        t_grid = np.asarray(t_grid, dtype=float)
        m, d = t_grid.size, self.dim
        a, b = np.triu_indices(m)
        later = t_grid[a] >= t_grid[b]                # equal times keep the grid order
        pairs = np.column_stack([np.where(later, a, b), np.where(later, b, a)])
        blocks = self._blocks(t_grid, pairs)
        out = np.empty((m, d, m, d))
        out[pairs[:, 0], :, pairs[:, 1], :] = blocks
        out[pairs[:, 1], :, pairs[:, 0], :] = np.swapaxes(blocks, 1, 2)
        out = out.reshape(m * d, m * d)
        return 0.5 * (out + out.T)

    def mean_vector(self, t_grid) -> np.ndarray:
        """The stacked means x0_i S0_i(t) over the grid."""
        t_grid = np.asarray(t_grid, dtype=float)
        return (self.x0 * np.column_stack([G.survival(t_grid) for G in self.F0])).ravel()


def count_limit_model(phi: CovarianceDensity) -> LimitModel:
    """The count limit G: the queue limit whose service never ends and that
    starts empty, so Cov(G_i(t), G_j(s)) = 1_{i=j} a_i s
    + int_0^t int_0^s Phi_ij(u - v) dv du for s <= t."""
    never, zero = [DeterministicService(math.inf)] * phi.k, np.zeros(phi.k)
    return LimitModel(phi, never, never, zero, zero)


def limit_covariance_G(phi: CovarianceDensity, K, s: float, t: float):
    """Cov(G(t), G(s)) = `count_limit_model(phi).cov(s, t)`: a float for a
    density built from a Kernel, else the k x k matrix with entry (i, j) =
    Cov(G_i(t), G_j(s)).  K is not read; the argument keeps the signature."""
    return count_limit_model(phi).cov(s, t)


def queue_limit_model(phi: CovarianceDensity, F0, F, q0, x0=0.0) -> LimitModel:
    """The queue limit of k classes with per-class F0, F, q0 and x0 (see
    `LimitModel`); each takes one value per class or one for all."""
    k = phi.k
    F0, F = _normalize_services(F0, k), _normalize_services(F, k)
    q0, x0 = (np.full(k, v, float) if np.ndim(v) == 0 else np.asarray(v, float) for v in (q0, x0))
    if q0.shape != (k,) or x0.shape != (k,):
        raise ConfigurationError(f"need one q0 and one x0 per class (k = {k})")
    if not (np.all(q0 >= 0) and np.all(np.isfinite(q0)) and np.all(np.isfinite(x0))):
        raise ConfigurationError("q0 must be finite and nonnegative, x0 finite")
    return LimitModel(phi, F0, F, q0, x0)


def multi_ou_limit_model(phi: CovarianceDensity, r, x0=0.0) -> LimitModel:
    """The OU-type queue limit: Exp(r_i) service from the steady-state load
    a_i/r_i, so the closed terms are (a_i/r_i) (e^{-r_i(t-s)} - e^{-r_i(t+s)})
    and the mean is x0_i e^{-r_i t}."""
    r = np.asarray(r, dtype=float)
    if r.shape != (phi.k,) or not np.all(r > 0):
        raise ConfigurationError("need one positive service rate per class")
    F = [ExponentialService(ri) for ri in r]
    return queue_limit_model(phi, F, F, phi.a / r, x0)


def exp_queue_limit_model(phi: CovarianceDensity, x0: float = 0.0) -> LimitModel:
    """The unit-rate OU-type limit X_e, `multi_ou_limit_model` at r = 1."""
    return multi_ou_limit_model(phi, [1.0], x0)


def steady_state_cov_multi(phi: CovarianceDensity, r) -> np.ndarray:
    """Steady-state covariance matrix of the k-dimensional OU-type limit:

        1_{i=j} a_i/r_i + int_0^inf int_0^inf e^{-r_i u} e^{-r_j v} Phi_ij(v-u) du dv,

    by the rule of `_steady` for the services of `multi_ou_limit_model`.
    """
    return _steady(phi.kernel, multi_ou_limit_model(phi, r).F, phi)


def sample_limit_path(model: LimitModel, t_grid, seed: int,
                      n_draws: int = 1) -> np.ndarray:
    """Exact Gaussian draws of the limit process on a time grid.

    Returns (n_draws, len(t_grid)) for a model built from a Kernel, else
    (n_draws, len(t_grid), k), as `cov` keeps the class axis.  The Gram
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
    return draws.reshape(n_draws, t_grid.size, -1) if model.phi.is_matrix else draws
