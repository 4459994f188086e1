"""Gaussian limit objects for the heavy-baseline regime.

Covariance evaluators for the infinite-server queue limit X of k classes,
one service law per class (the OU-type X_e and its multivariate analogue
are its exponential case, the count limit G its case of service that never
ends), steady-state summaries, the Gaussian queue pmf, and exact
finite-dimensional sampling of any of these from its covariance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import (_MAX_UNKNOWNS, CovarianceDensity, _lattice_weights, _next_fast_len,
                         laplace_pipeline, solve_phi_grid)
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


def cov_X_general(F0: ServiceModel, F: ServiceModel, q0: float,
                  phi: CovarianceDensity, s: float, t: float) -> float:
    """Covariance of the general-service queue limit X at (s, t), the k = 1
    entry of the k-class queue limit (`queue_limit_model`).

    For s <= t:  q0 F0(s)(1 - F0(t)) + (1-||h||)^{-1} int_0^s (1-F(t-u)) du
                 + int_0^s int_0^t (1-F(t-u)) (1-F(s-v)) phi(v-u) du dv.
    The Brownian-bridge and theta components are the first two summands.
    """
    phi._univariate("cov_X_general")
    return float(LimitModel(phi, [F0], [F], np.array([q0]), np.zeros(1))._cov(s, t)[0, 0])


def var_X_infty(F: ServiceModel, phi: CovarianceDensity) -> float:
    """Steady-state variance of X: mean-service term plus the survival-weighted
    double integral of the covariance density (infinite-horizon version of
    the queue-limit variance), by the rule of `_steady_var`.
    """
    phi._univariate("var_X_infty")
    return _steady_var(phi.kernel, F, phi)


def _steady_var(kernel, F: ServiceModel, phi: CovarianceDensity | None = None) -> float:
    """The one steady-state variance a E[S] + int int S(u) S(v) phi(v-u) du dv.

    Exp(r) service on an exponential mixture is exact: (a + phi~(r)) / r from
    the Laplace pipeline.  Any other pair is the k = 1 lag sum of
    `_steady_cov` on phi, solved on the default grid when not given.
    """
    if not math.isfinite(F.mean()):
        raise ConfigurationError("service mean must be finite")
    if isinstance(F, ExponentialService) and isinstance(kernel, SumOfExponentialsKernel):
        pipeline = laplace_pipeline(kernel)
        return (pipeline.phi_tilde(F.rate) + 1.0 / (1.0 - pipeline.norm)) / F.rate
    if phi is None:
        phi = solve_phi_grid(kernel)
    return float(_steady_cov(phi, [F])[0, 0])


def _steady_cov(phi: CovarianceDensity, services) -> np.ndarray:
    """Steady-state covariance 1_{i=j} a_i E[S_i] + int int S_i(u) S_j(v) Phi_ij(v-u)
    du dv of k classes, S_i the survival of service F_i, each axis truncated
    at the 1e-12 survival cutoff; symmetrized.  A zero density has no lag
    term, so heavy service tails on it stay off the node cap."""
    k = len(services)
    out = np.diag(phi.a * [F.mean() for F in services])
    if phi.grid.any():
        rows = [(0.0, i, _survival_weights(F, F.survival_cutoff(), phi.dt))
                for i, F in enumerate(services)]
        lag = _lag_sums(phi, rows, [(i, j) for i in range(k) for j in range(k)]).reshape(k, k)
        out += 0.5 * (lag + lag.T)
    return out


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
    """Var(X_e(inf)) = phi~(1) + 1/(1 - ||h||), the Exp(1) case of `_steady_var`
    ("auto": exact for exponential mixtures) or, with "grid", its lag sum on
    phi (solved on the default grid when not given).
    """
    F = ExponentialService(1.0)
    if method == "auto":
        return _steady_var(kernel, F, phi)
    if method != "grid":
        raise ConfigurationError(f"unknown method {method!r}")
    return float(_steady_cov(solve_phi_grid(kernel) if phi is None else phi, [F])[0, 0])


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
    mean lambda_bar E[S] = mu E[S]/(1-||h||), variance mu times the
    `_steady_var` of (kernel, F), exact for exponential service on an
    exponential mixture; other pairs solve phi on the default grid unless it
    is given.
    """
    if mu <= 0:
        raise ConfigurationError("mu must be positive")
    lam = mu / (1.0 - kernel.l1_norm())
    var = _steady_var(kernel, service, phi)
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
    model = LimitModel(phi, *_exponential_laws(phi, r), np.zeros(phi.k))
    if i not in range(phi.k) or j not in range(phi.k):
        raise ConfigurationError(f"class indices ({i}, {j}) outside 0..{phi.k - 1}")
    return float(model._cov(s, t)[i, j])


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
    steady_state_variance: object = None

    @property
    def dim(self) -> int:
        return self.phi.k

    def _blocks(self, times: np.ndarray, pairs: np.ndarray) -> np.ndarray:
        """The k x k blocks Cov(X_i(t), X_j(s)) of the pairs (p, q) of `times`,
        t = t_p >= s = t_q: the closed term 1_{i=j} [q0_i F0_i(s) S0_i(t)
        + a_i int_{t-s}^t S_i], exact through the survival integral of F_i,
        plus the lag sum of phi against the survival weights of F_i on [0, t]
        and of F_j on [0, s], all pairs in one `_lag_sums` call."""
        phi, d, hi = self.phi, self.dim, np.max(times, initial=0.0)
        if np.min(times, initial=0.0) < 0:
            raise ConfigurationError("times must be nonnegative")
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

    def _cov(self, s: float, t: float) -> np.ndarray:
        """The k x k matrix of Cov(X_i(t), X_j(s)), s and t in either order."""
        later = t >= s
        block = self._blocks(np.array([t, s], dtype=float), np.array([[0, 1] if later else [1, 0]]))
        return block[0] if later else block[0].T

    def cov(self, s: float, t: float):
        """Cov(Z(t), Z(s)): a scalar for a univariate object, else the
        dim x dim matrix with entry (i, j) = Cov(Z_i(t), Z_j(s))."""
        return self.phi._public(self._cov(s, t))

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
    steady = _steady_cov(phi, F) if phi.is_matrix else var_X_infty(F[0], phi)
    return LimitModel(phi, F0, F, q0, x0, steady)


def exp_queue_limit_model(phi: CovarianceDensity, x0: float = 0.0) -> LimitModel:
    phi._univariate("exp_queue_limit_model")
    steady = _steady_var(phi.kernel, ExponentialService(1.0), phi)
    return LimitModel(phi, *_exponential_laws(phi, [1.0]), np.array([x0], dtype=float), steady)


def multi_ou_limit_model(phi: CovarianceDensity, r, x0=None) -> LimitModel:
    x0 = np.zeros(phi.k) if x0 is None else np.asarray(x0, dtype=float)
    return LimitModel(phi, *_exponential_laws(phi, r), x0, steady_state_cov_multi(phi, r))


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
