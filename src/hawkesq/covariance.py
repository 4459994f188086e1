"""Second-order theory: covariance density, variance function, spectral asymptotics.

The covariance density phi of the unit-baseline stationary process solves

    phi(t) = h(t)/(1-||h||) + int_0^inf h(t+v) phi(v) dv + int_0^t h(t-v) phi(v) dv

with the even extension phi(-t) = phi(t).  The k-variate analogue replaces
h(t)/(1-||h||) by h(t) diag(a) and the even extension by Phi(-t) = Phi(t)^T.
Everything downstream (variance function, the limit covariances of
`limits`, spectral asymptotics) is driven by the solved grid.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._io import write_csv
from .errors import ConfigurationError, NumericalError
from .kernels import Kernel, KernelMatrix, SumOfExponentialsKernel, _as_matrix

_TAIL_TOL = 1e-8          # required kernel tail mass at the truncation horizon
_RESIDUAL_TOL = 1e-6      # sup-norm residual of the discretized equation
_MAX_UNKNOWNS = 1_000_000  # k^2 (n + 1) grid values; ~200 bytes of working memory each
_GMRES_RTOL = 1e-10       # above the rounding floor, which reaches ~5e-11 at ||h|| = 0.9999
_GMRES_BASIS = 40         # Krylov vectors; the preconditioned solve needs under ten
_OFFSET_NODES = 4001      # log-spaced frequencies of the spectral offset integral


@functools.lru_cache(maxsize=256)
def _next_fast_len(n: int) -> int:
    """Smallest 5-smooth length 2^a 3^b 5^c >= n, as scipy.fft.next_fast_len(n, real=True)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:                      # 3^b 5^c times the least power of 2 reaching n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _gmres(matvec, b: np.ndarray) -> np.ndarray:
    """GMRES (Saad & Schultz 1986) for A x = b from x0 = 0, in one cycle.

    Arnoldi with modified Gram-Schmidt builds a Krylov basis of at most
    _GMRES_BASIS vectors.  After each vector the small Hessenberg least-squares
    problem is solved afresh; the basis stops growing once its residual reaches
    _GMRES_RTOL ||b||.  Convergence is decided by the true residual ||b - A x||;
    without it the solve raises NumericalError.
    """
    beta = np.linalg.norm(b)
    if beta == 0.0:
        return np.zeros_like(b)
    target = _GMRES_RTOL * beta
    m = _GMRES_BASIS
    V, H, g = np.empty((m + 1, b.size)), np.zeros((m + 1, m)), np.zeros(m + 1)
    V[0], g[0] = b / beta, beta
    for j in range(m):
        w = matvec(V[j])
        w_norm = np.linalg.norm(w)
        for i in range(j + 1):
            H[i, j] = V[i] @ w
            w -= H[i, j] * V[i]
        H[j + 1, j] = np.linalg.norm(w)
        breakdown = H[j + 1, j] <= np.finfo(float).eps * w_norm    # the basis holds x
        if not breakdown:
            V[j + 1] = w / H[j + 1, j]
        Hj, gj = H[:j + 2, :j + 1], g[:j + 2]
        y = np.linalg.lstsq(Hj, gj)[0]
        if breakdown or np.linalg.norm(gj - Hj @ y) <= target:
            break
    x = y @ V[:j + 1]
    residual = np.linalg.norm(b - matvec(x))
    if residual <= target:
        return x
    raise NumericalError(f"GMRES did not converge: residual {residual:.2e} > {target:.2e} "
                         f"with {m} Krylov vectors")


def _lattice_weights(T: float, dt: float, f) -> np.ndarray:
    """Weights x[a] = w[a] f(a dt) of int_0^T f(tau) g(tau) dtau ~ sum_a x[a] g(a dt).

    w are the trapezoid weights when T is a lattice node.  Otherwise the
    partial last cell [N dt, T], r = T - N dt, adds r - r^2/(2 dt) to node N
    and r^2/(2 dt) to node N + 1, which integrates the lattice's
    piecewise-linear interpolant exactly; f is sampled at T in place of
    (N + 1) dt, so a factor that is constant on the cell (a service survival
    ending at T) stays exact.  The node count is checked against the cap
    before anything is allocated.
    """
    n = T / dt
    if not n + 1 <= _MAX_UNKNOWNS:
        raise NumericalError(f"[0, {T:g}] needs {n + 1:.3g} nodes at dt = {dt:g}, "
                             f"over the cap {_MAX_UNKNOWNS}")
    N, r = round(n), 0.0
    if abs(n - N) > 1e-9 * max(1.0, n):     # T within rounding of a node is that node
        N = math.floor(n)
        r = T - N * dt
    w = np.zeros(N + 1 + (r > 0))
    w[:N] += 0.5 * dt
    w[1:N + 1] += 0.5 * dt
    if r > 0:
        w[N] += r - r * r / (2.0 * dt)
        w[N + 1] = r * r / (2.0 * dt)
    return w * f(np.minimum(np.arange(w.size) * dt, T))


def _cumtrapz(y: np.ndarray, dt: float) -> np.ndarray:
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * dt, axis=0)
    return out


def _interp(t: np.ndarray, values: np.ndarray, x, right=None):
    """Linear interpolation of (n, k, k) grid values at x in [0, inf),
    scalar or array; beyond t[-1] the value is `right` (default: the last row)."""
    cols = [np.interp(x, t, col, right=right) for col in values.reshape(len(t), -1).T]
    return np.stack(cols, axis=-1).reshape(np.shape(x) + values.shape[1:])[()]


class _KClassGrid:
    """Values on the grid t stored as `grid`, shape (n, k, k), for every k.  At
    the public boundary (`_public`) an object built from a Kernel shows its
    k = 1 entry as a scalar; one built from a KernelMatrix stays a matrix."""

    @property
    def is_matrix(self) -> bool:
        return isinstance(self.kernel, KernelMatrix)

    @property
    def k(self) -> int:
        return self.grid.shape[1]

    @property
    def values(self) -> np.ndarray:
        return self._public(self.grid)

    def _public(self, arr):
        return arr if self.is_matrix else arr[..., 0, 0]

    def write_csv(self, path):
        names = [f"{self._label}_{i+1}{j+1}" for i in range(self.k) for j in range(self.k)]
        cols = ["t"] + (names if self.is_matrix else [self._label])
        write_csv(path, cols, np.column_stack([self.t, self.grid.reshape(len(self.t), -1)]))


@dataclass
class CovarianceDensity(_KClassGrid):
    """Covariance density on a uniform grid; Phi(-x) = Phi(x)^T, see __call__."""

    t: np.ndarray
    grid: np.ndarray                 # (n, k, k)
    dt: float
    kernel: object                   # Kernel or KernelMatrix
    residual: float = 0.0

    _label = "phi"

    @functools.cached_property
    def a(self) -> np.ndarray:
        """The branching vector (I - ||H||)^{-1} p; [1/(1-||h||)] for k = 1."""
        return _as_matrix(self.kernel).branching_vector()

    @property
    def t_max(self) -> float:
        return float(self.t[-1])

    @property
    def norm(self) -> float:
        """||h||_L1 of the entry of a k = 1 model; NaN for k > 1."""
        return _as_matrix(self.kernel).entries[0][0].l1_norm() if self.k == 1 else float("nan")

    def __call__(self, x):
        """Evaluate by linear interpolation, 0 beyond t_max, at scalar or array x;
        Phi(-x) = Phi(x)^T."""
        x = np.asarray(x, dtype=float)
        out = _interp(self.t, self.grid, np.abs(x), right=0.0)
        return self._public(np.where((x < 0)[..., None, None], np.swapaxes(out, -1, -2), out))

    @functools.cached_property
    def _cumulative(self):
        psi = _cumtrapz(self.grid, self.dt)
        return psi, _cumtrapz(psi, self.dt)

    def cumulative(self):
        """(Psi, Psi2): first and second running integrals of the grid values."""
        return tuple(self._public(p) for p in self._cumulative)

    def l1(self):
        """Trapezoid integral over [0, t_max] (entrywise for matrices)."""
        return self._public(self._cumulative[0][-1])


def _default_t_max(kernel) -> float:
    return max(40.0, 20.0 * kernel.decay_scale())


def _resolve_grid(kernel, dt, t_max, k=1, tail_tol=_TAIL_TOL):
    """Uniform grid [0, t_max] with step dt for a k x k density.

    The auto horizon grows until the tail mass is below tail_tol.  Both the
    auto and the explicit horizon are checked against the cap on k^2 (n + 1)
    unknowns before any grid is allocated.
    """
    if not 0 < dt < math.inf or not (t_max is None or 0 < t_max < math.inf):
        raise ConfigurationError("grid step dt and horizon t_max must be positive and finite")
    if t_max is None:
        t_max = _default_t_max(kernel)
        while kernel.tail_mass(t_max) > tail_tol:
            t_max *= 1.5
            if k * k * (t_max / dt + 1) > _MAX_UNKNOWNS:
                raise NumericalError(
                    "kernel tail decays too slowly for the grid cap; "
                    "pass a coarser dt or an explicit t_max")
    elif kernel.tail_mass(t_max) > tail_tol:
        raise ConfigurationError(
            f"tail mass H({t_max:g}) = {kernel.tail_mass(t_max):.2e} exceeds {tail_tol:g}")
    n = int(round(t_max / dt))
    if k * k * (n + 1) > _MAX_UNKNOWNS:
        raise NumericalError(f"{k * k * (n + 1)} unknowns exceed the cap {_MAX_UNKNOWNS}")
    return np.arange(n + 1) * dt


def _solve_density(entries, a, t, dt):
    """Solve the trapezoid-discretized k x k density equation matrix-free.

    Row (n, i, j) of the discrete system reads

        Phi_ij(t_n) = h_ij(t_n) a_j + sum_q sum_m h_iq(t_n + t_m) w_m Phi_jq(t_m)
                      + sum_l sum_{m<=n} h_il(t_n - t_m) c_nm Phi_lj(t_m),

    with trapezoid weights w and Volterra weights c (dt, halved at m = 0 and
    m = n, row 0 empty).  The history sum is a cross-correlation of h_iq on
    [0, 2 t_max] with w Phi_jq and the Volterra sum a causal convolution of
    h_il on [0, t_max] with Phi_lj; both are applied by FFT, so the operator
    is never stored.  GMRES solves the system, right-preconditioned by the
    circulant inverse of I minus the Volterra part; without it the restarted
    iteration stalls on long grids near criticality.  The discrete system
    is stable only when the spectral radius of the trapezoid sums
    sum_m w_m h(t_m) is below 1; a coarse dt can break that for a kernel
    whose ||h|| is just below 1, so the solve checks it first and raises
    NumericalError.  Returns the (n, k, k) grid and the sup-norm residual.
    """
    n, k = len(t), len(entries)
    size = _next_fast_len(2 * n - 1)               # lags up to 2n - 2 do not wrap

    def spectrum(f):
        return np.fft.rfft(f, size, axis=0)

    def grid(spec):
        return np.fft.irfft(spec, size, axis=0)[:n]

    h = np.moveaxis([[kern(np.arange(2 * n - 1) * dt) for kern in row] for row in entries], -1, 0)
    h0 = h[:n]
    w = _lattice_weights(t[-1], dt, np.ones_like)[:, None, None]
    discrete_norm = float(np.max(np.abs(np.linalg.eigvals((w * h0).sum(axis=0)))))
    if not discrete_norm < 1.0:
        raise NumericalError(f"trapezoid norm of the kernel on the grid is {discrete_norm:.6g} "
                             f">= 1 at dt = {dt:g}; refine dt")
    hist_hat = spectrum(h)
    conv_hat = dt * spectrum(h0)
    inv_hat = np.linalg.inv(np.eye(k) - conv_hat + 0.5 * dt * h0[0])

    def apply(phi):
        spec = (hist_hat @ spectrum(w * phi).conj().transpose(0, 2, 1)
                + conv_hat @ spectrum(phi))
        # half-weight ends of the Volterra sum; together they cancel its row 0
        return grid(spec) - 0.5 * dt * (h0 @ phi[0] + h0[0] @ phi)

    def precondition(y):
        return grid(inv_hat @ spectrum(y.reshape(n, k, k)))

    def system(y):
        phi = precondition(y)
        return (phi - apply(phi)).ravel()

    b = h0 * np.asarray(a, dtype=float)
    phi = precondition(_gmres(system, b.ravel()))
    residual = float(np.max(np.abs(phi - (apply(phi) + b))))
    if not residual <= _RESIDUAL_TOL:
        raise NumericalError(f"integral-equation residual {residual:.2e} > {_RESIDUAL_TOL:g}")
    if phi.min() < -1e-6:
        raise NumericalError(f"covariance density significantly negative ({phi.min():.2e})")
    return phi, residual


def solve_phi_grid(kernel: Kernel | KernelMatrix, dt: float | None = None,
                   t_max: float | None = None) -> CovarianceDensity:
    """Solve the covariance-density equation of a Kernel or KernelMatrix on a
    uniform grid, for the k x k model of `kernels._as_matrix`.

    a is the branching vector, 1/(1-||h||) at k = 1, and the history integral
    uses the extension Phi(-u) = Phi(u)^T.  The step dt defaults to 0.01 at
    k = 1 and 0.02 above.  The infinite history integral is truncated at
    t_max, which must satisfy H(t_max) < 1e-8.  The reported residual is the
    sup-norm defect of the discretized equation.
    """
    multi = _as_matrix(kernel)
    dt = float((0.01 if multi.k == 1 else 0.02) if dt is None else dt)
    t = _resolve_grid(multi, dt, t_max, k=multi.k)
    values, residual = _solve_density(multi.entries, multi.branching_vector(), t, dt)
    return CovarianceDensity(t, values, dt, kernel, residual)


solve_multivariate_phi = solve_phi_grid


def phi_exponential_closed_form(alpha: float, beta: float, dt: float = 0.01,
                                t_max: float | None = None) -> CovarianceDensity:
    """Exact covariance density for h(t) = alpha*exp(-beta*t), 0 <= alpha < beta, on a grid:

        phi(t) = alpha*beta*(2 beta - alpha) / (2 (beta-alpha)^2) * exp(-(beta-alpha) t)
    """
    if not (alpha >= 0 and beta > 0):      # NaN fails this test too
        raise ConfigurationError("need alpha >= 0 and beta > 0")
    if alpha >= beta:
        raise ConfigurationError(f"alpha = {alpha:g} >= beta = {beta:g}: ||h|| >= 1")
    kernel = SumOfExponentialsKernel([alpha], [beta]) if alpha > 0 else SumOfExponentialsKernel()
    pref = alpha * beta * (2.0 * beta - alpha) / (2.0 * (beta - alpha) ** 2)
    rate = beta - alpha
    if t_max is None:
        t_max = max(_default_t_max(kernel), 20.0 / rate)
    t = _resolve_grid(kernel, dt, t_max, tail_tol=np.inf)
    return CovarianceDensity(t, (pref * np.exp(-rate * t))[:, None, None], dt, kernel)


@dataclass
class VarianceFunction(_KClassGrid):
    """Grid of K(t) = Var N(0, t] for the unit-baseline stationary process."""

    t: np.ndarray
    grid: np.ndarray                 # (n, k, k)
    dt: float
    kernel: object

    _label = "K"

    def at(self, x):
        """K at scalar or array x in [0, t_max], by linear interpolation."""
        if not np.all((np.asarray(x) >= 0) & (np.asarray(x) <= self.t[-1] + 1e-12)):
            raise ConfigurationError(f"time {x} outside the solved grid [0, {self.t[-1]:g}]")
        return self._public(_interp(self.t, self.grid, x))


def variance_function(phi: CovarianceDensity) -> VarianceFunction:
    """K(t) = diag(a) t + Psi2(t) + Psi2(t)^T, Psi2 the iterated integral of
    Phi; for k = 1 this is t/(1-||h||) + 2 Psi2(t)."""
    _, psi2 = phi._cumulative
    values = phi.t[:, None, None] * np.diag(phi.a) + psi2 + np.swapaxes(psi2, 1, 2)
    return VarianceFunction(phi.t, values, phi.dt, phi.kernel)


def _stable_norm(kernel: Kernel, what: str) -> float:
    """||h||_L1 of a Kernel, checked to be below 1."""
    if not isinstance(kernel, Kernel):
        raise ConfigurationError(f"{what} needs a Kernel, not a {type(kernel).__name__}")
    norm = kernel.l1_norm()
    if not norm < 1.0:
        raise ConfigurationError(f"{what} defined only for ||h|| < 1")
    return norm


def asymptotic_slope(kernel: Kernel) -> float:
    """lim K(t)/t = 1/(1-||h||)^3."""
    return 1.0 / (1.0 - _stable_norm(kernel, "slope")) ** 3


def asymptotic_offset(kernel: Kernel) -> float:
    """lim [K(t) - t/(1-||h||)^3], the spectral (Bartlett) offset.

    Evaluates the frequency integral on symmetric log-spaced nodes with the
    removable omega -> 0 singularity replaced by its analytic limit
    -(4/(1-||h||)^2) * [(1-||h||) m2 + m1^2] / 4 per the dominated-convergence
    derivation (the published limit display carries a sign slip).  The
    4001-node trapezoid rule cut at omega = 1e4 is off the exact offset by
    2-3e-4 for exponential kernels: h1 reads -11.999660 for -12, h2
    -40.19976 for -40.2.
    Requires a finite second moment; strictly negative unless h is zero.
    """
    norm = _stable_norm(kernel, "offset")
    if kernel.is_zero:
        return 0.0
    m1 = kernel.first_moment()
    m2 = kernel.second_moment()    # raises IntegrabilityError for heavy tails
    g0 = -((1.0 - norm) * m2 + m1 * m1) / (1.0 - norm) ** 2
    omegas = np.logspace(-4, 4, _OFFSET_NODES)
    hat = kernel.fourier(omegas)
    denom = np.abs(1.0 - hat) ** 2
    g = ((1.0 - norm) ** 2 - denom) / (denom * omegas**2)
    xs = np.concatenate([[0.0], omegas])
    ys = np.concatenate([[g0], g])
    if not np.all(np.isfinite(ys)):
        raise NumericalError("spectral integrand not finite")
    integral = 2.0 * np.trapezoid(ys, xs)          # even integrand
    return integral / (np.pi * (1.0 - norm) ** 3)


# --- Laplace-transform pipeline for exponential mixtures ----------------------

@dataclass
class LaplacePipeline:
    """Solved Laplace system for a finite exponential mixture.

    R_i = h~(beta_i) / ((1 - h~(beta_i)) (1 - ||h||)),
    M_ij = alpha_j / ((1 - h~(beta_i)) (beta_j + beta_i)),
    (I - M) Xtilde = R  with Xtilde_i = phi~(beta_i).
    """

    R: np.ndarray
    M: np.ndarray
    Xtilde: np.ndarray
    kernel: SumOfExponentialsKernel
    norm: float
    residual: float
    condition: float

    def phi_tilde(self, omega: float) -> float:
        """Laplace transform of the covariance density at finite omega > 0."""
        if not 0 < omega < math.inf:            # NaN fails this test too
            raise ConfigurationError("phi_tilde requires finite omega > 0")
        ht = self.kernel.laplace(omega)
        extra = float(np.sum(self.kernel.alphas * self.Xtilde
                             / (self.kernel.betas + omega)))
        return ht / ((1.0 - ht) * (1.0 - self.norm)) + extra / (1.0 - ht)

    def to_dict(self):
        return {"R": self.R.tolist(), "M": self.M.tolist(),
                "Xtilde": self.Xtilde.tolist(), "residual": self.residual,
                "condition": self.condition,
                "phi_tilde_at": {"1.0": self.phi_tilde(1.0)} if not self.kernel.is_zero else {}}


def laplace_pipeline(kernel: SumOfExponentialsKernel) -> LaplacePipeline:
    """Assemble and solve the finite Laplace system for phi~ at the decay rates.

    Solves (I - M) Xtilde = R for Xtilde_i = phi~(beta_i), with R and M as in
    `LaplacePipeline`.
    """
    if not isinstance(kernel, SumOfExponentialsKernel):
        raise ConfigurationError("laplace_pipeline requires a sum-of-exponentials kernel")
    norm = _stable_norm(kernel, "laplace_pipeline")
    d = kernel.alphas.size
    if d == 0:
        return LaplacePipeline(np.empty(0), np.empty((0, 0)), np.empty(0),
                               kernel, norm, 0.0, 1.0)
    ht = kernel._transform(kernel.betas)
    R = ht / ((1.0 - ht) * (1.0 - norm))
    M = (kernel.alphas[None, :] / (kernel.betas[None, :] + kernel.betas[:, None])) \
        / (1.0 - ht)[:, None]
    system = np.eye(d) - M
    condition = float(np.linalg.cond(system, 1))
    if not np.isfinite(condition) or condition > 1e12:
        raise NumericalError(f"I - M ill-conditioned (cond = {condition:.3e})")
    x = np.linalg.solve(system, R)
    residual = float(np.max(np.abs(system @ x - R)))
    return LaplacePipeline(R, M, x, kernel, norm, residual, condition)
