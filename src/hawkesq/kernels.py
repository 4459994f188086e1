"""Exciting functions, baseline intensities, and their transforms.

A kernel is the nonnegative function h weighting the influence of past
events on the current intensity.  Three parametric families are supported
(sum of exponentials, shifted power law, tabulated values on a uniform
grid) together with a matrix-valued wrapper for mutually-exciting models.
Each family supplies one transform, its exact Laplace transform L(s) at
complex s; `laplace` reads it at real s and `fourier` at s = -i omega.
"""
from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import (ConfigurationError, IntegrabilityError, NumericalError, config_list,
                     config_value)

# Pointwise-nonnegativity probe for mixed-sign exponential mixtures.
_PROBE_POINTS = 10_000
_POWER_TAIL = 1e-16    # share of ||h|| that a power law's exponential sum may drop
# Entries per (arguments x values) work array of TabulatedKernel._transform (4 MB).
_TRANSFORM_BLOCK = 1 << 18


class Kernel:
    """Base class: a nonnegative, integrable function on [0, inf).

    The base owns the argument rules.  A family supplies `_h` on nonnegative
    arrays, `_sample_offsets`, and `_transform`: the exact Laplace transform
    L(s) = int e^{-s t} h(t) dt on a 1-d array of s, real or complex, with
    Re s >= 0.  `laplace` is L at real omega > 0 and `fourier` is L(-i omega).
    `_sum` is h as an exact `SumOfExponentialsKernel`, or None for a family
    without one; the exact steady state and thinning read it.
    """

    _sum = None

    def __call__(self, t):
        """h at scalar or array t: 0 for t < 0, a float for a scalar."""
        t = np.asarray(t, dtype=float)
        out = np.where(t < 0, 0.0, self._h(np.maximum(t, 0.0)))
        return out if t.ndim else float(out)

    def _h(self, t):
        raise NotImplementedError

    def l1_norm(self) -> float:
        """Integral of h over [0, inf)."""
        raise NotImplementedError

    @property
    def is_zero(self) -> bool:
        return self.l1_norm() == 0.0

    def laplace(self, omega: float) -> float:
        """One-sided Laplace transform at omega > 0, by the family's exact rule."""
        if omega <= 0:
            raise ConfigurationError("laplace transform requires omega > 0")
        return float(self._transform(np.array([omega], dtype=float))[0])

    def fourier(self, omega):
        """One-sided Fourier transform, the integral of exp(i*omega*t)*h(t), at
        scalar or array omega; at omega = 0 it is the L1 norm, bitwise."""
        omega = np.asarray(omega, dtype=float)
        w = omega.ravel()
        out = np.where(w == 0.0, self.l1_norm(), self._transform(-1j * w))
        return out.reshape(omega.shape) if omega.ndim else complex(out[0])

    def _transform(self, s: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def first_moment(self) -> float:
        raise NotImplementedError

    def second_moment(self) -> float:
        raise NotImplementedError

    def tail_mass(self, t: float) -> float:
        """H(t) = integral of h over [t, inf)."""
        raise NotImplementedError

    def tail_integral(self, b: float) -> float:
        """Integral of H(s) over [b, inf); drives the burn-in bias bound."""
        raise NotImplementedError

    def decay_scale(self) -> float:
        """Characteristic (slowest) time scale of the kernel."""
        raise NotImplementedError

    def sample_offsets(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n birth offsets with density h / ||h||_L1.

        The values are iid as a multiset, but their order may carry
        information (an exponential mixture returns one block per component),
        so a caller that pairs offsets with parents by position must choose
        the pairing at random.  The zero kernel has no offset density.
        """
        if self.is_zero:
            raise ConfigurationError("cannot sample offsets from the zero kernel")
        return self._sample_offsets(rng, n)

    def _sample_offsets(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


class SumOfExponentialsKernel(Kernel):
    """h(t) = sum_r alpha_r * exp(-beta_r * t).

    Parameters
    ----------
    alphas : array_like
        Term amplitudes.  Mixed signs are allowed as long as h stays
        pointwise nonnegative (checked on a dense probe grid).
    betas : array_like
        Strictly positive decay rates, one per term.
    """

    def __init__(self, alphas=(), betas=()):
        self.alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
        self.betas = np.atleast_1d(np.asarray(betas, dtype=float))
        if self.alphas.shape != self.betas.shape or self.alphas.ndim != 1:
            raise ConfigurationError("alphas and betas must be 1-d and of equal length")
        if not np.all(np.isfinite(self.alphas)):
            raise ConfigurationError("non-finite amplitude")
        if not np.all(self.betas > 0):         # NaN fails this test too
            raise ConfigurationError("decay rates must be positive")
        if np.any(self.alphas < 0):
            probe = np.linspace(0.0, 20.0 / self.betas.min(), _PROBE_POINTS)
            if np.min(self(probe)) < 0:
                raise ConfigurationError(
                    "mixed-sign exponential mixture is negative somewhere on [0, 20/min beta]")
        self._l1 = float(np.sum(self.alphas / self.betas))
        # the offset sampler's positive-part mixture: component weights and rates
        pos = self.alphas > 0
        weights = self.alphas[pos] / self.betas[pos]
        self._pos_alphas, self._pos_betas = self.alphas[pos], self.betas[pos]
        self._pos_weights = weights / weights.sum()

    def __repr__(self):
        terms = ", ".join(f"{a:g}*exp(-{b:g}t)" for a, b in zip(self.alphas, self.betas))
        return f"SumOfExponentialsKernel({terms or '0'})"

    def _h(self, t):
        out = (self.alphas[:, None] * np.exp(-self.betas[:, None] * t.ravel())).sum(axis=0)
        return out.reshape(t.shape)

    def l1_norm(self) -> float:
        return self._l1

    @property
    def _sum(self):
        return self

    def _transform(self, s):
        # term by term: one summation order at every s, and no terms x s array
        return sum((a / (b + s) for a, b in zip(self.alphas, self.betas)),
                   np.zeros(s.shape, dtype=s.dtype))

    def first_moment(self) -> float:
        return float(np.sum(self.alphas / self.betas**2))

    def second_moment(self) -> float:
        return float(np.sum(2.0 * self.alphas / self.betas**3))

    def tail_mass(self, t):
        return float(np.sum((self.alphas / self.betas) * np.exp(-self.betas * t)))

    def tail_integral(self, b):
        return float(np.sum((self.alphas / self.betas**2) * np.exp(-self.betas * b)))

    def decay_scale(self) -> float:
        return 1.0 / float(self.betas.min()) if self.alphas.size else 1.0

    def _sample_offsets(self, rng, n):
        alphas_pos, betas_pos = self._pos_alphas, self._pos_betas

        def draw(m):
            # multinomial component counts, then one exponential block per component,
            # filled in place: exponential(scale) is scale times the standard draw
            out = np.empty(m)
            ends = np.cumsum(rng.multinomial(m, self._pos_weights)).tolist()
            for b, start, end in zip(betas_pos, [0] + ends, ends):
                block = out[start:end]
                rng.standard_exponential(out=block)
                block *= 1.0 / b
            return out

        if np.all(self.alphas >= 0):
            return draw(n)
        # Mixed signs: rejection against the positive-part mixture envelope.
        out = np.empty(n)
        filled = 0
        for _ in range(10_000):
            m = n - filled
            cand = draw(m)
            env = (alphas_pos[:, None] * np.exp(-betas_pos[:, None] * cand[None, :])).sum(axis=0)
            keep = rng.random(m) * env <= self(cand)
            k = int(keep.sum())
            out[filled:filled + k] = cand[keep]
            filled += k
            if filled == n:
                return out
        raise NumericalError("offset rejection sampler failed to converge")

    def to_dict(self):
        return {"type": "sum_exp",
                "terms": [{"alpha": float(a), "beta": float(b)}
                          for a, b in zip(self.alphas, self.betas)]}


class PowerLawKernel(Kernel):
    """h(t) = amplitude / (1 + scale*t)**exponent.

    The L1 norm requires exponent > 1; the burn-in tail bound requires
    exponent > 2 and the spectral offset requires exponent > 3.
    """

    def __init__(self, scale: float, exponent: float, amplitude: float = 1.0):
        if scale <= 0 or exponent <= 0:
            raise ConfigurationError("scale and exponent must be positive")
        if amplitude < 0:
            raise ConfigurationError("amplitude must be nonnegative")
        self.scale, self.exponent, self.amplitude = float(scale), float(exponent), float(amplitude)

    def __repr__(self):
        return (f"PowerLawKernel({self.amplitude:g}/(1+{self.scale:g}t)^{self.exponent:g})")

    def _h(self, t):
        return self.amplitude * (1.0 + self.scale * t) ** (-self.exponent)

    @property
    def is_zero(self):
        return self.amplitude == 0.0

    def _require(self, gamma_min: float, what: str):
        if self.exponent <= gamma_min:
            raise IntegrabilityError(
                f"{what} diverges for power-law exponent {self.exponent} <= {gamma_min}")

    def l1_norm(self):
        self._require(1.0, "L1 norm")
        return self.amplitude / (self.scale * (self.exponent - 1.0))

    @cached_property
    def _sum(self) -> SumOfExponentialsKernel:
        """h by the trapezoid rule in y on (1 + s t)^-g = int exp(g y - e^y - e^y s t) dy / G(g),
        G = Gamma: node y gives alpha = A hy e^{g y - e^y} / G(g), beta = s e^y.  At hy = 0.25
        (0.5/sqrt(g) above g = 4, where the integrand narrows) h is off by at most 4e-13 A and
        ||h|| by 2e-13 relative.  The nodes run from max(5, 1 + log g) down to a tail share
        e^{(g-1) y} / G(g) of ||h|| of 1e-16; terms of a smaller share alpha/beta go.  Some
        37/(g-1)/hy terms, 1,300 at g = 1.1; near g = 1.05 the slowest rate s e^y underflows."""
        g, s, norm = self.exponent, self.scale, self.l1_norm()
        hy = min(0.25, 0.5 / math.sqrt(g))
        y = np.arange(max(5.0, 1.0 + math.log(g)),
                      (math.log(_POWER_TAIL) + math.lgamma(g)) / (g - 1.0), -hy)
        betas = s * np.exp(y)
        if betas[-1] < np.finfo(float).tiny:
            raise NumericalError(f"power-law exponent {g} too close to 1 for an exponential sum")
        alphas = self.amplitude * hy * np.exp(g * y - np.exp(y) - math.lgamma(g))
        keep = alphas / betas >= _POWER_TAIL * norm
        return SumOfExponentialsKernel(alphas[keep], betas[keep])

    def _transform(self, s):
        return self._sum._transform(s)

    def first_moment(self):
        self._require(2.0, "first moment")
        g, d = self.exponent, self.scale
        return self.amplitude / (d * d * (g - 1.0) * (g - 2.0))

    def second_moment(self):
        self._require(3.0, "second moment")
        g, d = self.exponent, self.scale
        return 2.0 * self.amplitude / (d**3 * (g - 1.0) * (g - 2.0) * (g - 3.0))

    def tail_mass(self, t):
        self._require(1.0, "tail mass")
        g, d = self.exponent, self.scale
        return self.amplitude * (1.0 + d * t) ** (1.0 - g) / (d * (g - 1.0))

    def tail_integral(self, b):
        self._require(2.0, "burn-in tail bound")
        g, d = self.exponent, self.scale
        return self.amplitude * (1.0 + d * b) ** (2.0 - g) / (d * d * (g - 1.0) * (g - 2.0))

    def decay_scale(self):
        return 1.0 / self.scale

    def _sample_offsets(self, rng, n):
        self._require(1.0, "offset density")
        # Exact inverse CDF: F(t) = 1 - (1 + scale*t)^(1-exponent).
        u = rng.random(n)
        return ((1.0 - u) ** (-1.0 / (self.exponent - 1.0)) - 1.0) / self.scale

    def to_dict(self):
        return {"type": "power_law", "scale": self.scale,
                "exponent": self.exponent, "amplitude": self.amplitude}


class TabulatedKernel(Kernel):
    """Piecewise-linear kernel from values h(k*dt) on a uniform grid.

    Values beyond the cutoff (n-1)*dt are treated as zero.  The L1 norm,
    moments, tail masses and transform are exact for the interpolant.
    """

    def __init__(self, dt: float, values):
        if dt <= 0:
            raise ConfigurationError("grid step must be positive")
        self.dt = float(dt)
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 2:
            raise ConfigurationError("need at least two tabulated values")
        if np.any(self.values < 0) or not np.all(np.isfinite(self.values)):
            raise ConfigurationError("tabulated values must be finite and nonnegative")
        self.grid = np.arange(self.values.size) * self.dt
        self.cutoff = float(self.grid[-1])
        self._l1 = float(np.trapezoid(self.values, dx=self.dt))

    def __repr__(self):
        return f"TabulatedKernel(dt={self.dt:g}, cutoff={self.cutoff:g}, n={self.values.size})"

    def _h(self, t):
        return np.interp(t, self.grid, self.values, right=0.0)

    def l1_norm(self):
        return self._l1

    def _transform(self, s):
        # exact for the interpolant: cell c weighs its left and right values by
        # e^{-s c dt} dt times (x - 1 + e^-x)/x^2 and (1 - e^-x)/x minus that, x = s dt,
        # with a series for the first where x - 1 + e^-x cancels
        x = s * self.dt
        left = np.divide(x + np.expm1(-x), x * x, where=np.abs(x) >= 1e-3,
                         out=0.5 - x / 6.0 + x * x / 24.0 - x**3 / 120.0)
        right = np.divide(-np.expm1(-x), x, where=x != 0.0, out=np.ones_like(x)) - left
        out = np.empty_like(x)
        step = max(1, _TRANSFORM_BLOCK // self.values.size)
        for rows in (slice(lo, lo + step) for lo in range(0, s.size, step)):
            phase = np.exp(-s[rows, None] * self.grid[:-1])
            # numpy's pairwise sums: asymptotic_offset divides the error by omega^2
            out[rows] = self.dt * (left[rows] * (phase * self.values[:-1]).sum(axis=1)
                                   + right[rows] * (phase * self.values[1:]).sum(axis=1))
        return out

    def first_moment(self):
        t0, t1, f0, f1 = self.grid[:-1], self.grid[1:], self.values[:-1], self.values[1:]
        return self.dt / 6.0 * float(np.sum((2.0 * t0 + t1) * f0 + (t0 + 2.0 * t1) * f1))

    def second_moment(self):
        t0, t1, f0, f1 = self.grid[:-1], self.grid[1:], self.values[:-1], self.values[1:]
        return self.dt / 12.0 * float(np.sum((3.0 * t0**2 + 2.0 * t0 * t1 + t1**2) * f0
                                             + (t0**2 + 2.0 * t0 * t1 + 3.0 * t1**2) * f1))

    def _tail_masses(self):
        seg = 0.5 * (self.values[1:] + self.values[:-1]) * self.dt
        return np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])

    def tail_mass(self, t):
        return float(np.interp(t, self.grid, self._tail_masses()))    # 0 from the cutoff on

    def tail_integral(self, b):
        tm = self._tail_masses()
        i = int(np.searchsorted(self.grid, b))
        xs = np.concatenate([[b], self.grid[i:]])
        ys = np.concatenate([[self.tail_mass(b)], tm[i:]])
        return float(np.trapezoid(ys, xs))

    def decay_scale(self):
        return max(self.dt, self.cutoff / 10.0)

    def _sample_offsets(self, rng, n):
        norm = self.l1_norm()
        seg = 0.5 * (self.values[1:] + self.values[:-1]) * self.dt
        cdf = np.concatenate([[0.0], np.cumsum(seg)]) / norm
        u = rng.random(n)
        i = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, self.values.size - 2)
        # Density is linear within a bin: invert the quadratic local CDF.
        f0, f1 = self.values[i], self.values[i + 1]
        rem = (u - cdf[i]) * norm
        slope = (f1 - f0) / self.dt
        disc = np.maximum(f0**2 + 2.0 * slope * rem, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.where(np.abs(slope) > 1e-14 * np.maximum(f0, 1.0),
                         (np.sqrt(disc) - f0) / slope,
                         rem / np.maximum(f0, 1e-300))
        return self.grid[i] + np.clip(x, 0.0, self.dt)

    def majorant(self, t):
        """Non-increasing pointwise upper bound, the thinning window's dominating h."""
        run = np.maximum.accumulate(self.values[::-1])[::-1]
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.floor(t / self.dt).astype(int), 0, self.values.size - 1)
        out = np.where((t < 0) | (t >= self.cutoff), 0.0, run[idx])
        return out if t.ndim else float(out)

    def to_dict(self):
        return {"type": "tabulated", "dt": self.dt, "values": self.values.tolist()}


ZERO_KERNEL = SumOfExponentialsKernel((), ())


class KernelMatrix:
    """k x k matrix of kernels plus nonnegative baseline shape vector p.

    The stationarity admission check is the spectral radius of the matrix
    of L1 norms being strictly below one.
    """

    def __init__(self, entries, p):
        self.entries = [list(row) for row in entries]
        self.k = len(self.entries)
        if self.k < 1 or any(len(row) != self.k for row in self.entries):
            raise ConfigurationError("kernel matrix must be square")
        for row in self.entries:
            for kern in row:
                if not isinstance(kern, Kernel):
                    raise ConfigurationError("matrix entries must be Kernel instances")
        self.p = np.asarray(p, dtype=float)
        if self.p.shape != (self.k,) or np.any(self.p < 0):
            raise ConfigurationError("p must be a nonnegative vector of length k")
        rho = self.spectral_radius()
        if not rho < 1.0:
            raise ConfigurationError(f"spectral radius {rho:.6g} >= 1: no stationary version")

    def l1_matrix(self) -> np.ndarray:
        return np.array([[kern.l1_norm() for kern in row] for row in self.entries])

    def spectral_radius(self) -> float:
        return spectral_radius(self.l1_matrix())

    def branching_vector(self) -> np.ndarray:
        """a = (I - H)^{-1} p, the per-unit-baseline mean rates."""
        return np.linalg.solve(np.eye(self.k) - self.l1_matrix(), self.p)

    def decay_scale(self) -> float:
        scales = [kern.decay_scale() for row in self.entries for kern in row
                  if not kern.is_zero]
        return max(scales) if scales else 1.0

    def tail_mass(self, t: float) -> float:
        return max(sum(self.entries[i][j].tail_mass(t) for i in range(self.k))
                   for j in range(self.k))

    def to_dict(self):
        return {"type": "matrix", "p": self.p.tolist(),
                "entries": [[kern.to_dict() for kern in row] for row in self.entries]}


def spectral_radius(matrix) -> float:
    """Dominant eigenvalue of a nonnegative matrix (its Perron root)."""
    H = np.asarray(matrix, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ConfigurationError("spectral radius needs a square matrix")
    if np.any(H < 0):
        raise ConfigurationError("matrix of L1 norms must be nonnegative")
    return float(np.abs(np.linalg.eigvals(H)).max())


def _as_matrix(kernel) -> KernelMatrix:
    """The k x k model of a KernelMatrix, or the 1 x 1 model with p = [1] of a
    Kernel: every value and route reads k, the entries and p from it, so the
    Python type decides only how a result is shown."""
    if isinstance(kernel, KernelMatrix):
        return kernel
    if not isinstance(kernel, Kernel):
        raise ConfigurationError("kernel must be a Kernel or KernelMatrix")
    return KernelMatrix([[kernel]], [1.0])


class HawkesConfig:
    """A stationary model: baseline scaling mu plus a kernel (or matrix).

    The model is held as a k x k KernelMatrix (1 x 1 with p = [1] for a
    single kernel), whose spectral radius, ||h|| at k = 1, must be below one.
    The mean-rate vector must come out finite and positive.
    """

    def __init__(self, baseline: float, kernel):
        if baseline <= 0 or not math.isfinite(baseline):
            raise ConfigurationError("baseline must be positive and finite")
        self.baseline = float(baseline)
        self.kernel = kernel
        self._matrix = _as_matrix(kernel)
        rates = self.mean_rate_vector()
        if np.any(~np.isfinite(rates)) or np.any(rates <= 0):
            raise ConfigurationError("mean-rate vector must be finite and positive")

    @property
    def dimension(self) -> int:
        return self._matrix.k

    def kernel_matrix(self) -> KernelMatrix:
        """View the model as k >= 1 dimensional."""
        return self._matrix

    def mean_rate_vector(self) -> np.ndarray:
        return self.baseline * self._matrix.branching_vector()

    def mean_rate(self) -> float:
        """Scalar mean rate; only defined for k = 1."""
        if self.dimension > 1:
            raise ConfigurationError("mean_rate() needs k = 1; use mean_rate_vector()")
        return float(self.mean_rate_vector()[0])


# --- functional facades matching the published operation names ---------------

def l1_norm(kernel: Kernel) -> float:
    return kernel.l1_norm()


def laplace_transform(kernel: Kernel, omega: float) -> float:
    return kernel.laplace(omega)


def fourier_transform(kernel: Kernel, omega):
    return kernel.fourier(omega)


# --- JSON schema --------------------------------------------------------------

def kernel_from_dict(data: dict):
    """Build a kernel (or matrix) from the JSON schema used by CLI configs,
    reading each number through `config_value`."""
    if not isinstance(data, dict) or "type" not in data:
        raise ConfigurationError("kernel spec must be an object with a 'type' field")
    kind = data["type"]
    try:
        if kind == "sum_exp":
            terms = [config_value("terms", t, dict)
                     for t in config_value("terms", data.get("terms", []), list)]
            return SumOfExponentialsKernel([config_value("alpha", t["alpha"]) for t in terms],
                                           [config_value("beta", t["beta"]) for t in terms])
        if kind == "power_law":
            return PowerLawKernel(config_value("scale", data["scale"]),
                                  config_value("exponent", data["exponent"]),
                                  config_value("amplitude", data.get("amplitude", 1.0)))
        if kind == "tabulated":
            return TabulatedKernel(config_value("dt", data["dt"]),
                                   config_list("values", data["values"]))
        if kind == "matrix":
            entries = [[kernel_from_dict(cell) for cell in config_value("entries", row, list)]
                       for row in config_value("entries", data["entries"], list)]
            return KernelMatrix(entries, config_list("p", data["p"]))
    except KeyError as exc:
        raise ConfigurationError(f"kernel spec missing field {exc}") from exc
    raise ConfigurationError(f"unknown kernel type {kind!r}")
