"""Exciting functions, baseline intensities, and their transforms.

A kernel is the nonnegative function h weighting the influence of past
events on the current intensity.  Three parametric families are supported
(sum of exponentials, shifted power law, tabulated values on a uniform
grid) together with a matrix-valued wrapper for mutually-exciting models.
"""
from __future__ import annotations

import json
import math

import numpy as np

from .errors import ConfigurationError, IntegrabilityError, NumericalError

# Pointwise-nonnegativity probe for mixed-sign exponential mixtures.
_PROBE_POINTS = 10_000
# Relative floor below which the kernel is treated as fully decayed.
_DECAY_FLOOR = 1e-12
# Entries per (frequencies x values) work array of TabulatedKernel.fourier (4 MB).
_FOURIER_BLOCK = 1 << 18


class Kernel:
    """Base class: a nonnegative, integrable function on [0, inf).

    The base owns the argument rules.  A family supplies `_h` on nonnegative
    arrays, `_fourier` on 1-d frequency arrays, `_sample_offsets` and, if it
    has one, a `_laplace` rule (adaptive quadrature otherwise).
    """

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

    def laplace(self, omega: float, method: str = "auto") -> float:
        """One-sided Laplace transform at omega > 0: "auto" uses the family's
        rule, "quadrature" adaptive quadrature of h."""
        if omega <= 0:
            raise ConfigurationError("laplace transform requires omega > 0")
        if method not in ("auto", "quadrature"):
            raise ConfigurationError(f"unknown method {method!r}")
        if method == "quadrature":
            return self._laplace_quadrature(omega)
        return self._laplace(omega)

    def fourier(self, omega):
        """One-sided Fourier transform, the integral of exp(i*omega*t)*h(t), at
        scalar or array omega; at omega = 0 this equals the L1 norm."""
        omega = np.asarray(omega, dtype=float)
        out = self._fourier(omega.ravel())
        return out.reshape(omega.shape) if omega.ndim else complex(out[0])

    def _fourier(self, omega: np.ndarray) -> np.ndarray:
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

    def majorant(self, t):
        """Non-increasing pointwise upper bound used by dominated thinning."""
        raise NotImplementedError

    def majorant_cutoff(self) -> float:
        """Lag beyond which the majorant is negligible: the thinning prune
        horizon and the upper limit of quadratures over h."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    def _laplace_quadrature(self, omega: float) -> float:
        from scipy.integrate import quad     # deferred: it adds ~0.2 s to the package import

        # beyond -log(1e-16)/omega the factor e^{-omega t} drops at most 1e-16 ||h||;
        # a heavy tail's cutoff lies so far out that quad would miss the mass near 0
        end = min(self.majorant_cutoff(), -math.log(1e-16) / omega)
        val, _ = quad(lambda t: math.exp(-omega * t) * float(self(t)), 0.0, end, limit=200)
        return val

    _laplace = _laplace_quadrature


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
        if np.any(self.betas <= 0):
            raise ConfigurationError("decay rates must be positive")
        if np.any(self.alphas < 0):
            probe = np.linspace(0.0, 20.0 / self.betas.min(), _PROBE_POINTS)
            if np.min(self(probe)) < 0:
                raise ConfigurationError(
                    "mixed-sign exponential mixture is negative somewhere on [0, 20/min beta]")

    def __repr__(self):
        terms = ", ".join(f"{a:g}*exp(-{b:g}t)" for a, b in zip(self.alphas, self.betas))
        return f"SumOfExponentialsKernel({terms or '0'})"

    def _h(self, t):
        out = (self.alphas[:, None] * np.exp(-self.betas[:, None] * t.ravel())).sum(axis=0)
        return out.reshape(t.shape)

    def l1_norm(self) -> float:
        return float(np.sum(self.alphas / self.betas))

    def _laplace(self, omega):
        return float(np.sum(self.alphas / (self.betas + omega)))

    def _fourier(self, omega):
        return (self.alphas[:, None] / (self.betas[:, None] - 1j * omega)).sum(axis=0)

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
        pos = self.alphas > 0
        weights = self.alphas[pos] / self.betas[pos]
        weights = weights / weights.sum()
        betas_pos = self.betas[pos]

        def draw(m):
            # multinomial component counts, then one exponential block per component,
            # filled in place: exponential(scale) is scale times the standard draw
            out = np.empty(m)
            ends = np.cumsum(rng.multinomial(m, weights)).tolist()
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
        alphas_pos = self.alphas[pos]
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

    def majorant_cutoff(self) -> float:
        return -math.log(_DECAY_FLOOR) / float(np.min(self.betas, initial=np.inf))

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
        self.scale = float(scale)
        self.exponent = float(exponent)
        self.amplitude = float(amplitude)

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

    def _fourier(self, omegas):
        from scipy.integrate import quad     # deferred: it adds ~0.2 s to the package import

        self._require(1.0, "Fourier transform")
        cutoff = self.majorant_cutoff()
        out = np.empty(omegas.shape, dtype=complex)
        for i, w in enumerate(omegas):
            if w == 0.0:
                out[i] = self.l1_norm()
                continue
            re, _ = quad(self, 0.0, cutoff, weight="cos", wvar=abs(w), limit=400)
            im, _ = quad(self, 0.0, cutoff, weight="sin", wvar=abs(w), limit=400)
            out[i] = re + 1j * math.copysign(1.0, w) * im
        return out

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

    def majorant(self, t):
        return self(np.maximum(t, 0.0))  # already non-increasing

    def majorant_cutoff(self):
        # h(T) = 1e-12 * h(0)
        return ((_DECAY_FLOOR) ** (-1.0 / self.exponent) - 1.0) / self.scale

    def to_dict(self):
        return {"type": "power_law", "scale": self.scale,
                "exponent": self.exponent, "amplitude": self.amplitude}


class TabulatedKernel(Kernel):
    """Piecewise-linear kernel from values h(k*dt) on a uniform grid.

    Values beyond the cutoff (n-1)*dt are treated as zero.  The L1 norm,
    tail masses and `fourier` are exact for the interpolant; the moments and
    `laplace` are trapezoid sums on the same grid, which are not, and
    `laplace(omega, method="quadrature")` integrates the interpolant adaptively.
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

    def __repr__(self):
        return f"TabulatedKernel(dt={self.dt:g}, cutoff={self.cutoff:g}, n={self.values.size})"

    def _h(self, t):
        return np.interp(t, self.grid, self.values, right=0.0)

    def l1_norm(self):
        return float(np.trapezoid(self.values, dx=self.dt))

    def _laplace(self, omega):
        return float(np.trapezoid(np.exp(-omega * self.grid) * self.values, dx=self.dt))

    def _fourier(self, omega):
        # Exact transform of the piecewise-linear interpolant: hat-function
        # weights keep this accurate at frequencies far above 1/dt.
        om = omega[:, None]
        a = om * self.dt
        small = np.abs(a) < 1e-3      # series below this to dodge cancellation
        with np.errstate(divide="ignore", invalid="ignore"):
            # transform of the boundary half-hat: (1 + i w dt - e^{i w dt}) / (w^2 dt)
            half = np.where(small,
                            self.dt * (0.5 + 1j * a / 6.0 - a**2 / 24.0 - 1j * a**3 / 120.0),
                            (1.0 + 1j * a - np.exp(1j * a)) / np.where(small, 1.0, om**2 * self.dt))
            sinc2 = np.where(small, self.dt * (1.0 - a**2 / 12.0 + a**4 / 360.0),
                             (2.0 - 2.0 * np.cos(a)) / np.where(small, 1.0, om**2 * self.dt))
        out = np.empty(om.shape[0], dtype=complex)
        step = max(1, _FOURIER_BLOCK // self.values.size)
        for rows in (slice(lo, lo + step) for lo in range(0, om.shape[0], step)):
            w = np.repeat(sinc2[rows].astype(complex), self.values.size, axis=1)
            w[:, 0] = half[rows, 0]
            w[:, -1] = np.conj(half[rows, 0])
            phase = np.exp(1j * om[rows] * self.grid[None, :])
            out[rows] = (w * phase * self.values[None, :]).sum(axis=1)
        return out

    def first_moment(self):
        return float(np.trapezoid(self.grid * self.values, dx=self.dt))

    def second_moment(self):
        return float(np.trapezoid(self.grid**2 * self.values, dx=self.dt))

    def _tail_masses(self):
        seg = 0.5 * (self.values[1:] + self.values[:-1]) * self.dt
        return np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])

    def tail_mass(self, t):
        if t >= self.cutoff:
            return 0.0
        return float(np.interp(t, self.grid, self._tail_masses()))

    def tail_integral(self, b):
        if b >= self.cutoff:
            return 0.0
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
        run = np.maximum.accumulate(self.values[::-1])[::-1]
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.floor(t / self.dt).astype(int), 0, self.values.size - 1)
        out = np.where((t < 0) | (t >= self.cutoff), 0.0, run[idx])
        return out if t.ndim else float(out)

    def majorant_cutoff(self):
        return self.cutoff

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

    @property
    def is_multivariate(self) -> bool:
        return self._matrix.k > 1

    def kernel_matrix(self) -> KernelMatrix:
        """View the model as k >= 1 dimensional."""
        return self._matrix

    def branching_vector(self) -> np.ndarray:
        return self._matrix.branching_vector()

    def mean_rate_vector(self) -> np.ndarray:
        return self.baseline * self.branching_vector()

    def mean_rate(self) -> float:
        """Scalar mean rate; only defined for k = 1."""
        if self.is_multivariate:
            raise ConfigurationError("mean_rate() needs k = 1; use mean_rate_vector()")
        return float(self.mean_rate_vector()[0])


# --- functional facades matching the published operation names ---------------

def l1_norm(kernel: Kernel) -> float:
    return kernel.l1_norm()


def laplace_transform(kernel: Kernel, omega: float, method: str = "auto") -> float:
    return kernel.laplace(omega, method=method)


def fourier_transform(kernel: Kernel, omega):
    return kernel.fourier(omega)


# --- JSON schema --------------------------------------------------------------

def kernel_from_dict(data: dict):
    """Build a kernel (or matrix) from the JSON schema used by CLI configs."""
    if not isinstance(data, dict) or "type" not in data:
        raise ConfigurationError("kernel spec must be an object with a 'type' field")
    kind = data["type"]
    try:
        if kind == "sum_exp":
            terms = data.get("terms", [])
            return SumOfExponentialsKernel([t["alpha"] for t in terms],
                                           [t["beta"] for t in terms])
        if kind == "power_law":
            return PowerLawKernel(data["scale"], data["exponent"],
                                  data.get("amplitude", 1.0))
        if kind == "tabulated":
            return TabulatedKernel(data["dt"], data["values"])
        if kind == "matrix":
            entries = [[kernel_from_dict(cell) for cell in row]
                       for row in data["entries"]]
            return KernelMatrix(entries, data["p"])
    except KeyError as exc:
        raise ConfigurationError(f"kernel spec missing field {exc}") from exc
    raise ConfigurationError(f"unknown kernel type {kind!r}")


def kernel_from_json(text: str):
    return kernel_from_dict(json.loads(text))
