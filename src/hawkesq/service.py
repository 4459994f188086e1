"""Service-time distributions with exact quantiles, samplers and survival integrals."""
from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError

# Survival level at which integrals over service ages are truncated.
_SURVIVAL_FLOOR = 1e-12

_erfc = np.frompyfunc(math.erfc, 1, 1)


def _ndtr(x):
    """Standard normal CDF, 0.5 erfc(-x / sqrt 2), elementwise through libm's erfc;
    a float for a scalar."""
    out = 0.5 * np.asarray(_erfc(-np.asarray(x, dtype=float) * math.sqrt(0.5)), dtype=float)
    return out if out.ndim else float(out)


# Wichura's AS241 (Applied Statistics 37, 1988), as in CPython's statistics module:
# rational approximations in q = u - 1/2 for |q| <= 0.425, and beyond it in
# r = sqrt(-log(min(u, 1 - u))) for r <= 5 and r > 5.  Highest power first.
_AS241 = (
    ((2.50908_09287_30122_6727e+3, 3.34305_75583_58812_8105e+4, 6.72657_70927_00870_0853e+4,
      4.59219_53931_54987_1457e+4, 1.37316_93765_50946_1125e+4, 1.97159_09503_06551_4427e+3,
      1.33141_66789_17843_7745e+2, 3.38713_28727_96366_6080e+0),
     (5.22649_52788_52854_5610e+3, 2.87290_85735_72194_2674e+4, 3.93078_95800_09271_0610e+4,
      2.12137_94301_58659_5867e+4, 5.39419_60214_24751_1077e+3, 6.87187_00749_20579_0830e+2,
      4.23133_30701_60091_1252e+1, 1.0)),
    ((7.74545_01427_83414_07640e-4, 2.27238_44989_26918_45833e-2, 2.41780_72517_74506_11770e-1,
      1.27045_82524_52368_38258e+0, 3.64784_83247_63204_60504e+0, 5.76949_72214_60691_40550e+0,
      4.63033_78461_56545_29590e+0, 1.42343_71107_49683_57734e+0),
     (1.05075_00716_44416_84324e-9, 5.47593_80849_95344_94600e-4, 1.51986_66563_61645_71966e-2,
      1.48103_97642_74800_74590e-1, 6.89767_33498_51000_04550e-1, 1.67638_48301_83803_84940e+0,
      2.05319_16266_37758_82187e+0, 1.0)),
    ((2.01033_43992_92288_13265e-7, 2.71155_55687_43487_57815e-5, 1.24266_09473_88078_43860e-3,
      2.65321_89526_57612_30930e-2, 2.96560_57182_85048_91230e-1, 1.78482_65399_17291_33580e+0,
      5.46378_49111_64114_36990e+0, 6.65790_46435_01103_77720e+0),
     (2.04426_31033_89939_78564e-15, 1.42151_17583_16445_88870e-7, 1.84631_83175_10054_68180e-5,
      7.86869_13114_56132_59100e-4, 1.48753_61290_85061_48525e-2, 1.36929_88092_27358_05310e-1,
      5.99832_20655_58879_37690e-1, 1.0)),
)


def _polynomials(coefficients, r):
    """Numerator and denominator of one AS241 region at r, by Horner's rule."""
    num, den = coefficients
    p, q = num[0], den[0]
    for a, b in zip(num[1:], den[1:]):
        p, q = p * r + a, q * r + b
    return p, q


def _ndtri(u):
    """Inverse of the standard normal CDF by AS241: -inf at 0, inf at 1, NaN
    outside [0, 1]; a float for a scalar."""
    u = np.asarray(u, dtype=float)
    q = u - 0.5
    central, near, far = _AS241
    # every region is evaluated everywhere and selected below; the tails take
    # log(0) at the edges and log of a negative number outside [0, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        num, den = _polynomials(central, 0.180625 - q * q)
        inner = num * q / den
        r = np.sqrt(-np.log(np.where(q <= 0.0, u, 1.0 - u)))
        num, den = np.where(r <= 5.0, _polynomials(near, r - 1.6), _polynomials(far, r - 5.0))
        tail = num / den
    x = np.select([u == 0.0, u == 1.0, np.abs(q) <= 0.425], [-np.inf, np.inf, inner],
                  np.copysign(tail, q))
    return x if x.ndim else float(x)


class ServiceModel:
    """A nonnegative service-time distribution with F(0) = 0."""

    def cdf(self, x):
        """F at scalar or array x, a float for a scalar; a law supplies `_cdf`."""
        x = np.asarray(x, dtype=float)
        out = self._cdf(x)
        return out if x.ndim else float(out)

    def _cdf(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def survival(self, x):
        """S = 1 - F at scalar or array x, a float for a scalar; a law whose
        tail 1 - F would lose relative precision supplies `_survival`."""
        x = np.asarray(x, dtype=float)
        out = self._survival(x)
        return out if x.ndim else float(out)

    def _survival(self, x: np.ndarray) -> np.ndarray:
        return 1.0 - self._cdf(x)

    def survival_integral(self, x):
        """I(x) = int_0^x S = E[min(S, x)] at scalar or array x, 0 for x <= 0, a
        float for a scalar; a law supplies `_survival_integral` at x >= 0."""
        x = np.asarray(x, dtype=float)
        out = self._survival_integral(np.maximum(x, 0.0))
        return out if x.ndim else float(out)

    def _survival_integral(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def inverse_cdf(self, u):
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def survival_cutoff(self) -> float:
        """Smallest x with survival(x) <= _SURVIVAL_FLOOR; truncation point for integrals."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n draws; by default one uniform per customer through the inverse CDF."""
        return self.inverse_cdf(rng.random(n))

    def to_dict(self) -> dict:
        raise NotImplementedError


class ExponentialService(ServiceModel):
    def __init__(self, rate: float = 1.0):
        if not (rate > 0 and math.isfinite(rate)):
            raise ConfigurationError("rate must be positive and finite")
        self.rate = float(rate)

    def __repr__(self):
        return f"ExponentialService(rate={self.rate:g})"

    def _cdf(self, x):
        return np.where(x > 0, -np.expm1(-self.rate * np.maximum(x, 0.0)), 0.0)

    def _survival(self, x):
        return np.exp(-self.rate * np.maximum(x, 0.0))

    def _survival_integral(self, x):
        return -np.expm1(-self.rate * x) / self.rate

    def inverse_cdf(self, u):
        x = self._quantile_in_place(np.array(u, dtype=float))
        return x if x.ndim else x[()]

    def _quantile_in_place(self, x):
        """-log1p(-u) / rate, overwriting the float array u."""
        np.negative(x, out=x)
        np.log1p(x, out=x)
        x /= -self.rate
        return x

    def sample(self, rng, n):
        """inverse_cdf of n uniforms, computed in the uniforms' own array."""
        return self._quantile_in_place(rng.random(n))

    def mean(self):
        return 1.0 / self.rate

    def survival_cutoff(self):
        return -math.log(_SURVIVAL_FLOOR) / self.rate

    def to_dict(self):
        return {"type": "exponential", "rate": self.rate}


class DeterministicService(ServiceModel):
    def __init__(self, value: float):
        # inf is allowed: it is count_limit_model's service, which never ends
        if not value > 0:
            raise ConfigurationError("deterministic service time must be positive (F(0) = 0)")
        self.value = float(value)

    def __repr__(self):
        return f"DeterministicService({self.value:g})"

    def _cdf(self, x):
        return np.where(x >= self.value, 1.0, 0.0)

    def _survival_integral(self, x):
        return np.minimum(x, self.value)

    def inverse_cdf(self, u):
        u = np.asarray(u, dtype=float)
        out = np.full(u.shape, self.value)
        return out if u.ndim else self.value

    def mean(self):
        return self.value

    def survival_cutoff(self):
        return self.value

    def to_dict(self):
        return {"type": "deterministic", "value": self.value}


class LogNormalService(ServiceModel):
    """exp(N(m, s^2)) service times."""

    def __init__(self, m: float, s: float):
        if not math.isfinite(m):
            raise ConfigurationError("location parameter m must be finite")
        if not (s > 0 and math.isfinite(s)):
            raise ConfigurationError("shape parameter s must be positive and finite")
        self.m = float(m)
        self.s = float(s)

    def __repr__(self):
        return f"LogNormalService(m={self.m:g}, s={self.s:g})"

    def _z(self, x):
        return (np.log(np.maximum(x, 1e-300)) - self.m) / self.s

    def _cdf(self, x):
        return np.where(x > 0, _ndtr(self._z(x)), 0.0)

    def _survival(self, x):
        return np.where(x > 0, _ndtr(-self._z(x)), 1.0)

    def _survival_integral(self, x):
        # E[S; S < x] + x P(S >= x), where E[S; S < x] = E[S] ndtr(z - s);
        # x P(S >= x) -> 0 as x -> inf, where the product would be inf * 0
        with np.errstate(divide="ignore"):
            z = (np.log(x) - self.m) / self.s
        return self.mean() * _ndtr(z - self.s) + np.where(x < np.inf, x, 0.0) * _ndtr(-z)

    def inverse_cdf(self, u):
        return np.exp(self.m + self.s * _ndtri(u))

    def sample(self, rng, n):
        """exp(m + s Z), one standard normal Z per customer."""
        x = rng.standard_normal(n)
        x *= self.s
        x += self.m
        return np.exp(x, out=x)

    def mean(self):
        return math.exp(self.m + 0.5 * self.s**2)

    def survival_cutoff(self):
        return math.exp(self.m + self.s * _ndtri(1.0 - _SURVIVAL_FLOOR))

    def to_dict(self):
        return {"type": "lognormal", "m": self.m, "s": self.s}


class TabulatedInverseCDFService(ServiceModel):
    """Quantile function tabulated on a uniform probability grid over [0, 1].

    quantiles[0] must be 0 (so F(0) = 0) and the table strictly increasing
    after that; sampling interpolates the table linearly.
    """

    def __init__(self, quantiles):
        q = np.asarray(quantiles, dtype=float)
        if q.ndim != 1 or q.size < 2:
            raise ConfigurationError("need at least two quantile values")
        if q[0] != 0.0:
            raise ConfigurationError("quantiles[0] must be 0 so that F(0) = 0")
        if not np.all(np.isfinite(q)):
            raise ConfigurationError("quantile table must be finite")
        if np.any(np.diff(q) <= 0):
            raise ConfigurationError("quantile table must be strictly increasing")
        self.quantiles = q
        self.u_grid = np.linspace(0.0, 1.0, q.size)

    def __repr__(self):
        return f"TabulatedInverseCDFService(n={self.quantiles.size}, max={self.quantiles[-1]:g})"

    def _cdf(self, x):
        return np.interp(x, self.quantiles, self.u_grid, left=0.0, right=1.0)

    def _survival_integral(self, x):
        # S is linear on each cell [q_c, q_c+1], so I is quadratic there
        q, S = self.quantiles, 1.0 - self.u_grid
        nodes = np.concatenate([[0.0], np.cumsum(0.5 * (S[1:] + S[:-1]) * np.diff(q))])
        c = np.clip(np.searchsorted(q, x, side="right") - 1, 0, q.size - 2)
        width = q[c + 1] - q[c]
        d = np.minimum(x - q[c], width)
        return nodes[c] + d * (S[c] - 0.5 * d * (S[c] - S[c + 1]) / width)

    def inverse_cdf(self, u):
        return np.interp(np.asarray(u, dtype=float), self.u_grid, self.quantiles)

    def mean(self):
        return float(np.trapezoid(self.quantiles, self.u_grid))

    def survival_cutoff(self):
        return float(self.quantiles[-1])

    def to_dict(self):
        return {"type": "tabulated_icdf", "quantiles": self.quantiles.tolist()}


def _normalize_services(service, k) -> list[ServiceModel]:
    """One service law per class; a single law serves all k classes."""
    if isinstance(service, ServiceModel):
        return [service] * k
    service = list(service)
    if len(service) != k:
        raise ConfigurationError(f"need one service model per class (k = {k})")
    return service


def service_from_dict(data: dict) -> ServiceModel:
    if not isinstance(data, dict) or "type" not in data:
        raise ConfigurationError("service spec must be an object with a 'type' field")
    kind = data["type"]
    try:
        if kind == "exponential":
            return ExponentialService(data.get("rate", 1.0))
        if kind == "deterministic":
            return DeterministicService(data["value"])
        if kind == "lognormal":
            return LogNormalService(data["m"], data["s"])
        if kind == "tabulated_icdf":
            return TabulatedInverseCDFService(data["quantiles"])
    except KeyError as exc:
        raise ConfigurationError(f"service spec missing field {exc}") from exc
    raise ConfigurationError(f"unknown service type {kind!r}")
