"""Service-time distributions with exact quantiles, samplers and survival integrals."""
from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from .errors import ConfigurationError, config_list, config_value

# Survival level at which integrals over service ages are truncated.
_SURVIVAL_FLOOR = 1e-12

_erfc = np.frompyfunc(math.erfc, 1, 1)


def _ndtr(x):
    """Standard normal CDF, 0.5 erfc(-x / sqrt 2), elementwise through libm's erfc;
    a float for a scalar."""
    out = 0.5 * np.asarray(_erfc(-np.asarray(x, dtype=float) * math.sqrt(0.5)), dtype=float)
    return out if out.ndim else float(out)


_inv_cdf = np.frompyfunc(NormalDist().inv_cdf, 1, 1)


def _ndtri(u):
    """Inverse of the standard normal CDF, elementwise through the standard
    library's NormalDist.inv_cdf: -inf at 0, inf at 1, NaN outside [0, 1] or at
    NaN; a float for a scalar."""
    u = np.asarray(u, dtype=float)
    inside = (u > 0.0) & (u < 1.0)
    x = np.asarray(_inv_cdf(np.where(inside, u, 0.5)), dtype=float)
    x = np.select([inside, u == 0.0, u == 1.0], [x, -np.inf, np.inf], np.nan)
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
        raise ConfigurationError(f"need one service law per class (k = {k})")
    return service


def service_from_dict(data: dict) -> ServiceModel:
    """Build a service law from the JSON schema of CLI configs, reading each
    parameter through `config_value`."""
    if not isinstance(data, dict) or "type" not in data:
        raise ConfigurationError("service spec must be an object with a 'type' field")
    kind = data["type"]
    try:
        if kind == "exponential":
            return ExponentialService(config_value("rate", data.get("rate", 1.0)))
        if kind == "deterministic":
            return DeterministicService(config_value("value", data["value"]))
        if kind == "lognormal":
            return LogNormalService(config_value("m", data["m"]), config_value("s", data["s"]))
        if kind == "tabulated_icdf":
            return TabulatedInverseCDFService(config_list("quantiles", data["quantiles"]))
    except KeyError as exc:
        raise ConfigurationError(f"service spec missing field {exc}") from exc
    raise ConfigurationError(f"unknown service type {kind!r}")
