"""Infinite-server queues fed by simulated arrival paths.

The queue length is an exact indicator sum: initial customers still in
service plus arrivals whose departure lies beyond the probe time.  Steady
state is sampled by spaced reads within long replications after a burn-in.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._io import write_csv, write_json
from .errors import ConfigurationError
from .kernels import HawkesConfig
from .service import _normalize_services
from .simulate import (_ENGINES, ARRIVAL_STREAM, INITIAL_STREAM, SERVICE_STREAM, PointPath,
                       SimConfig, _cluster_cascade, _map_replications, _z, rep_stream)


@dataclass
class QueueTrajectory:
    """Queue-length samples per class at the probe times."""

    times: np.ndarray
    q: np.ndarray              # (nt, k) integer counts

    def __post_init__(self):
        if np.any(self.q < 0):
            raise ConfigurationError("queue lengths must be nonnegative")


def simulate_queue(arrivals: PointPath, service, q_init, t_grid,
                   rng: np.random.Generator, initial_service=None) -> QueueTrajectory:
    """Evaluate Q(t) exactly at each grid time from one arrival path.

    q_init holds the initial customer counts per class; their remaining
    service comes from initial_service (defaults to the arrival service
    distribution).  The rng drives only service sampling, independent of
    the arrival path.  A customer is in the queue at t when its arrival
    (0 for an initial customer) is at or before t and its departure after t.
    """
    k = arrivals.dimension
    services = _normalize_services(service, k)
    init_services = services if initial_service is None \
        else _normalize_services(initial_service, k)
    q_init = np.atleast_1d(np.asarray(q_init, dtype=int))
    if q_init.shape != (k,) or np.any(q_init < 0):
        raise ConfigurationError("q_init must be one nonnegative count per class")
    t_grid = arrivals._probe_times(t_grid)
    order = np.argsort(t_grid, axis=None, kind="stable")
    counts = np.zeros((t_grid.size, k), dtype=int)
    _add_customers(counts, t_grid.ravel()[order], arrivals.times, services, rng,
                   init_services, q_init)
    q = np.empty_like(counts)
    q[order] = counts
    return QueueTrajectory(t_grid, q)


def _add_customers(q, probes, times, services, rng, init_services=None, q_init=None):
    """Add to q, shape (len(probes), k) at the sorted probe times, each class's
    customers arriving at its sorted `times`, their service drawn from rng;
    with q_init, class d's initial customers first, served by init_services[d]."""
    for d, taus in enumerate(times):
        if q_init is not None:
            remaining = init_services[d].sample(rng, int(q_init[d]))
            q[:, d] += _in_service(probes, np.zeros(remaining.size), remaining)
        departures = services[d].sample(rng, taus.size)
        departures += taus
        q[:, d] += _in_service(probes, taus, departures)


def _in_service(probes, starts, ends) -> np.ndarray:
    """#{i : starts_i <= t < ends_i} at each of the sorted probe times t.

    starts must be sorted and ends >= starts.  Only the probes in
    [starts_0, max ends) can count a customer, so only they are visited: a
    block of arrivals costs the probes it spans.  One search of the probes
    in starts splits the customers by their first probe at or after their
    start.  A customer that has left by that probe is never counted, so only
    the customers still present there have their end located among the
    probes.  No temporary is as long as the customer arrays.
    """
    counts = np.zeros(probes.size, dtype=np.int64)
    if starts.size == 0:
        return counts
    first, stop = np.searchsorted(probes, [starts[0], ends.max()], side="left").tolist()
    probes = probes[first:stop]
    probes_list = probes.tolist()
    bounds = np.searchsorted(starts, probes, side="right").tolist()
    entered = np.zeros(len(probes_list) + 1, dtype=np.int64)
    present = [np.empty(0)]
    for m, (t, lo, hi) in enumerate(zip(probes_list, [0] + bounds, bounds)):
        if lo == hi:
            continue
        stay = ends[lo:hi]
        stay = stay[stay > t]
        entered[m] = stay.size
        present.append(stay)
    left = np.bincount(np.searchsorted(probes, np.concatenate(present), side="left"),
                       minlength=entered.size)
    counts[first:stop] = np.cumsum(entered - left)[:-1]
    return counts


@dataclass
class SteadyStateSample:
    """Pooled steady-state queue-length draws with replication structure."""

    samples: np.ndarray        # (reps, per_rep, k)
    seed: int
    burn_in: float
    spacing: float

    @property
    def k(self) -> int:
        return self.samples.shape[2]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0] * self.samples.shape[1]

    def pooled(self, dim: int = 0) -> np.ndarray:
        return self.samples[:, :, dim].ravel()

    def mean(self) -> np.ndarray:
        return self.samples.mean(axis=(0, 1))

    def cov(self) -> np.ndarray:
        flat = self.samples.reshape(-1, self.k).astype(float)
        return np.cov(flat.T).reshape(self.k, self.k)

    def var(self) -> np.ndarray:
        return np.diag(self.cov())

    def se_mean(self) -> np.ndarray:
        # Replications are independent; spaced samples within one are not.
        rep_means = self.samples.mean(axis=1)
        return rep_means.std(axis=0, ddof=1) / math.sqrt(self.samples.shape[0])

    def se_cov(self) -> np.ndarray:
        """Replication jackknife SE of cov(): leaving replication r out leaves
        the total centred sums minus r's own, so no covariance is recomputed."""
        reps, per_rep = self.samples.shape[:2]
        centered = self.samples - self.mean()
        sums = centered.sum(axis=1)                                      # (reps, k)
        cross = np.einsum("rpi,rpj->rij", centered, centered)            # (reps, k, k)
        rest, n = sums.sum(axis=0) - sums, (reps - 1) * per_rep
        loo = (cross.sum(axis=0) - cross - rest[:, :, None] * rest[:, None, :] / n) / (n - 1)
        return np.sqrt((reps - 1) / reps * ((loo - loo.mean(axis=0)) ** 2).sum(axis=0))

    def se_var(self) -> np.ndarray:
        return np.diag(self.se_cov())


# Immigrants per block of a cluster replication.  Clusters are independent,
# so a replication is generated and counted one block of root times at a time,
# and a worker holds one block's events and departures instead of the whole
# replication's.  Each block repeats the short late generations of its
# cascade, so smaller blocks cost time: on the `queue` benchmark (h2, mu = 100)
# blocks of 2^15 immigrants took 4-6% longer per replication than one block,
# while 3 * 2^14 and 2^16 were within noise.  Of those two, 3 * 2^14 keeps the
# worker's peak at 37 MB, the floor that smaller blocks also reach (2^16: 40.5
# MB; one block: 49-53 MB).
_BLOCK_IMMIGRANTS = 3 << 14


def _queue_replication(sim: SimConfig, services, offered, t_grid, r: int) -> np.ndarray:
    """Queue counts (per_rep, k) of replication r at the sorted times t_grid,
    started from Poisson(offered).

    The cluster engine walks (-B, T] in n = ceil(expected immigrants /
    _BLOCK_IMMIGRANTS) equal blocks of root times, all drawn from the one
    arrival stream, and counts each block's customers before the next block
    is drawn, their departures drawn in block order from the one service
    stream.  With n = 1 that is `simulate_queue(simulate_cluster(sim, r), ...)`
    draw for draw.  Thinning reads its whole history, so its path is one part.
    """
    q0 = rep_stream(sim.seed, r, INITIAL_STREAM).poisson(offered)
    svc_rng = rep_stream(sim.seed, r, SERVICE_STREAM)
    if sim.engine != "cluster":
        return simulate_queue(_ENGINES[sim.engine](sim, r), services, q0, t_grid, svc_rng).q
    rng = rep_stream(sim.seed, r, ARRIVAL_STREAM)
    T, B = sim.horizon, sim.burn_in
    immigrants = sim.config.baseline * sim.config.kernel_matrix().p.sum() * (T + B)
    blocks = max(1, math.ceil(immigrants / _BLOCK_IMMIGRANTS))
    edges = np.linspace(-B, T, blocks + 1).tolist()
    q = np.zeros((t_grid.size, len(services)), dtype=int)
    for b in range(blocks):
        times = _cluster_cascade(sim, rng, edges[b], edges[b + 1])
        _add_customers(q, t_grid, times, services, svc_rng, services, q0 if b == 0 else None)
    return q


def steady_state_sample(config: HawkesConfig, service, n_samples: int, seed: int,
                        *, engine: str = "cluster", burn_in: float | None = None,
                        spacing: float | None = None) -> SteadyStateSample:
    """Draw pooled steady-state queue lengths at well-separated times.

    Sampling starts after a burn-in of ten service means plus ten cluster
    decorrelation scales and proceeds with spacing of five service means
    (both overridable, with a floor enforced).  The draws are split over
    min(400, max(25, ceil(n_samples / 200))) replications.  Initial counts
    are Poisson at the offered load so the transient starts near the fluid
    state.

    Replications run across the usable CPUs, one replication's working set
    per worker; each draws from its own keyed streams, so the samples are
    bitwise the same for any worker count (see `simulate._map_replications`).
    """
    if n_samples < 3:
        # with two, the jackknife leaves one draw, which has no sample covariance
        raise ConfigurationError("need at least three samples")
    k = config.dimension
    services = _normalize_services(service, k)
    means = np.array([s.mean() for s in services])
    if np.any(~np.isfinite(means)) or np.any(means <= 0):
        raise ConfigurationError("steady-state sampling needs finite positive service means")
    multi = config.kernel_matrix()
    corr_scale = multi.decay_scale() / (1.0 - multi.spectral_radius())
    min_burn = 10.0 * means.max() + 10.0 * corr_scale
    if burn_in is None:
        burn_in = min_burn
    elif not math.isfinite(burn_in):
        raise ConfigurationError("burn-in must be finite")
    elif burn_in < min_burn:
        raise ConfigurationError(
            f"burn-in {burn_in:g} below the decorrelation floor {min_burn:g}")
    min_spacing = 5.0 * means.max()
    if spacing is None:
        spacing = min_spacing
    elif not math.isfinite(spacing):
        raise ConfigurationError("spacing must be finite")
    elif spacing < min_spacing:
        raise ConfigurationError(f"spacing {spacing:g} below the floor {min_spacing:g}")
    reps = int(min(400, max(25, math.ceil(n_samples / 200))))
    samples_per_rep = math.ceil(n_samples / reps)
    reps = math.ceil(n_samples / samples_per_rep)

    horizon = burn_in + spacing * (samples_per_rep - 1) + 1e-9
    t_grid = burn_in + spacing * np.arange(samples_per_rep)
    rates = config.mean_rate_vector()
    offered = rates * means
    sim = SimConfig(config, horizon, seed, engine=engine)
    run = functools.partial(_queue_replication, sim, services, offered, t_grid)
    return SteadyStateSample(np.stack(_map_replications(run, reps)), seed, burn_in, spacing)


@dataclass
class ComparisonReport:
    """Distance summaries between an empirical pmf and a Gaussian pmf."""

    tv_distance: float
    max_abs_gap: float
    mean_gap: float
    var_gap: float
    support: np.ndarray
    empirical: np.ndarray
    gaussian: np.ndarray
    n_samples: int

    def to_dict(self):
        return {"tv_distance": self.tv_distance, "max_abs_gap": self.max_abs_gap,
                "mean_gap": self.mean_gap, "var_gap": self.var_gap,
                "n_samples": self.n_samples}

    def write_csv(self, path):
        write_csv(path, ["q", "empirical_pmf", "gaussian_pmf"],
                  zip(self.support, self.empirical, self.gaussian))


def compare_distributions(samples, approx) -> ComparisonReport:
    """Total-variation and moment gaps between pooled integer samples and a
    Gaussian pmf evaluator (anything exposing .mean, .sigma, .pmf)."""
    samples = np.asarray(samples)
    if samples.size == 0:
        raise ConfigurationError("empty sample set")
    lo = min(int(samples.min()), int(math.floor(approx.mean - 10.0 * approx.sigma)))
    hi = max(int(samples.max()), int(math.ceil(approx.mean + 10.0 * approx.sigma)))
    lo = max(lo, 0)
    support = np.arange(lo, hi + 1)
    emp = np.bincount(samples.astype(int) - lo, minlength=support.size) / samples.size
    gauss = approx.pmf(support)
    tv = 0.5 * float(np.abs(emp - gauss).sum())
    return ComparisonReport(
        tv_distance=tv,
        max_abs_gap=float(np.abs(emp - gauss).max()),
        mean_gap=float(samples.mean() - approx.mean),
        var_gap=float(samples.var(ddof=1) - approx.sigma**2),
        support=support, empirical=emp, gaussian=gauss, n_samples=samples.size)


def tv_jackknife(sample: SteadyStateSample, report: ComparisonReport) -> float:
    """TV between the law of the sampled queue and the target pmf of report
    (made from sample.pooled(0)), bias-corrected by the replication jackknife.

    The plug-in TV of an empirical pmf lies above the TV of its law by a
    sampling bias of order sqrt(support / n).  R T - (R - 1) mean_r T_(-r),
    with T_(-r) the plug-in TV without replication r, removes most of it;
    leaving out whole replications keeps their inner correlation.
    """
    counts = np.stack([np.bincount(rep - report.support[0], minlength=report.support.size)
                       for rep in sample.samples[:, :, 0]])
    total = counts.sum(axis=0)
    loo = (total - counts) / (total.sum() - counts.sum(axis=1))[:, None]
    tv_loo = 0.5 * np.abs(loo - report.gaussian).sum(axis=1)
    reps = counts.shape[0]
    return float(reps * report.tv_distance - (reps - 1) * tv_loo.mean())


def queue_verdict(sample: SteadyStateSample, report: ComparisonReport, approx, *,
                  var_rel_threshold: float = 0.05, tv_threshold: float = 0.05) -> dict:
    """The gates of validate-queue: the mean within 3 replication standard
    errors of the target (z by `simulate._z`), and the relative variance gap
    and the jackknife TV (`tv_jackknife`) each below its tolerance."""
    mean_z = float(abs(_z(report.mean_gap, sample.se_mean()[0])))
    var_rel = float(abs(report.var_gap) / approx.sigma**2)
    tv = tv_jackknife(sample, report)
    ok = mean_z < 3.0 and var_rel < var_rel_threshold and tv < tv_threshold
    return {"mean_z": mean_z, "var_rel_gap": var_rel, "tv_distance": report.tv_distance,
            "tv_jackknife": tv, "pass": bool(ok)}


def summary_json(sample: SteadyStateSample, report: ComparisonReport, path):
    payload = {"mean": sample.mean().tolist(), "var": sample.var().tolist(),
               "se_mean": sample.se_mean().tolist(), "se_var": sample.se_var().tolist(),
               "n_samples": sample.n_samples, "seed": sample.seed,
               "burn_in": sample.burn_in, "spacing": sample.spacing, **report.to_dict()}
    write_json(path, payload)
