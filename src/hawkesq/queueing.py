"""Infinite-server queues fed by simulated arrival paths.

The queue length is an exact indicator sum: initial customers still in
service plus arrivals whose departure lies beyond the probe time.  Steady
state is drawn exactly on the cluster engine, from the clusters with a
customer present at 0, and read at spaced probes of long replications
started empty on the thinning engine.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._io import write_csv, write_json
from .errors import ConfigurationError, StabilityError
from .kernels import HawkesConfig
from .service import _normalize_services
from .simulate import (_ENGINES, _GENERATION_CAP, ARRIVAL_STREAM, SERVICE_STREAM, PointPath,
                       SimConfig, _cascade, _joined, _map_replications, _z, default_burn_in,
                       rep_stream, simulate_thinning)


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
    """Pooled steady-state queue-length draws with block or replication
    structure; burn_in and spacing are None for exact draws."""

    samples: np.ndarray        # (reps, per_rep, k)
    seed: int
    burn_in: float | None
    spacing: float | None

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
        # Blocks and replications are independent; spaced probes within one
        # replication are not.
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


def _queue_replication(sim: SimConfig, services, t_grid, r: int) -> np.ndarray:
    """Queue counts (per_rep, k) of thinning replication r at the sorted times
    t_grid, from empty arrivals and an empty queue at 0: the queue of
    `simulate_thinning(sim, r)`, served from replication r's service stream."""
    q = np.zeros((t_grid.size, len(services)), dtype=int)
    _add_customers(q, t_grid, simulate_thinning(sim, r).times, services,
                   rep_stream(sim.seed, r, SERVICE_STREAM))
    return q


# Proposals per chunk of a block of exact draws.  A chunk holds about 2.75
# arrivals per proposal on h2 (spine nodes and the customers of their
# cascades before 0), and every chunk repeats the short late steps of its
# spine walk and cascade.  On the `queue` benchmark (blocks of 200 draws, about
# 40,000 proposals), six alternating `perfbench/worker.py queue 5` passes with
# chunks of at most 15,000, 20,000 and 30,000 peaked at 36.9-37.0, 37.7-37.9
# and 37.4-38.1 MB (0.24.0: 38.1-39.7 MB), with median `wall_s` 0.75, 0.70 and
# 0.62 s (0.24.0: 1.24 s); one chunk per block (45,000) peaked at 40.3-40.6 MB.
_CHUNK_PROPOSALS = 30_000


def _stationary_block(config: HawkesConfig, services, per_rep: int, seed: int,
                      block: int) -> np.ndarray:
    """per_rep independent exact draws (per_rep, k) of the stationary queue at
    0, all from block's keyed stream.

    The class-i customers present at 0, each with its cluster, are Poisson
    with mean mu a_i E[S_i]; a draw proposes that many of each class, builds
    each proposal's cluster around its customer (`_kept_clusters`) and
    keeps a cluster of N present customers with probability 1/N.  The kept
    clusters are the clusters with a customer present at 0, each once, so
    their per-class counts add up to the queue.  The block's proposals,
    class by class and draw by draw within a class, are handled in
    near-equal chunks of at most _CHUNK_PROPOSALS, whatever per_rep and mu are.
    """
    rng = rep_stream(seed, block, ARRIVAL_STREAM)
    multi = config.kernel_matrix()
    offered = config.baseline * multi.branching_vector() * [F.mean() for F in services]
    # segment s of the proposals: class s // per_rep, draw s % per_rep
    ends = np.cumsum(rng.poisson(np.repeat(offered, per_rep)))
    chunks = max(1, -(-int(ends[-1]) // _CHUNK_PROPOSALS))
    edges = [int(ends[-1]) * c // chunks for c in range(chunks + 1)]
    q = np.zeros((per_rep, multi.k), dtype=np.int64)
    for lo, hi in zip(edges, edges[1:]):
        # each class's proposals in [lo, hi)
        cuts = np.clip(ends[per_rep - 1::per_rep], lo, hi)
        kept, present = _kept_clusters(multi, services, rng, np.diff(cuts, prepend=lo))
        np.add.at(q, np.searchsorted(ends, lo + kept, side="right") % per_rep, present)
    return q


def _kept_clusters(multi, services, rng, sizes) -> tuple:
    """Of n = sum(sizes) proposed clusters, the indices of the kept ones and
    their present customers per class (kept, k); proposals
    [sum(sizes[:i]), sum(sizes[:i+1])) are of class i.

    Each node of a proposal's spine (`_spines`) is the root of an ordinary
    cascade, pruned at 0, whose customers are present when their service
    outlasts 0; the proposed customer is present by construction.  A
    proposal with N present customers is kept with probability 1/N.
    """
    k, n = multi.k, int(np.sum(sizes))
    times, tags = _cascade(multi, rng, 0.0, *_spines(multi, services, rng, sizes))
    keys = []
    for i in range(k):
        # the first roots of class i are its proposed customers, present at 0
        arrivals, owners = _joined(times.pop(0)), _joined(tags.pop(0), int)
        departures = services[i].sample(rng, arrivals.size - sizes[i])
        departures += arrivals[sizes[i]:]
        keys.append(owners[:sizes[i]] * k + i)
        keys.append(owners[sizes[i]:][departures > 0.0] * k + i)
    present = np.bincount(np.concatenate(keys), minlength=n * k).reshape(n, k)
    kept = np.flatnonzero(rng.random(n) * present.sum(axis=1) < 1.0)
    return kept, present[kept]


def _spines(multi, services, rng, sizes) -> tuple:
    """Per class, the times of the spine nodes of the proposals and their
    proposal ids, the proposed customers first.

    A proposal is one class-i customer present at 0, of age U V with V from
    `sample_size_biased`.  Its ancestry is walked back to the immigrant: at
    class i the walk stops with probability p_i / a_i, and otherwise steps
    to a class-j parent with probability ||h_ij|| a_j / a_i, one h_ij offset
    earlier.
    """
    k = multi.k
    a = multi.branching_vector()
    # row i: the walk at class i stops below entry 0 and steps to parent class j
    # from entry j on (cumulative probabilities, the last, 1, left out)
    steps = np.cumsum(np.column_stack([multi.p / a, multi.l1_matrix() * a / a[:, None]]), axis=1)
    steps = steps[:, :k] / steps[:, k:]
    starts = np.cumsum(sizes) - sizes
    gen, ids = [], []
    for i in range(k):
        age = rng.random(sizes[i])
        age *= services[i].sample_size_biased(rng, sizes[i])
        gen.append(-age)
        ids.append(np.arange(starts[i], starts[i] + sizes[i]))
    nodes, node_ids = [[g] for g in gen], [[x] for x in ids]
    depth = 0
    while any(g.size for g in gen):
        depth += 1
        if depth > _GENERATION_CAP:
            raise StabilityError(f"spine walk exceeded {_GENERATION_CAP} generations")
        nxt, nxt_ids = [[] for _ in range(k)], [[] for _ in range(k)]
        for i in range(k):                      # class of the walkers
            parent = np.searchsorted(steps[i], rng.random(gen[i].size), side="right") - 1
            for j in range(k):                  # class of their parents
                up = np.flatnonzero(parent == j)
                if up.size == 0:
                    continue
                # offsets come one block per mixture component: pair them at random
                offsets = multi.entries[i][j].sample_offsets(rng, up.size)
                rng.shuffle(offsets)
                nxt[j].append(gen[i][up] - offsets)
                nxt_ids[j].append(ids[i][up])
        gen = [_joined(buf) for buf in nxt]
        ids = [_joined(buf, int) for buf in nxt_ids]
        for j in range(k):
            nodes[j].append(gen[j])
            node_ids[j].append(ids[j])
    return [_joined(buf) for buf in nodes], [_joined(buf, int) for buf in node_ids]


def steady_state_sample(config: HawkesConfig, service, n_samples: int, seed: int,
                        *, engine: str = "cluster", burn_in: float | None = None,
                        spacing: float | None = None) -> SteadyStateSample:
    """Draw pooled steady-state queue lengths.

    The cluster engine draws the stationary queue at 0 exactly, with no
    warm-up, in independent blocks (`_stationary_block`); the sample has no
    burn_in or spacing (both None).  The thinning engine reads spaced probes
    of long replications whose arrivals and empty queue start together at 0:
    the first probe, the burn-in, is the larger of `default_burn_in` and ten
    service means plus ten cluster decorrelation scales, and the probes are
    then spaced by five service means.  Both are overridable, with these
    floors enforced; the cluster engine only checks that they are finite
    and not negative.  The draws are split over
    min(400, max(25, ceil(n_samples / 200))) blocks or replications.

    Blocks and replications run across the usable CPUs, one working set per
    worker; each draws from its own keyed streams, so the samples are
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
    if engine not in _ENGINES:
        raise ConfigurationError(f"unknown engine {engine!r}")
    for name, value in (("burn-in", burn_in), ("spacing", spacing)):
        if value is None:
            continue
        if not math.isfinite(value):
            raise ConfigurationError(f"{name} must be finite")
        if value < 0:
            raise ConfigurationError(f"{name} must not be negative")
    reps = int(min(400, max(25, math.ceil(n_samples / 200))))
    samples_per_rep = math.ceil(n_samples / reps)
    reps = math.ceil(n_samples / samples_per_rep)
    if engine == "cluster":
        run = functools.partial(_stationary_block, config, services, samples_per_rep, seed)
        return SteadyStateSample(np.stack(_map_replications(run, reps)), seed, None, None)

    multi = config.kernel_matrix()
    corr_scale = multi.decay_scale() / (1.0 - multi.spectral_radius())
    min_burn = max(default_burn_in(config), 10.0 * means.max() + 10.0 * corr_scale)
    if burn_in is None:
        burn_in = min_burn
    elif burn_in < min_burn:
        raise ConfigurationError(f"burn-in {burn_in:g} below the floor {min_burn:g}")
    min_spacing = 5.0 * means.max()
    if spacing is None:
        spacing = min_spacing
    elif spacing < min_spacing:
        raise ConfigurationError(f"spacing {spacing:g} below the floor {min_spacing:g}")
    horizon = burn_in + spacing * (samples_per_rep - 1) + 1e-9
    t_grid = burn_in + spacing * np.arange(samples_per_rep)
    sim = SimConfig(config, horizon, seed, burn_in=0.0, engine=engine)
    run = functools.partial(_queue_replication, sim, services, t_grid)
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
