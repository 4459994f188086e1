"""Sample-path generation by cluster construction and by dominated thinning.

Both engines target the stationary version: ancestry older than the burn-in
window is dropped, with the default burn-in set by the leak bound of
`default_burn_in`.
"""
from __future__ import annotations

import ctypes
import functools
import math
import multiprocessing
import os
import warnings
from dataclasses import dataclass

import numpy as np

from ._io import write_csv
from .errors import ConfigurationError, NumericalError, StabilityError
from .kernels import HawkesConfig

_GENERATION_CAP = 100_000
_LEAK_TOL = 1e-3

# Stream roles within one replication.
ARRIVAL_STREAM = 0
SERVICE_STREAM = 1


def rep_stream(seed: int, replication: int, role: int = ARRIVAL_STREAM) -> np.random.Generator:
    """Keyed stream for (master seed, replication, role).

    SFC64 seeded from SeedSequence(seed, spawn_key=(replication, role)): the
    spawn key makes the streams of different keys independent, and each
    depends on its key alone, so results are bitwise reproducible whatever
    the order, process or worker count that runs the replications.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(replication), int(role)))
    return np.random.Generator(np.random.SFC64(ss))


# glibc mallopt parameters (malloc.h) and the values the pool workers set
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_WORKER_MMAP_THRESHOLD = 32 << 20   # glibc's ceiling for its dynamic threshold on 64-bit
_WORKER_TRIM_THRESHOLD = 64 << 20


def _keep_freed_heap() -> None:
    """Pool initializer: serve every array below 32 MiB from the heap and keep
    up to 64 MiB of freed heap instead of returning it to the OS.

    A no-op where the C library has no mallopt (musl, macOS).  No exception
    may leave it: the pool would respawn the worker forever.
    """
    try:
        libc = ctypes.CDLL(None)
        if hasattr(libc, "mallopt"):
            libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
            libc.mallopt.restype = ctypes.c_int
            libc.mallopt(_M_MMAP_THRESHOLD, _WORKER_MMAP_THRESHOLD)
            libc.mallopt(_M_TRIM_THRESHOLD, _WORKER_TRIM_THRESHOLD)
    except Exception:       # the tuning only saves time; the worker runs without it
        pass


def _map_replications(fn, reps: int) -> list:
    """[fn(r) for r in range(reps)], on a fork pool with one worker per usable CPU.

    fn must draw only from the keyed streams of replication r, so the list is
    the same for any worker count, and it must pickle: it travels with each
    chunk of indices.  fn runs inline when one worker would run, when the
    platform cannot fork, and in a daemonic process (a pool worker may not
    start a pool).  An exception in a worker reaches the caller with its own
    type.

    Each replication allocates and frees a working set of arrays (about a
    MB each for one block of a queue replication).  Under glibc's defaults
    the larger ones are fresh mmaps, or heap that is trimmed back to the OS
    on free, so their pages are faulted in again: on the `queue` benchmark
    the workers took about 84,000 minor faults instead of 17,000, and the
    pass about 5% more CPU time.  The workers therefore start with
    `_keep_freed_heap` and reuse their freed heap from one replication to
    the next, holding at most 64 MiB of it free.  The workers exit with the
    pool, so the memory goes back then.
    The inline path leaves the allocator alone: the process is the caller's,
    and a library does not retune its allocator.  Only the allocator
    changes, so results are bitwise the same.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    workers = min(reps, cpus)
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods() \
            or multiprocessing.current_process().daemon:
        return [fn(r) for r in range(reps)]
    with multiprocessing.get_context("fork").Pool(workers, _keep_freed_heap) as pool:
        return pool.map(fn, range(reps), math.ceil(reps / (4 * workers)))


@dataclass(frozen=True)
class PointPath:
    """One realized event-time sequence on (0, T], one array per dimension."""

    times: tuple
    horizon: float
    replication: int = 0

    def __post_init__(self):
        if not 0 < self.horizon < math.inf:
            raise ConfigurationError("horizon must be positive and finite")
        for seq in self.times:
            # a NaN at either end fails the first test, one inside the second
            if seq.size and not (seq[0] > 0 and seq[-1] <= self.horizon + 1e-12):
                raise ConfigurationError("event times must lie in (0, horizon]")
            if not np.all(seq[1:] >= seq[:-1]):
                raise ConfigurationError("event times must be sorted")

    @property
    def dimension(self) -> int:
        return len(self.times)

    def _probe_times(self, t_grid) -> np.ndarray:
        """t_grid as a float array, refused unless every time lies in [0, horizon]."""
        t_grid = np.asarray(t_grid, dtype=float)
        if np.any(np.isnan(t_grid)):
            raise ConfigurationError("probe times must not be NaN")
        if np.any(t_grid < 0) or np.any(t_grid > self.horizon + 1e-12):
            raise ConfigurationError("probe times outside [0, horizon]")
        return t_grid

    def counts_at(self, t_grid) -> np.ndarray:
        """Counts N_i(t) for each grid time; shape (len(t_grid), k)."""
        t_grid = self._probe_times(t_grid)
        return np.column_stack([np.searchsorted(seq, t_grid, side="right")
                                for seq in self.times])


@dataclass
class SimConfig:
    """Everything one replication needs: model, window, seed, engine."""

    config: HawkesConfig
    horizon: float
    seed: int
    burn_in: float | None = None
    engine: str = "cluster"
    replications: int = 1

    def __post_init__(self):
        if not 0 < self.horizon < math.inf:
            raise ConfigurationError("horizon must be positive and finite")
        if self.engine not in _ENGINES:
            raise ConfigurationError(f"unknown engine {self.engine!r}")
        if self.replications < 1:
            raise ConfigurationError("need at least one replication")
        if self.seed < 0:
            raise ConfigurationError("seed must be nonnegative")
        if self.burn_in is None:
            self.burn_in = default_burn_in(self.config)
        elif not 0 <= self.burn_in < math.inf:
            raise ConfigurationError("burn-in must be nonnegative and finite")


def default_burn_in(config: HawkesConfig) -> float:
    """Smallest burn-in B with leak bound sum_ij rate_j progeny_i int_B^inf H_ij
    below _LEAK_TOL = 1e-3.

    rate = mu a are the stationary rates, H_ij the tail mass of h_ij and
    progeny = (I - ||H||^T)^{-1} 1 the expected family sizes.  rate_j
    int_B^inf H_ij is the expected number of type-i points after 0 whose
    type-j parent lies before -B; with their families, all dropped by the
    engines, they are what the bound counts.  Dropped chains that pass
    through a point in (-B, 0] are not counted.  For one kernel it reads
    mu int_B^inf H / (1-||h||)^2, so for h = alpha e^{-beta t}
    B = log(mu alpha / ((1-||h||)^2 beta^2 _LEAK_TOL)) / beta.
    """
    multi = config.kernel_matrix()
    k = multi.k
    rates = config.mean_rate_vector()
    progeny = np.linalg.solve(np.eye(k) - multi.l1_matrix().T, np.ones(k))

    def leak(b):
        return float(sum(rates[j] * progeny[i] * multi.entries[i][j].tail_integral(b)
                         for i in range(k) for j in range(k)))

    if leak(0.0) <= _LEAK_TOL:
        return 0.0
    lo, hi = 0.0, 1.0
    while leak(hi) > _LEAK_TOL:
        hi *= 2.0
        if hi > 1e7:
            raise ConfigurationError(
                "burn-in bias bound unattainable (heavy kernel tail); set burn_in explicitly")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if leak(mid) > _LEAK_TOL:
            lo = mid
        else:
            hi = mid
    return hi


def simulate_cluster(sim: SimConfig, replication: int = 0) -> PointPath:
    """Immigration-birth construction, vectorized one generation at a time.

    Immigrants arrive Poisson on (-B, T]; a parent of type j spawns type-i
    children as an inhomogeneous Poisson cascade with intensity h_ij, i.e.
    Poisson(||h_ij||) children placed with density h_ij/||h_ij||.  One
    generation of n type-j parents draws its type-i children as a single
    Poisson(n ||h_ij||) total, each child given a uniformly chosen parent;
    this multinomial split has the law of n independent litters.  Uniform
    parent indices also pair offsets with parents at random, as
    Kernel.sample_offsets requires.  Every point at or before T is kept, and
    each class is sorted once and returned from its first positive time on.
    """
    rng = rep_stream(sim.seed, replication, ARRIVAL_STREAM)
    times = _cluster_cascade(sim, rng, -sim.burn_in, sim.horizon)
    return PointPath(tuple(times), sim.horizon, replication)


def _cluster_cascade(sim: SimConfig, rng, lo: float, hi: float) -> list:
    """Each class's sorted times in (0, T] of the clusters whose immigrants
    arrive in (lo, hi], drawn from rng as `simulate_cluster` describes.
    Clusters are independent, so the cascades of disjoint root intervals,
    drawn one after another, superpose to the process on their union.
    """
    multi = sim.config.kernel_matrix()
    k = multi.k
    mu = sim.config.baseline * multi.p
    T = sim.horizon
    collected = [[] for _ in range(k)]
    gen = []
    for i in range(k):
        n_imm = rng.poisson(mu[i] * (hi - lo))
        imm = rng.uniform(lo, hi, size=n_imm)
        gen.append(imm)
        collected[i].append(imm)

    branching = multi.l1_matrix()
    depth = 0
    while any(g.size for g in gen):
        depth += 1
        if depth > _GENERATION_CAP:
            raise StabilityError(f"cluster cascade exceeded {_GENERATION_CAP} generations")
        nxt = [[] for _ in range(k)]
        for j in range(k):                      # parent type
            parents = gen[j]
            if parents.size == 0:
                continue
            for i in range(k):                  # child type
                br = branching[i, j]
                if br == 0.0:
                    continue
                # iid Poisson(br) litters = a Poisson(n br) total split uniformly over parents
                total = int(rng.poisson(br * parents.size))
                if total == 0:
                    continue
                births = parents[rng.integers(0, parents.size, size=total)]
                births += multi.entries[i][j].sample_offsets(rng, total)
                births = births[births <= T]    # later births cannot have offspring in (0, T]
                nxt[i].append(births)
                collected[i].append(births)
        gen = [_joined(buf) for buf in nxt]

    times = []
    for buf in collected:
        seq = _joined(buf)
        seq.sort()
        start = int(np.searchsorted(seq, 0.0, side="right"))
        # a slice keeps the burn-in points alive with it: copy the window out
        # when they are the larger part (short windows)
        times.append(seq[start:].copy() if 2 * start > seq.size else seq[start:])
    return times


def _joined(arrays: list) -> np.ndarray:
    """The arrays end to end; a single array itself, not a copy."""
    if len(arrays) == 1:
        return arrays[0]
    return np.concatenate(arrays) if arrays else np.empty(0)


class _ThinningState:
    """Conditional-intensity bookkeeping for dominated (Ogata) thinning.

    Every term of every entry with an exponential sum `_sum` (a mixture, or a
    power law) is one slot of flat vectors: its amplitude, rate, decayed sum,
    target class and source class.  Decay is one multiply, an event one
    masked add, and the intensities one bincount over the target classes.
    A table keeps a window of recent source events, pruned at its cutoff,
    and bounds with its non-increasing majorant.  A source's window is the
    live slice [start, stop) of a float array that pruning shortens from the
    front; tables are evaluated on that slice.
    """

    def __init__(self, multi, mu):
        self.k = multi.k
        self.mu = mu
        terms, self.tables = [], []     # (i, j, exponential sum) and (i, j, table)
        for i in range(multi.k):
            for j in range(multi.k):
                kern = multi.entries[i][j]
                if kern.is_zero:
                    continue
                if kern._sum is not None:
                    terms.append((i, j, kern._sum))
                else:
                    self.tables.append((i, j, kern))
        sizes = [s.alphas.size for _, _, s in terms]
        self.alphas = np.concatenate([s.alphas for _, _, s in terms] + [np.empty(0)])
        self.betas = np.concatenate([s.betas for _, _, s in terms] + [np.empty(0)])
        self.pos_alphas = np.maximum(self.alphas, 0.0)
        self.state = np.zeros(self.alphas.size)
        self.target = np.repeat([i for i, _, _ in terms], sizes).astype(int)
        source = np.repeat([j for _, j, _ in terms], sizes)
        # one 0/1 vector per source class: an event of class m adds from_source[m]
        self.from_source = [(source == m).astype(float) for m in range(multi.k)]
        # sources of tables keep events, pruned by the longest cutoff
        self.prune_horizon = np.zeros(multi.k)
        for _, j, table in self.tables:
            self.prune_horizon[j] = max(self.prune_horizon[j], table.cutoff)
        self.events = [np.empty(256) for _ in range(multi.k)]
        self.start = [0] * multi.k
        self.stop = [0] * multi.k

    def decay(self, dt):
        self.state *= np.exp(self.betas * -dt)

    def register(self, m, t):
        self.state += self.from_source[m]
        if not self.prune_horizon[m]:
            return
        buf, stop = self.events[m], self.stop[m]
        if stop == buf.size:        # full: the live slice moves to an array twice its size
            live = buf[self.start[m]:stop]
            buf = self.events[m] = np.concatenate([live, np.empty(max(live.size, 256))])
            self.start[m], stop = 0, live.size
        buf[stop] = t
        self.stop[m] = stop + 1

    def prune(self, t):
        for j in range(self.k):
            horizon, buf, lo, stop = self.prune_horizon[j], self.events[j], self.start[j], self.stop[j]
            while lo < stop and t - buf[lo] > horizon:
                lo += 1
            self.start[j] = lo

    def window(self, j):
        return self.events[j][self.start[j]:self.stop[j]]

    def intensities(self, t, bound=False):
        """The intensities at t or, with bound, an upper bound valid on
        [t, next event) from positive terms and the tables' majorants."""
        weights = (self.pos_alphas if bound else self.alphas) * self.state
        lam = self.mu + np.bincount(self.target, weights, minlength=self.k)
        for i, j, table in self.tables:
            ev = self.window(j)
            if ev.size:
                lam[i] += float(np.sum((table.majorant if bound else table)(t - ev)))
        return lam


def simulate_thinning(sim: SimConfig, replication: int = 0) -> PointPath:
    """Ogata-style dominated thinning over the conditional intensity.

    Warm-started from an empty history at -B so that the observation window
    sees an approximately stationary process.
    """
    rng = rep_stream(sim.seed, replication, ARRIVAL_STREAM)
    multi = sim.config.kernel_matrix()
    mu = sim.config.baseline * multi.p
    T, B = sim.horizon, sim.burn_in
    state = _ThinningState(multi, mu)
    out = [[] for _ in range(multi.k)]

    t = -B
    while True:
        state.prune(t)
        bound = state.intensities(t, bound=True)
        total_bound = float(bound.sum())
        if total_bound <= 0:
            break
        step = rng.exponential() / total_bound
        t += step
        if t > T:
            break
        state.decay(step)
        lam = state.intensities(t)
        total = float(lam.sum())
        if total > total_bound + 1e-9 * max(1.0, total_bound):
            raise NumericalError("thinning bound violated: intensity exceeded its majorant")
        u = rng.random() * total_bound
        if u >= total:
            continue
        m = int(np.searchsorted(np.cumsum(lam), u, side="right"))
        state.register(m, t)
        if t > 0:
            out[m].append(t)

    times = tuple(np.asarray(buf) for buf in out)
    return PointPath(times, T, replication)


_ENGINES = {"cluster": simulate_cluster, "thinning": simulate_thinning}


def simulate_paths(sim: SimConfig) -> list[PointPath]:
    """All replications, in replication order, run across the usable CPUs.

    Each replication draws from its own keyed stream, so the paths are
    bitwise the same for any worker count (see `_map_replications`).
    """
    return _map_replications(functools.partial(_ENGINES[sim.engine], sim), sim.replications)


def sample_cov(x) -> tuple[np.ndarray, np.ndarray]:
    """Sample covariance c (ddof 1) over the last axis of x, rows iid on axis 0
    and middle axes batched, and the SE of each entry: the root of the exact
    finite-sample variance (m22_ij - c_ij^2) / n + (c_ii c_jj + c_ij^2) / (n (n - 1)),
    m22_ij the mean of (x_i - xbar_i)^2 (x_j - xbar_j)^2, clamped at 0.  At
    i = j it is the kurtosis-corrected SE of a sample variance."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n < 2:
        raise ConfigurationError("need at least two rows for a sample covariance")
    centered = x - x.mean(axis=0)
    cov = np.einsum("r...i,r...j->...ij", centered, centered) / (n - 1)
    m22 = np.einsum("r...i,r...j->...ij", centered**2, centered**2) / n
    var = np.diagonal(cov, axis1=-2, axis2=-1)
    var_of_cov = ((m22 - cov**2) / n
                  + (var[..., :, None] * var[..., None, :] + cov**2) / (n * (n - 1)))
    return cov, np.sqrt(np.maximum(var_of_cov, 0.0))


def _z(gap, se):
    """gap / se entrywise; with no sample spread, 0 for no gap, else inf (a failed check)."""
    z = np.where(np.asarray(gap) == 0, 0.0, math.inf)
    np.divide(gap, se, out=z, where=np.asarray(se) > 0)
    return z[()]


@dataclass
class MomentSummary:
    """Unbiased sample moments of counts N(t) over replications."""

    t_grid: np.ndarray
    n: int
    mean: np.ndarray          # (nt, k)
    cov: np.ndarray           # (nt, k, k), ddof=1
    se_cov: np.ndarray        # (nt, k, k), see sample_cov

    @property
    def var(self) -> np.ndarray:
        return np.diagonal(self.cov, axis1=1, axis2=2)

    @property
    def se_var(self) -> np.ndarray:
        return np.diagonal(self.se_cov, axis1=1, axis2=2)

    @property
    def se_mean(self) -> np.ndarray:
        return np.sqrt(self.var / self.n)

    def to_dict(self):
        return {"t_grid": self.t_grid.tolist(), "replications": self.n,
                "mean": self.mean.tolist(), "se_mean": self.se_mean.tolist(),
                "var": self.var.tolist(), "se_var": self.se_var.tolist(),
                "cov": self.cov.tolist()}


def empirical_moments(paths, t_grid) -> MomentSummary:
    t_grid = np.asarray(t_grid, dtype=float)
    counts = np.array([p.counts_at(t_grid) for p in paths], dtype=float)  # (R, nt, k)
    cov, se_cov = sample_cov(counts)
    return MomentSummary(t_grid, counts.shape[0], counts.mean(axis=0), cov, se_cov)


# --- serialization -------------------------------------------------------------

def write_paths_csv(paths, path):
    """Columns (replication, dimension, event_time), dimensions 0-based; the
    file does not record the dimension, so every path must have the same."""
    if len({p.dimension for p in paths}) > 1:
        raise ConfigurationError("paths of mixed dimension")
    write_csv(path, ["replication", "dimension", "event_time"],
              ((p.replication, d, t) for p in paths
               for d, seq in enumerate(p.times) for t in seq))


def read_paths_csv(path, horizon: float, replications, dimension: int) -> list[PointPath]:
    """Paths from a write_paths_csv file.

    The CSV has one row per event, so it cannot show a replication or a class
    without events; the caller gives the replication ids and the dimension.
    A row outside them raises.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)    # no rows: paths without events
        arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).reshape(-1, 3)
    replications = [int(r) for r in replications]
    if not (np.isin(arr[:, 0], replications).all()
            and np.isin(arr[:, 1], np.arange(dimension)).all()):
        raise ConfigurationError("event rows outside the given replications or dimension")
    out = []
    for r in replications:
        sel = arr[arr[:, 0] == r]
        times = tuple(np.sort(sel[sel[:, 1] == d, 2]) for d in range(dimension))
        out.append(PointPath(times, horizon, r))
    return out
