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

from ._io import write_csv, write_json
from .errors import ConfigurationError, NumericalError, StabilityError
from .kernels import HawkesConfig, SumOfExponentialsKernel

_GENERATION_CAP = 100_000
_LEAK_TOL = 1e-3

# Stream roles within one replication.
ARRIVAL_STREAM = 0
SERVICE_STREAM = 1
INITIAL_STREAM = 2


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

    Each replication allocates and frees a working set of several-MB arrays.
    Under glibc's defaults each of them is a fresh mmap, or heap that is
    trimmed back to the OS on free, so every replication faults its pages in
    again (about a sixth of the CPU time of a 100-replication queue run).
    The workers therefore start with `_keep_freed_heap` and reuse their
    freed heap from one replication to the next, holding at most 64 MiB of
    it free.  The workers exit with the pool, so the memory goes back then.
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
        for seq in self.times:
            if seq.size and (seq[0] <= 0 or seq[-1] > self.horizon + 1e-12):
                raise ConfigurationError("event times must lie in (0, horizon]")
            if np.any(seq[1:] < seq[:-1]):
                raise ConfigurationError("event times must be sorted")

    @property
    def dimension(self) -> int:
        return len(self.times)

    def counts_at(self, t_grid) -> np.ndarray:
        """Counts N_i(t) for each grid time; shape (len(t_grid), k)."""
        t_grid = np.asarray(t_grid, dtype=float)
        if np.any(t_grid < 0) or np.any(t_grid > self.horizon + 1e-12):
            raise ConfigurationError("probe times outside (0, horizon]")
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
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        if self.engine not in _ENGINES:
            raise ConfigurationError(f"unknown engine {self.engine!r}")
        if self.replications < 1:
            raise ConfigurationError("need at least one replication")
        if self.burn_in is None:
            self.burn_in = default_burn_in(self.config)
        elif self.burn_in < 0:
            raise ConfigurationError("burn-in must be nonnegative")


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
    Kernel.sample_offsets requires.
    """
    rng = rep_stream(sim.seed, replication, ARRIVAL_STREAM)
    multi = sim.config.kernel_matrix()
    k = multi.k
    mu = sim.config.baseline * multi.p
    T, B = sim.horizon, sim.burn_in

    collected = [[] for _ in range(k)]
    gen = []
    for i in range(k):
        n_imm = rng.poisson(mu[i] * (T + B))
        imm = rng.uniform(-B, T, size=n_imm)
        gen.append(imm)
        collected[i].append(imm[imm > 0])

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
                births = (parents[rng.integers(0, parents.size, size=total)]
                          + multi.entries[i][j].sample_offsets(rng, total))
                births = births[births <= T]    # later births cannot have offspring in (0, T]
                nxt[i].append(births)
                collected[i].append(births[births > 0])
        gen = [np.concatenate(buf) if buf else np.empty(0) for buf in nxt]

    times = [np.concatenate(buf) if buf else np.empty(0) for buf in collected]
    for seq in times:
        seq.sort()
    return PointPath(tuple(times), T, replication)


class _ThinningState:
    """Conditional-intensity bookkeeping for dominated (Ogata) thinning.

    Exponential-mixture entries keep per-term decayed sums (O(1) updates);
    other entries keep a pruned window of recent source events and use a
    non-increasing majorant for the dominating bound.  A source's window is
    the live slice [start, stop) of a float array that pruning shortens from
    the front; kernels are evaluated on that slice.
    """

    def __init__(self, multi, mu):
        self.k = multi.k
        self.mu = mu
        self.exp_terms = []     # (i, j, alphas, betas, state vector)
        self.generic = []       # (i, j, kernel, cutoff)
        for i in range(multi.k):
            for j in range(multi.k):
                kern = multi.entries[i][j]
                if kern.is_zero:
                    continue
                if isinstance(kern, SumOfExponentialsKernel):
                    self.exp_terms.append((i, j, kern.alphas.copy(), kern.betas.copy(),
                                           np.zeros(kern.alphas.size)))
                else:
                    self.generic.append((i, j, kern, kern.majorant_cutoff()))
        # sources of generic entries keep events, pruned by the longest cutoff
        self.prune_horizon = np.zeros(multi.k)
        for _, j, _, cutoff in self.generic:
            self.prune_horizon[j] = max(self.prune_horizon[j], cutoff)
        self.events = [np.empty(256) for _ in range(multi.k)]
        self.start = [0] * multi.k
        self.stop = [0] * multi.k

    def decay(self, dt):
        for _, _, _, betas, state in self.exp_terms:
            state *= np.exp(-betas * dt)

    def register(self, m, t):
        for i, j, _, _, state in self.exp_terms:
            if j == m:
                state += 1.0
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
        [t, next event) from positive terms and non-increasing majorants."""
        lam = self.mu.copy()
        for i, _, alphas, _, state in self.exp_terms:
            pos = alphas > 0 if bound else slice(None)
            lam[i] += float(alphas[pos] @ state[pos])
        for i, j, kern, _ in self.generic:
            ev = self.window(j)
            if ev.size:
                lam[i] += float(np.sum((kern.majorant if bound else kern)(t - ev)))
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


@dataclass
class MomentSummary:
    """Unbiased sample moments of counts N(t) over replications."""

    t_grid: np.ndarray
    n: int
    mean: np.ndarray          # (nt, k)
    se_mean: np.ndarray
    var: np.ndarray           # (nt, k), ddof=1
    se_var: np.ndarray        # kurtosis-corrected
    cov: np.ndarray           # (nt, k, k)

    def to_dict(self):
        return {"t_grid": self.t_grid.tolist(), "replications": self.n,
                "mean": self.mean.tolist(), "se_mean": self.se_mean.tolist(),
                "var": self.var.tolist(), "se_var": self.se_var.tolist(),
                "cov": self.cov.tolist()}

    def write_json(self, path):
        write_json(path, self.to_dict())


def empirical_moments(paths, t_grid) -> MomentSummary:
    paths = list(paths)
    if len(paths) < 2:
        raise ConfigurationError("need at least two paths for sample moments")
    t_grid = np.asarray(t_grid, dtype=float)
    counts = np.stack([p.counts_at(t_grid) for p in paths]).astype(float)  # (R, nt, k)
    n = counts.shape[0]
    mean = counts.mean(axis=0)
    var = counts.var(axis=0, ddof=1)
    se_mean = np.sqrt(var / n)
    centered = counts - mean
    m4 = (centered**4).mean(axis=0)
    var_of_var = (m4 - (n - 3) / (n - 1) * var**2) / n
    se_var = np.sqrt(np.maximum(var_of_var, 0.0))
    cov = np.einsum("rti,rtj->tij", centered, centered) / (n - 1)
    return MomentSummary(t_grid, n, mean, se_mean, var, se_var, cov)


def var_of_sample_cov(x: np.ndarray, y: np.ndarray) -> float:
    """Delta-method variance of the sample covariance of paired data."""
    xc = x - x.mean()
    yc = y - y.mean()
    c = float((xc * yc).sum() / (len(x) - 1))
    m22 = float((xc**2 * yc**2).mean())
    return (m22 - c * c) / len(x)


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
