"""Dense references for the covariance-density solve and the limit quadrature.

`dense_density` assembles the stacked k^2 n x k^2 n trapezoid system
explicitly and solves it with LAPACK; `dense_double_sum` tabulates the lag
matrix of a limit covariance's double integral.  Memory grows as the square
of the grid, so use them at small n only; the library computes the same
sums matrix-free and is checked against them.  `nested_quad_steady_var`
integrates a steady-state variance off the lattice, by nested adaptive
quadrature of an exact density.  `running_integral_cov` is the count-limit
covariance from the running integrals of phi, independent of the lag sums
that the library uses.  `filter_then_sort_cluster` is the cluster engine
that keeps only positive times in every generation, and
`event_driven_queue` counts a queue by sorting all its arrival and
departure events; the library builds the same paths and counts without
those copies and sorts.  `quad_laplace` is a kernel's Laplace transform by
adaptive quadrature of h, which the library's exact rules are checked against.
"""
import math

import numpy as np
from scipy.integrate import cumulative_trapezoid, quad

from hawkesq.simulate import ARRIVAL_STREAM, PointPath, rep_stream


def _trapz_weights(n, dt):
    w = np.full(n, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def history_block(h, t, w):
    """W-weighted kernel evaluations h(t_i + t_j)."""
    return h(t[:, None] + t[None, :]) * w[None, :]


def volterra_block(h, t, dt):
    """Trapezoid weights for int_0^{t_i} h(t_i - v) f(v) dv, row i."""
    D = t[:, None] - t[None, :]
    mask = D >= 0
    wc = np.where(mask, dt, 0.0)
    wc[:, 0] = np.where(mask[:, 0], 0.5 * dt, 0.0)
    wc[np.arange(1, len(t)), np.arange(1, len(t))] = 0.5 * dt
    A = np.where(mask, h(np.where(mask, D, 0.0)), 0.0) * wc
    A[0, :] = 0.0
    return A


def dense_density(entries, a, t, dt):
    """(n, k, k) grid solving Phi_ij = h_ij a_j + history + Volterra, densely.

    Unknowns are the k^2 grid functions Phi_ij, vectorized row-major; the
    history integral uses the extension Phi(-u) = Phi(u)^T.
    """
    k, n1 = len(entries), len(t)
    w = _trapz_weights(n1, dt)
    P = [[history_block(entries[i][j], t, w) for j in range(k)] for i in range(k)]
    C = [[volterra_block(entries[i][j], t, dt) for j in range(k)] for i in range(k)]
    dim = k * k * n1
    A = np.zeros((dim, dim))
    b = np.zeros(dim)

    def blk(i, j):
        return slice((i * k + j) * n1, (i * k + j + 1) * n1)

    for i in range(k):
        for j in range(k):
            b[blk(i, j)] = entries[i][j](t) * a[j]
            for q in range(k):
                A[blk(i, j), blk(j, q)] += P[i][q]     # history: sum_q h_iq(t+u) Phi_jq(u)
            for l in range(k):
                A[blk(i, j), blk(l, j)] += C[i][l]     # Volterra: sum_l h_il(t-v) Phi_lj(v)
    x = np.linalg.solve(np.eye(dim) - A, b)
    return np.moveaxis(x.reshape(k, k, n1), -1, 0)


def dense_double_sum(phi, hi, lo, fu, fv, i=0, j=0, u0=0.0, v0=0.0):
    """sum_a sum_b w_a fu(u_a) w_b fv(v_b) Phi_ij(u_a - v_b) on the trapezoid
    grids of [u0, hi] and [v0, lo], with Phi_ij(-x) = Phi_ji(x) and the mean
    of Phi_ij(0) and Phi_ji(0) at lag 0, where Phi jumps: the dense table
    G[a, b] = Phi_ij(u_a - v_b) reduced by an einsum."""
    def grid(T0, T):
        x = np.linspace(T0, T, max(int(round((T - T0) / phi.dt)), 1) + 1)
        w = np.full(x.size, x[1] - x[0])
        w[0] = w[-1] = 0.5 * (x[1] - x[0])
        return x, w

    ug, wu = grid(u0, hi)
    vg, wv = grid(v0, lo)
    lag = ug[:, None] - vg[None, :]
    # the two grids round differently; a lag within rounding of 0 is 0
    lag[np.abs(lag) < 1e-9 * phi.dt] = 0.0
    fwd, bwd = (phi.values[:, i, j], phi.values[:, j, i]) if phi.is_matrix else (phi.values,) * 2
    G = np.where(lag > 0, np.interp(np.abs(lag), phi.t, fwd, right=0.0),
                 np.interp(np.abs(lag), phi.t, bwd, right=0.0))
    G[lag == 0] = 0.5 * (fwd[0] + bwd[0])
    return np.einsum("a,b,ab->", wu * fu(ug), wv * fv(vg), G)


def nested_quad_steady_var(F, phi, a, t_max):
    """a E[S] + 2 int_0^t_max phi(w) int_0^U S(u) S(u + w) du dw, the lag-correlation
    form of the steady-state variance, U the 1e-12 survival cutoff of F and
    phi an exact density, evaluated pointwise."""
    U = F.survival_cutoff()

    def lag_corr(w):
        return quad(lambda u: F.survival(u) * F.survival(u + w), 0.0, U, limit=200)[0]

    val, _ = quad(lambda w: phi(w) * lag_corr(w), 0.0, t_max, limit=200)
    return F.mean() * a + 2.0 * val


def running_integral_cov(phi):
    """cov(s, t), the k x k matrix Cov(G_i(t), G_j(s)) of the count limit:

        Psi2(t) - Psi2(s) - Psi2(t - s) + K(s),   s <= t,

    the transpose of cov(t, s) for s > t, with Psi2 the second running
    trapezoid integral of the grid, K(s) = diag(a) s + Psi2(s) + Psi2(s)^T,
    and Psi2 and K read between grid nodes by linear interpolation."""
    n, k = phi.grid.shape[:2]
    psi2 = cumulative_trapezoid(cumulative_trapezoid(phi.grid, dx=phi.dt, axis=0, initial=0),
                                dx=phi.dt, axis=0, initial=0)

    def at(x):
        cols = psi2.reshape(n, -1).T
        return np.array([np.interp(x, phi.t, col) for col in cols]).reshape(k, k)

    def cov(s, t):
        if s > t:
            return cov(t, s).T
        p2s = at(s)
        return at(t) - p2s - at(t - s) + np.diag(phi.a) * s + p2s + p2s.T

    return cov


def filter_then_sort_cluster(sim, replication=0):
    """simulate_cluster's path, built by copying out the times in (0, T] of
    every generation and sorting their concatenation per class."""
    rng = rep_stream(sim.seed, replication, ARRIVAL_STREAM)
    multi = sim.config.kernel_matrix()
    k = multi.k
    mu = sim.config.baseline * multi.p
    T, B = sim.horizon, sim.burn_in
    collected = [[] for _ in range(k)]
    gen = []
    for i in range(k):
        imm = rng.uniform(-B, T, size=rng.poisson(mu[i] * (T + B)))
        gen.append(imm)
        collected[i].append(imm[imm > 0])
    branching = multi.l1_matrix()
    while any(g.size for g in gen):
        nxt = [[] for _ in range(k)]
        for j in range(k):
            parents = gen[j]
            if parents.size == 0:
                continue
            for i in range(k):
                if branching[i, j] == 0.0:
                    continue
                total = int(rng.poisson(branching[i, j] * parents.size))
                if total == 0:
                    continue
                births = (parents[rng.integers(0, parents.size, size=total)]
                          + multi.entries[i][j].sample_offsets(rng, total))
                births = births[births <= T]
                nxt[i].append(births)
                collected[i].append(births[births > 0])
        gen = [np.concatenate(buf) if buf else np.empty(0) for buf in nxt]
    return PointPath(tuple(np.sort(np.concatenate(buf)) for buf in collected), T, replication)


def event_driven_queue(q_init, remaining, taus, departures, t_grid):
    """Queue length of one class at each time of t_grid (any order, repeats
    or a scalar): q_init plus the running sum of +1 at each arrival and -1 at
    each departure, the initial customers departing at `remaining`, over all
    events at or before t."""
    events = np.concatenate([remaining, taus, departures])
    deltas = np.concatenate([-np.ones(len(remaining)), np.ones(len(taus)),
                             -np.ones(len(departures))])
    order = np.argsort(events, kind="stable")
    cum = np.concatenate([[0.0], np.cumsum(deltas[order])])
    idx = np.searchsorted(events[order], np.atleast_1d(t_grid), side="right")
    return (q_init + cum[idx]).astype(int)


def quad_laplace(kern, omega, breaks=None):
    """int_0^inf e^{-omega t} h(t) dt by adaptive quadrature: over [0, inf), or
    piece by piece between `breaks` (a table's grid, where h has kinks)."""
    def f(t):
        return math.exp(-omega * t) * float(kern(t))

    if breaks is None:
        return quad(f, 0.0, np.inf, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
    return math.fsum(quad(f, a, b, epsabs=0.0, epsrel=1e-13)[0]
                     for a, b in zip(breaks[:-1], breaks[1:]))
