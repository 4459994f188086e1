"""Dense references for the covariance-density solve and the limit quadrature.

`dense_density` assembles the stacked k^2 n x k^2 n trapezoid system
explicitly and solves it with LAPACK; `dense_double_sum` tabulates the lag
matrix of a limit covariance's double integral.  Memory grows as the square
of the grid, so use them at small n only; the library computes the same
sums matrix-free and is checked against them.  `nested_quad_steady_var`
integrates a steady-state variance off the lattice, by nested adaptive
quadrature of an exact density.
"""
import numpy as np
from scipy.integrate import quad


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
