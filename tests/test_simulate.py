import ctypes
import json
import math
import platform

import numpy as np
import pytest

import hawkesq as hq
from hawkesq import simulate
from hawkesq.cli import main
from hawkesq.errors import ConfigurationError, StabilityError

import oracles
from dense_reference import filter_then_sort_cluster


def _config(kernel, mu):
    return hq.HawkesConfig(mu, kernel)


def test_default_burn_in_bound(h1):
    # one bound for every k: mu int_B^inf H(s) ds / (1-||h||)^2 = tol, which for
    # h = alpha e^{-beta t} gives B = log(mu alpha / ((1-||h||)^2 beta^2 tol)) / beta
    alpha, beta, norm, tol = 0.5, 1.0, 0.5, 1e-3
    for mu in (20.0, 10.0):
        b = hq.default_burn_in(_config(h1, mu))
        exact = np.log(mu * alpha / ((1.0 - norm) ** 2 * beta**2 * tol)) / beta
        assert b == pytest.approx(exact, abs=1e-9)
        assert hq.default_burn_in(_config(hq.KernelMatrix([[h1]], [1.0]), mu)) == b
    assert hq.default_burn_in(_config(hq.ZERO_KERNEL, 5.0)) == 0.0


def test_cluster_is_deterministic(h1):
    sim = hq.SimConfig(_config(h1, 10.0), horizon=5.0, seed=123, replications=4)
    a = hq.simulate_cluster(sim, 2)
    b = hq.simulate_cluster(sim, 2)
    assert all(np.array_equal(x, y) for x, y in zip(a.times, b.times))
    c = hq.simulate_cluster(sim, 3)
    assert not all(np.array_equal(x, y) for x, y in zip(a.times, c.times))


@pytest.mark.parametrize("kernel", ["h1", "asymmetric"])
@pytest.mark.parametrize("burn_in", [0.0, None], ids=["no-burn-in", "default-burn-in"])
def test_cluster_matches_filter_then_sort(h1, kernel, burn_in):
    # one sort per class and a slice at 0 give the paths of filtering every generation
    E = hq.SumOfExponentialsKernel
    model = h1 if kernel == "h1" else hq.KernelMatrix(
        [[E([0.3], [1.0]), E([0.1, 0.05], [2.0, 0.5])],
         [E([0.2], [0.7]), E([0.3], [1.0])]], [1.0, 0.5])
    sim = hq.SimConfig(_config(model, 10.0), horizon=8.0, seed=21, burn_in=burn_in)
    for r in range(5):
        path, reference = hq.simulate_cluster(sim, r), filter_then_sort_cluster(sim, r)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(path.times, reference.times))


def test_thinning_is_deterministic(h1):
    sim = hq.SimConfig(_config(h1, 10.0), horizon=2.0, seed=9, engine="thinning")
    a = hq.simulate_thinning(sim, 0)
    b = hq.simulate_thinning(sim, 0)
    assert all(np.array_equal(x, y) for x, y in zip(a.times, b.times))


@pytest.mark.parametrize("engine", ["cluster", "thinning"])
def test_poisson_reduction(engine):
    sim = hq.SimConfig(_config(hq.ZERO_KERNEL, 5.0), horizon=10.0, seed=43,
                       engine=engine, replications=10_000 if engine == "cluster" else 3000)
    paths = hq.simulate_paths(sim)
    m = hq.empirical_moments(paths, [10.0])
    assert abs(m.mean[0, 0] - 50.0) < 3.0 * m.se_mean[0, 0]
    assert abs(m.var[0, 0] - 50.0) < 3.0 * m.se_var[0, 0]


def test_mean_rate_law(h1):
    sim = hq.SimConfig(_config(h1, 10.0), horizon=20.0, seed=7, replications=1000)
    paths = hq.simulate_paths(sim)
    m = hq.empirical_moments(paths, [20.0])
    assert abs(m.mean[0, 0] / 20.0 - 20.0) < 3.0 * m.se_mean[0, 0] / 20.0


def test_variance_scaling_law(h1):
    # Var N^mu(t) = mu K(t) for integer baselines
    sim = hq.SimConfig(_config(h1, 10.0), horizon=1.0, seed=21, replications=10_000)
    paths = hq.simulate_paths(sim)
    m = hq.empirical_moments(paths, [1.0])
    assert abs(m.var[0, 0] - 10.0 * oracles.K1(1.0)) < 3.0 * m.se_var[0, 0]


def test_engine_cross_validation(h1):
    cfg = _config(h1, 10.0)
    reps = 3000
    mc = hq.empirical_moments(
        hq.simulate_paths(hq.SimConfig(cfg, 2.0, seed=600, replications=reps)), [2.0])
    mt = hq.empirical_moments(
        hq.simulate_paths(hq.SimConfig(cfg, 2.0, seed=601, engine="thinning",
                                       replications=reps)), [2.0])
    se_mean = np.hypot(mc.se_mean[0, 0], mt.se_mean[0, 0])
    se_var = np.hypot(mc.se_var[0, 0], mt.se_var[0, 0])
    assert abs(mc.mean[0, 0] - mt.mean[0, 0]) < 3.0 * se_mean
    assert abs(mc.var[0, 0] - mt.var[0, 0]) < 3.0 * se_var


def test_engine_cross_validation_h2(h2):
    # two-component mixture: the cluster engine's blocked offsets must pair
    # with uniformly chosen parents; both engines start empty at -burn_in
    cfg = _config(h2, 5.0)
    reps = 2000
    mc = hq.empirical_moments(hq.simulate_paths(
        hq.SimConfig(cfg, 2.0, seed=610, burn_in=4.0, replications=reps)), [2.0])
    mt = hq.empirical_moments(hq.simulate_paths(
        hq.SimConfig(cfg, 2.0, seed=611, burn_in=4.0, engine="thinning",
                     replications=reps)), [2.0])
    se_mean = np.hypot(mc.se_mean[0, 0], mt.se_mean[0, 0])
    se_var = np.hypot(mc.se_var[0, 0], mt.se_var[0, 0])
    assert abs(mc.mean[0, 0] - mt.mean[0, 0]) < 3.0 * se_mean
    assert abs(mc.var[0, 0] - mt.var[0, 0]) < 3.0 * se_var


def test_cluster_covariance_density_from_pair_counts(h2, phi_h2):
    # For a stationary path on [0, T] the ordered pairs with lag in a bin
    # [l0, l1) number int_bin (T - u) (lambda^2 + mu phi(u)) du in
    # expectation.  Dividing by int_bin (T - u) du and subtracting the
    # path's (N/T)^2, whose mean is lambda^2 + mu K(T)/T^2, estimates the
    # bin average of mu phi minus mu K(T)/T^2.  Offsets paired with parents
    # in any non-random order change the sibling lags and fail this at z > 10.
    mu, T, reps = 5.0, 1000.0, 100
    edges = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0])
    sim = hq.SimConfig(_config(h2, mu), T, seed=8080, replications=reps)
    exposure = T * np.diff(edges) - 0.5 * np.diff(edges**2)      # int_bin (T - u) du
    est = []
    for r in range(reps):
        times = hq.simulate_cluster(sim, r).times[0]
        below = [np.sum(np.searchsorted(times, times + e) - np.arange(1, times.size + 1))
                 for e in edges[1:]]                              # pairs with lag < e
        est.append(np.diff(below, prepend=0) / exposure - (times.size / T) ** 2)
    est = np.array(est)
    u = np.linspace(0.0, edges[-1], 8001)
    weighted = np.array([np.trapezoid(((T - u) * phi_h2(u))[(u >= lo) & (u <= hi)],
                                      u[(u >= lo) & (u <= hi)])
                         for lo, hi in zip(edges[:-1], edges[1:])])
    K_T = hq.asymptotic_slope(h2) * T + oracles.H2_OFFSET   # exact to e^{-T/10}
    target = mu * weighted / exposure - mu * K_T / T**2
    z = (est.mean(axis=0) - target) / (est.std(axis=0, ddof=1) / np.sqrt(reps))
    assert np.all(np.abs(z) < 4.0), z


def test_cluster_mean_rates_asymmetric_matrix():
    E = hq.SumOfExponentialsKernel
    km = hq.KernelMatrix([[E([0.1, 0.2], [0.5, 4.0]), E([0.1], [2.0])],
                          [E([0.2], [0.5]), E([0.05, 0.1], [1.0, 3.0])]], [1.0, 0.5])
    cfg = hq.HawkesConfig(10.0, km)
    T = 5.0
    m = hq.empirical_moments(hq.simulate_paths(
        hq.SimConfig(cfg, T, seed=620, replications=2000)), [T])
    rates = cfg.mean_rate_vector()
    assert rates[0] != pytest.approx(rates[1], rel=0.1)
    for d in range(2):
        assert abs(m.mean[0, d] - T * rates[d]) < 3.0 * m.se_mean[0, d]


def test_thinning_handles_general_kernels():
    mix = hq.SumOfExponentialsKernel([1.0, -0.9], [1.0, 2.0])     # non-monotone h
    tab = hq.TabulatedKernel(0.05, np.maximum(0.4 - 0.4 * np.arange(41) * 0.05, 0.0))
    for kern in (mix, tab):
        cfg = _config(kern, 5.0)
        rate = cfg.mean_rate()
        sim = hq.SimConfig(cfg, horizon=4.0, seed=77, engine="thinning",
                           replications=800)
        m = hq.empirical_moments(hq.simulate_paths(sim), [4.0])
        assert abs(m.mean[0, 0] - 4.0 * rate) < 4.0 * m.se_mean[0, 0]


def test_thinning_state_of_a_power_law_entry():
    # a power law is held by its exponential sum: no event window, and an intensity
    # within 1e-12 of mu + sum_e h(t - t_e) over a few hundred events
    pl = hq.PowerLawKernel(1.0, 3.5, 1.0)
    state = simulate._ThinningState(hq.KernelMatrix([[pl]], [1.0]), np.array([5.0]))
    times = np.cumsum(np.random.default_rng(5).exponential(0.1, 300))
    t = 0.0
    for n, event in enumerate(times):
        state.decay(event - t)
        t = event
        exact = 5.0 + math.fsum(pl(t - times[:n]))
        assert state.intensities(t)[0] == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert state.intensities(t, bound=True)[0] == state.intensities(t)[0]
        state.register(0, t)
    assert state.window(0).size == 0 and not state.tables


def test_thinning_state_sums_every_entry_of_a_matrix():
    # the flat term vectors against mu_i + sum_j sum_e h_ij(t - t_e), entry by entry:
    # a two-term mixture, a mixed-sign mixture, a zero entry and a table, whose window
    # and majorant the bound reads
    E = hq.SumOfExponentialsKernel
    tab = hq.TabulatedKernel(0.5, [0.0, 0.4, 0.3, 0.1, 0.0])
    km = hq.KernelMatrix([[E([0.1, 0.2], [0.5, 3.0]), tab],
                          [E([1.0, -0.9], [1.0, 2.0]), hq.ZERO_KERNEL]], [1.0, 0.5])
    mu = np.array([2.0, 1.0])
    state = simulate._ThinningState(km, mu)
    rng = np.random.default_rng(9)
    times = np.cumsum(rng.exponential(0.2, 200))
    marks = rng.integers(0, 2, times.size)
    t = 0.0
    for n, (event, m) in enumerate(zip(times, marks)):
        state.decay(event - t)
        state.prune(event)
        t = event
        lam, bound = state.intensities(t), state.intensities(t, bound=True)
        for i in range(2):
            exact = mu[i] + math.fsum(math.fsum(km.entries[i][j](t - times[:n][marks[:n] == j]))
                                      for j in range(2))
            assert lam[i] == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert np.all(bound >= lam)
        state.register(int(m), t)
    assert state.window(1).size and not state.window(0).size


def test_thinning_refuses_a_power_law_without_an_exponential_sum():
    # near g = 1.05 the sum's slowest rate underflows: laplace and fourier refuse
    # this kernel already, and so does thinning; the cluster engine samples it exactly
    cfg = _config(hq.PowerLawKernel(1.0, 1.04, 0.02), 5.0)
    sim = hq.SimConfig(cfg, 4.0, seed=1, burn_in=20.0, engine="thinning")
    with pytest.raises(hq.NumericalError, match="too close to 1"):
        hq.simulate_paths(sim)
    cluster = hq.SimConfig(cfg, 4.0, seed=1, burn_in=20.0, replications=2)
    assert len(hq.simulate_paths(cluster)) == 2


def test_multivariate_thinning_matches_cluster(quarter_matrix):
    cfg = hq.HawkesConfig(3.0, quarter_matrix)
    reps = 800
    mc = hq.empirical_moments(
        hq.simulate_paths(hq.SimConfig(cfg, 2.0, seed=800, replications=reps)), [2.0])
    mt = hq.empirical_moments(
        hq.simulate_paths(hq.SimConfig(cfg, 2.0, seed=801, engine="thinning",
                                       replications=reps)), [2.0])
    for d in range(2):
        se = np.hypot(mc.se_mean[0, d], mt.se_mean[0, d])
        assert abs(mc.mean[0, d] - mt.mean[0, d]) < 3.0 * se


def test_multivariate_thinning_mixed_cutoffs():
    # two tabulated entries fed by the same source with very different
    # supports: history pruning must honor the longer one
    short = hq.TabulatedKernel(0.05, np.maximum(0.3 - 0.3 * np.arange(21) * 0.05, 0.0))
    long = hq.TabulatedKernel(0.25, np.full(33, 0.04))   # support [0, 8]
    km = hq.KernelMatrix([[short, hq.ZERO_KERNEL], [long, hq.ZERO_KERNEL]],
                         [1.0, 1.0])
    cfg = hq.HawkesConfig(4.0, km)
    reps = 600
    mc = hq.empirical_moments(
        hq.simulate_paths(hq.SimConfig(cfg, 4.0, seed=900, replications=reps)), [4.0])
    mt = hq.empirical_moments(
        hq.simulate_paths(hq.SimConfig(cfg, 4.0, seed=901, engine="thinning",
                                       replications=reps)), [4.0])
    for d in range(2):
        se = np.hypot(mc.se_mean[0, d], mt.se_mean[0, d])
        assert abs(mc.mean[0, d] - mt.mean[0, d]) < 3.0 * se


def test_multivariate_decoupled_matches_univariate(h1, quarter_matrix):
    km = hq.KernelMatrix([[h1, hq.ZERO_KERNEL], [hq.ZERO_KERNEL, h1]], [1.0, 1.0])
    sim = hq.SimConfig(hq.HawkesConfig(5.0, km), horizon=4.0, seed=31,
                       replications=4000)
    paths = hq.simulate_paths(sim)
    m = hq.empirical_moments(paths, [4.0])
    assert abs(m.mean[0, 0] - 40.0) < 3.0 * m.se_mean[0, 0]
    assert abs(m.mean[0, 1] - 40.0) < 3.0 * m.se_mean[0, 1]
    # independent classes: cross-covariance compatible with zero
    cov, se = simulate.sample_cov(np.stack([p.counts_at([4.0]) for p in paths])[:, 0, :])
    assert abs(cov[0, 1]) < 3.0 * se[0, 1]


def test_multivariate_sum_process_reduction(quarter_matrix):
    # with all entries g = h1/2 the superposed process is h1 with doubled baseline
    mu = 5.0
    sim = hq.SimConfig(hq.HawkesConfig(mu, quarter_matrix), horizon=2.0, seed=13,
                       replications=6000)
    paths = hq.simulate_paths(sim)
    totals = np.array([p.counts_at([2.0]).sum() for p in paths], dtype=float)
    lam = 4.0 * mu
    assert abs(totals.mean() - lam * 2.0) < 3.0 * totals.std(ddof=1) / np.sqrt(totals.size)
    v, se_var = simulate.sample_cov(totals[:, None])
    assert abs(v[0, 0] - 2.0 * mu * oracles.K1(2.0)) < 3.0 * se_var[0, 0]


def test_sample_cov_standard_errors():
    rng = np.random.default_rng(3)
    x = rng.gamma(2.0, size=(40, 3, 2)) @ np.array([[1.0, 0.4], [0.0, 1.0]])  # skewed, correlated
    cov, se = simulate.sample_cov(x)
    assert cov.shape == se.shape == (3, 2, 2)
    n = x.shape[0]
    for t in range(3):
        assert np.allclose(cov[t], np.cov(x[:, t].T), rtol=1e-13, atol=0.0)
        # the kurtosis-corrected SE of a sample variance
        for i in range(2):
            xi = x[:, t, i]
            m4 = ((xi - xi.mean()) ** 4).mean()
            want = np.sqrt((m4 - (n - 3) / (n - 1) * xi.var(ddof=1) ** 2) / n)
            assert se[t, i, i] == pytest.approx(want, rel=1e-12)
    # one off-diagonal entry by a scalar loop over the exact finite-sample variance
    a, b = x[:, 1, 0], x[:, 1, 1]
    ma, mb = sum(a) / n, sum(b) / n
    c = sum((p - ma) * (q - mb) for p, q in zip(a, b)) / (n - 1)
    vaa = sum((p - ma) ** 2 for p in a) / (n - 1)
    vbb = sum((q - mb) ** 2 for q in b) / (n - 1)
    m22 = sum((p - ma) ** 2 * (q - mb) ** 2 for p, q in zip(a, b)) / n
    want = np.sqrt((m22 - c * c) / n + (vaa * vbb + c * c) / (n * (n - 1)))
    assert se[1, 0, 1] == se[1, 1, 0] == pytest.approx(want, rel=1e-12)
    # Gaussian rows: SE^2 is the Wishart variance (s_ii s_jj + s_ij^2) / (n - 1)
    sigma = np.array([[2.0, 0.8], [0.8, 1.0]])
    n = 20_000
    cov, se = simulate.sample_cov(rng.multivariate_normal([1.0, -1.0], sigma, size=n))
    wishart = (np.outer(np.diag(sigma), np.diag(sigma)) + sigma**2) / (n - 1)
    assert np.allclose(se**2, wishart, rtol=0.05, atol=0.0)
    with pytest.raises(ConfigurationError):
        simulate.sample_cov(x[:1])


def test_empirical_moments_validation(h1):
    sim = hq.SimConfig(_config(h1, 10.0), horizon=5.0, seed=1, replications=4)
    paths = hq.simulate_paths(sim)
    with pytest.raises(ConfigurationError):
        hq.empirical_moments(paths[:1], [1.0])
    m1 = hq.empirical_moments(paths, [1.0, 5.0])
    m2 = hq.empirical_moments(paths, [1.0, 5.0])
    assert np.array_equal(m1.mean, m2.mean) and np.array_equal(m1.var, m2.var)


@pytest.mark.parametrize("window", [{"horizon": math.nan}, {"horizon": math.inf},
                                    {"horizon": 0.0}, {"burn_in": math.nan},
                                    {"burn_in": math.inf}, {"burn_in": -1.0}],
                         ids=["horizon-nan", "horizon-inf", "horizon-0", "burn-in-nan",
                              "burn-in-inf", "burn-in-negative"])
def test_sim_config_refuses_bad_windows(h1, window):
    with pytest.raises(ConfigurationError):
        hq.SimConfig(_config(h1, 10.0), **dict({"horizon": 5.0, "seed": 1}, **window))


def test_point_path_validation():
    with pytest.raises(ConfigurationError):
        hq.PointPath((np.array([0.5, 0.2]),), 1.0)
    with pytest.raises(ConfigurationError):
        hq.PointPath((np.array([0.5, 2.0]),), 1.0)
    p = hq.PointPath((np.array([0.25, 0.5]),), 1.0)
    assert p.counts_at([0.3, 1.0]).tolist() == [[1], [2]]


@pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0, -1.0])
def test_point_path_refuses_bad_horizon(horizon):
    # a path without events has no time to check the horizon against
    with pytest.raises(ConfigurationError, match="horizon must be positive and finite"):
        hq.PointPath((np.empty(0),), horizon)


@pytest.mark.parametrize("times", [[0.5, np.nan, 1.0], [np.nan, 0.5], [0.5, np.nan]])
def test_point_path_refuses_nan(times):
    # every comparison with NaN is false, so each check must pass only what it orders
    with pytest.raises(ConfigurationError):
        hq.PointPath((np.array(times),), 2.0)


def test_read_paths_csv_refuses_nan(tmp_path):
    # np.sort puts the NaN last, where only the horizon check sees it
    csv = tmp_path / "paths.csv"
    csv.write_text("replication,dimension,event_time\n0,0,0.5\n0,0,nan\n0,0,1.5\n")
    with pytest.raises(ConfigurationError, match="horizon"):
        hq.read_paths_csv(csv, 2.0, replications=[0], dimension=1)


def test_paths_round_trip(tmp_path, h1):
    sim = hq.SimConfig(_config(h1, 8.0), horizon=3.0, seed=5, replications=3)
    paths = hq.simulate_paths(sim)
    csv = tmp_path / "paths.csv"
    hq.write_paths_csv(paths, csv)
    back = hq.read_paths_csv(csv, horizon=3.0, replications=[0, 1, 2], dimension=1)
    for a, b in zip(paths, back):                 # %.17g reads back the same float64
        assert all(np.array_equal(x, y) for x, y in zip(a.times, b.times))


def test_csv_paths_keep_empty_replications_and_classes(tmp_path):
    empty = np.empty(0)
    paths = [hq.PointPath((np.array([0.25, 1.5]), empty), 2.0, 0),
             hq.PointPath((empty, empty), 2.0, 1),
             hq.PointPath((np.array([0.75]), empty), 2.0, 2)]
    csv = tmp_path / "paths.csv"
    hq.write_paths_csv(paths, csv)
    assert len(csv.read_text().splitlines()) == 1 + 3          # one row per event
    back = hq.read_paths_csv(csv, 2.0, replications=[0, 1, 2], dimension=2)
    assert [p.replication for p in back] == [0, 1, 2]
    for a, b in zip(paths, back):
        assert b.dimension == 2 and b.horizon == 2.0
        assert all(np.array_equal(x, y) for x, y in zip(a.times, b.times))
    with pytest.raises(ConfigurationError):        # rows of replication 2 would be lost
        hq.read_paths_csv(csv, 2.0, replications=[0, 1], dimension=2)
    hq.write_paths_csv([], csv)
    assert hq.read_paths_csv(csv, 2.0, replications=[], dimension=1) == []
    # the file does not record the dimension: paths of two dimensions are refused
    with pytest.raises(ConfigurationError, match="mixed dimension"):
        hq.write_paths_csv([hq.PointPath((empty,), 2.0, 0), paths[1]], tmp_path / "mixed.csv")
    assert not (tmp_path / "mixed.csv").exists()


@pytest.mark.parametrize("engine", ["cluster", "thinning"])
def test_permuted_replication_order_matches_simulate_paths(h1, engine):
    sim = hq.SimConfig(_config(h1, 10.0), horizon=3.0, seed=17, engine=engine, replications=8)
    paths = hq.simulate_paths(sim)
    run = hq.simulate_cluster if engine == "cluster" else hq.simulate_thinning
    permuted = {r: run(sim, r) for r in np.random.default_rng(0).permutation(sim.replications)}
    for r, path in enumerate(paths):
        assert permuted[r].replication == path.replication == r
        assert all(np.array_equal(x, y) for x, y in zip(path.times, permuted[r].times))


@pytest.mark.parametrize("engine", ["cluster", "thinning"])
def test_simulate_paths_same_for_any_worker_count(h1, cpus, engine):
    sim = hq.SimConfig(_config(h1, 10.0), horizon=2.0, seed=19, engine=engine, replications=9)
    run = hq.simulate_cluster if engine == "cluster" else hq.simulate_thinning
    direct = [run(sim, r) for r in range(sim.replications)]
    for n in (1, 2):
        cpus(n)
        paths = hq.simulate_paths(sim)
        assert [p.replication for p in paths] == list(range(sim.replications))
        for a, b in zip(direct, paths):
            assert all(np.array_equal(x, y) for x, y in zip(a.times, b.times))


def test_worker_error_keeps_its_type(h1, cpus, monkeypatch, tmp_path):
    # a cascade cap of 0 generations makes every replication raise in its worker
    cpus(2)
    monkeypatch.setattr(simulate, "_GENERATION_CAP", 0)
    with pytest.raises(StabilityError):
        hq.simulate_paths(hq.SimConfig(_config(h1, 10.0), horizon=2.0, seed=3, replications=4))
    kernel = {"type": "sum_exp", "terms": [{"alpha": 0.5, "beta": 1.0}]}
    for command, extra in [("simulate", {"horizon": 2.0, "reps": 4}),
                           ("validate-queue", {"n_samples": 100})]:
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(dict(extra, name="cap", kernel=kernel, mu=10.0, seed=3)))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3


def _faults_after_first_round(_):
    """Minor faults of eight 2 MiB arrays, filled and freed, over rounds 2 to 10."""
    import resource

    def round_():
        arrays = [np.full(1 << 18, 1.0) for _ in range(8)]
        del arrays
    round_()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(9):
        round_()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_pool_workers_reuse_freed_heap(cpus):
    # glibc's defaults trim the freed 16 MiB round back to the OS, so every
    # round faults its pages in again: about one fault per 4 KiB page
    cpus(2)
    faults = sum(simulate._map_replications(_faults_after_first_round, 2))
    pages = 2 * 9 * 8 * (2 << 20) // 4096
    assert faults < pages / 20


def test_pool_without_mallopt_matches_inline(h1, cpus, monkeypatch):
    # a C library without mallopt (musl, macOS): the workers run untuned, and
    # the inline path never looks at the allocator
    opened = []

    class NoMallopt:
        def __init__(self, name):
            opened.append(name)

    monkeypatch.setattr(ctypes, "CDLL", NoMallopt)
    sim = hq.SimConfig(_config(h1, 10.0), horizon=2.0, seed=29, replications=6)
    cpus(1)
    inline = hq.simulate_paths(sim)
    assert opened == []
    cpus(2)
    pooled = hq.simulate_paths(sim)
    for a, b in zip(inline, pooled, strict=True):
        assert a.replication == b.replication
        assert all(np.array_equal(x, y) for x, y in zip(a.times, b.times, strict=True))
