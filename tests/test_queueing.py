import itertools
import math
import pickle
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

import hawkesq as hq
from hawkesq import queueing
from hawkesq.errors import ConfigurationError
from hawkesq.queueing import queue_verdict, tv_jackknife
from hawkesq.service import _normalize_services
from hawkesq.simulate import SERVICE_STREAM, sample_cov

from dense_reference import event_driven_queue


# --- service models -----------------------------------------------------------

def test_service_inverse_cdf_round_trip():
    models = [hq.ExponentialService(2.0), hq.LogNormalService(0.1, 0.4),
              hq.TabulatedInverseCDFService([0.0, 0.5, 1.0, 2.0, 4.0])]
    u = np.linspace(0.05, 0.95, 19)
    for m in models:
        assert np.allclose(m.cdf(m.inverse_cdf(u)), u, atol=1e-9)
        assert m.cdf(0.0) == 0.0
        assert m.survival(m.survival_cutoff()) <= 1e-9


def test_exponential_sample_is_inverse_cdf_of_uniforms():
    # the sampler transforms its uniforms in place; inverse_cdf leaves its input alone
    svc = hq.ExponentialService(1.7)
    u = hq.rep_stream(3, 0, SERVICE_STREAM).random(10_000)
    kept = u.copy()
    expected = svc.inverse_cdf(u)
    assert np.array_equal(u, kept)
    assert svc.sample(hq.rep_stream(3, 0, SERVICE_STREAM), 10_000).tobytes() == expected.tobytes()
    assert svc.inverse_cdf(0.5) == pytest.approx(math.log(2.0) / 1.7)
    assert isinstance(svc.inverse_cdf(0.5), float)


def test_service_means():
    assert hq.ExponentialService(2.0).mean() == pytest.approx(0.5)
    assert hq.DeterministicService(1.5).mean() == 1.5
    assert hq.LogNormalService(0.0, 1.0).mean() == pytest.approx(np.exp(0.5))
    tab = hq.TabulatedInverseCDFService(np.linspace(0.0, 2.0, 21))
    assert tab.mean() == pytest.approx(1.0)


_TABLE = [0.0, 0.3, 0.5, 1.2, 4.0]


@pytest.mark.parametrize("F,kinks", [(hq.ExponentialService(0.7), []),
                                     (hq.DeterministicService(1.3), [1.3]),
                                     (hq.LogNormalService(0.2, 0.5), []),
                                     (hq.TabulatedInverseCDFService(_TABLE), _TABLE)],
                         ids=["exponential", "deterministic", "lognormal", "tabulated"])
def test_service_survival_integral_matches_quad(F, kinks):
    # I(x) = int_0^x S; quad is told where S jumps or has a kink
    for x in [1e-3, 0.2, 0.5, 1.3, 2.7, 5.0, 12.0]:
        inside = [k for k in kinks if 0.0 < k < x] or None
        ref, _ = quad(F.survival, 0.0, x, points=inside, epsabs=1e-14, epsrel=1e-13, limit=200)
        assert abs(F.survival_integral(x) - ref) <= 1e-12, x
    assert F.survival_integral(1e6) == pytest.approx(F.mean(), rel=1e-13)
    # pytest makes a RuntimeWarning an error, so this also asserts that none is emitted
    assert F.survival_integral(np.inf) == pytest.approx(F.mean(), rel=1e-12, abs=0.0)


def test_service_survival_keeps_tail_precision():
    # 1 - F has only absolute precision in the tail: 1 - cdf(30) of Exp(1) is 1.7e-4 off
    F = hq.ExponentialService(1.0)
    for x in (0.5, 27.6, 30.0):
        assert F.survival(x) == pytest.approx(math.exp(-x), rel=1e-15, abs=0.0)
    G = hq.LogNormalService(0.2, 0.5)
    for x in (1.0, 10.0, 60.0):
        z = (math.log(x) - 0.2) / 0.5
        assert G.survival(x) == pytest.approx(0.5 * math.erfc(z / math.sqrt(2.0)), rel=1e-13,
                                              abs=0.0)
    assert F.survival(-1.0) == 1.0 and G.survival(0.0) == 1.0
    assert np.array_equal(F.survival(np.array([-1.0, 0.0, 2.0])), [1.0, 1.0, math.exp(-2.0)])


def _normal_law_points():
    """u from 1e-300 to 1 - 1e-15 and x from -37.5 to 8.5, each with the region
    boundaries of AS241 (|u - 1/2| = 0.425, r = 5) and the ndtr switch |x| = 1."""
    u = np.concatenate([np.logspace(-300, -1, 300), np.linspace(0.05, 0.95, 181),
                        1.0 - np.logspace(-15, -1, 141),
                        [0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0)]])
    x = np.concatenate([np.linspace(-37.5, 8.5, 461), [-math.sqrt(2.0), math.sqrt(2.0)]])
    return u, x


def test_normal_law_is_exact_to_a_few_ulp():
    # mpmath at 60 digits is the oracle.  Quantiles within 8 ULP.  The CDF
    # within 4 (1 + x^2) eps relative: rounding x / sqrt(2) to a double moves
    # ndtr(x) by about x^2 eps relative.  scipy meets the same bounds.
    from hawkesq.service import _ndtr, _ndtri
    u, x = _normal_law_points()

    def exact_ndtri(v):
        z = mpmath.mpf(_ndtri(v))       # Newton from 1e-16 relative: 1e-32, 1e-64
        for _ in range(3):
            z -= (mpmath.ncdf(z) - v) / mpmath.npdf(z)
        return float(z)

    with mpmath.workdps(60):
        want_ndtri = np.array([exact_ndtri(v) for v in u])
        want_ndtr = np.array([float(mpmath.ncdf(v)) for v in x])
    bound = 4.0 * (1.0 + x**2) * np.finfo(float).eps
    for name, f, g in (("hawkesq", _ndtri, _ndtr), ("scipy", ndtri, ndtr)):
        ulps = np.abs(f(u) - want_ndtri) / np.array([math.ulp(w) for w in want_ndtri])
        assert ulps.max() <= 8.0, (name, u[ulps.argmax()], ulps.max())
        rel = np.abs(g(x) - want_ndtr) / want_ndtr
        assert np.all(rel <= bound), (name, x[(rel / bound).argmax()], (rel / bound).max())
    assert _ndtri(0.5) == 0.0 and _ndtr(0.0) == 0.5
    edges = np.array([0.0, 1.0, -0.5, 1.5, -np.inf, np.inf, np.nan])
    assert np.array_equal(_ndtri(edges), ndtri(edges), equal_nan=True)
    assert _ndtri(0.0) == -np.inf and _ndtri(1.0) == np.inf and math.isnan(_ndtri(1.5))
    assert np.array_equal(_ndtr(np.array([-np.inf, np.inf, np.nan])), [0.0, 1.0, np.nan],
                          equal_nan=True)
    assert type(_ndtr(0.3)) is float and type(_ndtri(0.3)) is float


def test_lognormal_service_is_the_normal_law():
    # every method goes through _ndtr and _ndtri, also after a pickle round trip
    from hawkesq.service import _ndtr, _ndtri
    m, s = 0.2, 0.5
    x = np.array([0.0, 1e-3, 0.4, 1.0, 2.5, 10.0, 60.0])
    u = np.linspace(0.0, 1.0, 11)
    with np.errstate(divide="ignore"):
        z = (np.log(np.maximum(x, 1e-300)) - m) / s
        zi = (np.log(x) - m) / s
    mean = math.exp(m + 0.5 * s**2)
    for F in (hq.LogNormalService(m, s), pickle.loads(pickle.dumps(hq.LogNormalService(m, s)))):
        assert np.array_equal(F.cdf(x), np.where(x > 0, _ndtr(z), 0.0))
        assert np.array_equal(F.survival(x), np.where(x > 0, _ndtr(-z), 1.0))
        assert np.array_equal(F.survival_integral(x), mean * _ndtr(zi - s) + x * _ndtr(-zi))
        assert np.array_equal(F.inverse_cdf(u), np.exp(m + s * _ndtri(u)))
        assert F.survival_cutoff() == math.exp(m + s * _ndtri(1.0 - 1e-12))
        assert vars(F) == {"m": m, "s": s}


def test_lognormal_sample_is_the_lognormal_law():
    # KS test of 200,000 draws against the exact CDF; at a fixed seed the test
    # is deterministic, and for a seed picked at random it would fail 0.1% of
    # the time (the alarm level of the p-value)
    from scipy import stats
    F = hq.LogNormalService(0.2, 0.5)
    draws = F.sample(hq.rep_stream(23, 0), 200_000)
    exact = stats.lognorm(0.5, scale=math.exp(0.2)).cdf
    assert draws.shape == (200_000,) and np.all(draws > 0)
    assert stats.kstest(draws, exact).pvalue > 1e-3


@pytest.mark.parametrize("F, second_moment", [
    (hq.ExponentialService(0.7), 2.0 / 0.7**2),
    (hq.LogNormalService(0.2, 0.5), math.exp(2 * 0.2 + 2 * 0.5**2)),
    (hq.DeterministicService(1.3), 1.3**2),
    # the quantile is linear on each of the four cells of width 1/4
    (hq.TabulatedInverseCDFService(_TABLE),
     sum(0.25 * (a * a + a * b + b * b) / 3.0 for a, b in zip(_TABLE, _TABLE[1:]))),
], ids=["exponential", "lognormal", "deterministic", "tabulated"])
def test_size_biased_draws(F, second_moment):
    # the law x dF(x) / E[S]: mean E[S^2] / E[S] within 4 SEs, and a KS test
    # against its CDF (E[S; S <= x]) / E[S] = (I(x) - x S(x)) / E[S], I the
    # survival integral, at an alarm level of 1e-3 (the seed is fixed)
    from scipy import stats
    draws = F.sample_size_biased(hq.rep_stream(29, 0), 100_000)
    assert draws.shape == (100_000,) and np.all(draws > 0)
    if isinstance(F, hq.DeterministicService):
        assert np.all(draws == F.value)
        return
    mean = second_moment / F.mean()
    assert abs(draws.mean() - mean) < 4.0 * draws.std(ddof=1) / math.sqrt(draws.size)

    def cdf(x):
        return (F.survival_integral(x) - x * F.survival(x)) / F.mean()

    assert stats.kstest(draws, cdf).pvalue > 1e-3


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("build", [lambda: hq.ExponentialService(_NAN),
                                   lambda: hq.ExponentialService(_INF),
                                   lambda: hq.LogNormalService(0.0, _NAN),
                                   lambda: hq.LogNormalService(_NAN, 0.5),
                                   lambda: hq.LogNormalService(_INF, 0.5),
                                   lambda: hq.LogNormalService(0.0, _INF),
                                   lambda: hq.DeterministicService(_NAN),
                                   lambda: hq.TabulatedInverseCDFService([0.0, 1.0, _INF]),
                                   lambda: hq.TabulatedInverseCDFService([0.0, _NAN, 1.0])],
                         ids=["exp-nan", "exp-inf", "logn-s-nan", "logn-m-nan", "logn-m-inf",
                              "logn-s-inf", "det-nan", "tab-inf", "tab-nan"])
def test_service_rejects_non_finite_parameters(build):
    with pytest.raises(ConfigurationError):
        build()


def test_service_validation():
    with pytest.raises(ConfigurationError):
        hq.DeterministicService(0.0)
    with pytest.raises(ConfigurationError):
        hq.TabulatedInverseCDFService([0.1, 0.5])    # F(0) != 0
    assert hq.DeterministicService(math.inf).mean() == math.inf   # the count limit's law
    with pytest.raises(ConfigurationError):
        hq.service_from_dict({"type": "weibull"})
    spec = hq.LogNormalService(0.2, 0.7).to_dict()
    assert hq.service_from_dict(spec).to_dict() == spec


# --- queue evaluation -----------------------------------------------------------

def test_queue_no_arrivals_deterministic_service():
    arrivals = hq.PointPath((np.empty(0),), 3.0)
    rng = hq.rep_stream(0, 0)
    traj = hq.simulate_queue(arrivals, hq.DeterministicService(1.0), [3],
                             [0.0, 0.5, 0.999, 1.0, 2.0], rng)
    assert traj.q[:, 0].tolist() == [3, 3, 3, 0, 0]


def _tie_path():
    # arrivals on a quarter grid, two at once; departures after 2.0 land on
    # arrival times and on probe times exactly
    return hq.PointPath((np.array([1.0, 2.0, 2.0, 3.0, 4.5]),), 6.0)


def _asymmetric_path():
    E = hq.SumOfExponentialsKernel
    km = hq.KernelMatrix([[E([0.3], [1.0]), E([0.1, 0.05], [2.0, 0.5])],
                          [E([0.2], [0.7]), E([0.3], [1.0])]], [1.0, 0.5])
    return hq.simulate_cluster(hq.SimConfig(hq.HawkesConfig(8.0, km), 10.0, seed=4), 1)


def _queue_cases(h1):
    """name: (path, service, initial service, q_init, probe grid)"""
    h1_path = hq.simulate_cluster(hq.SimConfig(hq.HawkesConfig(5.0, h1), 12.0, seed=3))
    ties = (_tie_path(), hq.DeterministicService(2.0), hq.DeterministicService(1.0), [3])
    return {
        "exp": (h1_path, hq.ExponentialService(0.7), None, [4], np.linspace(0.5, 12.0, 40)),
        "ties": ties + (np.arange(0.0, 6.25, 0.25),),
        "unsorted-repeated": ties + ([5.0, 1.0, 5.0, 3.0, 0.0, 1.0],),
        "scalar": ties + (3.0,),
        "empty-class": (hq.PointPath((np.array([0.5, 1.5, 2.5]), np.empty(0)), 4.0),
                        [hq.DeterministicService(1.0), hq.ExponentialService(1.0)], None,
                        [2, 3], [4.0, 0.5, 1.5, 2.5, 0.0]),
        "k2-two-laws": (_asymmetric_path(),
                        [hq.ExponentialService(1.3), hq.LogNormalService(0.0, 0.5)],
                        [hq.DeterministicService(0.5), hq.ExponentialService(2.0)], [5, 2],
                        [7.0, 0.5, 10.0, 0.5, 3.25, 0.0]),
    }


def test_queue_work_conservation(h1):
    # the indicator sum equals event-driven counting exactly, ties included: a
    # customer who departs at a probe time has left, one who arrives at it is there
    for case, (arrivals, service, initial, q_init, t_grid) in _queue_cases(h1).items():
        k = arrivals.dimension
        traj = hq.simulate_queue(arrivals, service, q_init, t_grid, hq.rep_stream(11, 0, 1),
                                 initial_service=initial)
        assert traj.q.shape == (np.size(t_grid), k), case

        rng = hq.rep_stream(11, 0, 1)          # same stream -> same service draws
        laws = _normalize_services(service, k)
        initial = laws if initial is None else _normalize_services(initial, k)
        for d in range(k):
            remaining = initial[d].sample(rng, q_init[d])
            taus = arrivals.times[d]
            departures = taus + laws[d].sample(rng, taus.size)
            counted = event_driven_queue(q_init[d], remaining, taus, departures, t_grid)
            assert np.array_equal(traj.q[:, d], counted), (case, d)


def test_queue_ties_by_hand():
    # initial customers leave at 1.0; arrivals 1, 2, 2, 3, 4.5 leave at 3, 4, 4, 5, 6.5
    traj = hq.simulate_queue(_tie_path(), hq.DeterministicService(2.0), [3],
                             [5.0, 1.0, 5.0, 3.0, 0.0, 4.0], hq.rep_stream(0, 0),
                             initial_service=hq.DeterministicService(1.0))
    assert traj.q[:, 0].tolist() == [1, 1, 1, 3, 3, 1]


def test_queue_mm_infinity_mean():
    cfg = hq.HawkesConfig(5.0, hq.ZERO_KERNEL)
    svc = hq.ExponentialService(1.0)
    t_grid = [1.0, 3.0, 6.0]
    qs = []
    for r in range(10_000):
        arrivals = hq.simulate_cluster(hq.SimConfig(cfg, 6.0, seed=99), r)
        init_rng = hq.rep_stream(99, r, 2)
        q0 = init_rng.poisson(5.0)
        traj = hq.simulate_queue(arrivals, svc, [q0], t_grid, hq.rep_stream(99, r, 1))
        qs.append(traj.q[:, 0])
    qs = np.array(qs, dtype=float)
    se = qs.std(axis=0, ddof=1) / np.sqrt(qs.shape[0])
    assert np.all(np.abs(qs.mean(axis=0) - 5.0) < 3.0 * se)


def test_queue_independence_contract(h1):
    cfg = hq.HawkesConfig(5.0, h1)
    arrivals = hq.simulate_cluster(hq.SimConfig(cfg, 30.0, seed=50), 0)
    svc = hq.ExponentialService(1.0)
    t_grid = np.arange(5.0, 30.0, 1.0)
    a = hq.simulate_queue(arrivals, svc, [10], t_grid, hq.rep_stream(1, 0, 1))
    b = hq.simulate_queue(arrivals, svc, [10], t_grid, hq.rep_stream(2, 0, 1))
    assert not np.array_equal(a.q, b.q)          # samples move with the seed
    pooled_se = np.hypot(a.q[:, 0].std(ddof=1), b.q[:, 0].std(ddof=1)) / np.sqrt(t_grid.size)
    assert abs(a.q.mean() - b.q.mean()) < 3.0 * pooled_se


def test_queue_range_error():
    # a NaN probe passes both range comparisons, so it is refused on its own
    arrivals = hq.PointPath((np.array([0.5]),), 1.0)
    for t_grid in ([2.0], [-0.5], [0.5, math.nan], math.nan):
        with pytest.raises(ConfigurationError):
            hq.simulate_queue(arrivals, hq.ExponentialService(1.0), [0], t_grid,
                              hq.rep_stream(0, 0))
        with pytest.raises(ConfigurationError):
            arrivals.counts_at(t_grid)


# --- steady-state sampling ------------------------------------------------------

def test_steady_state_mm_infinity():
    cfg = hq.HawkesConfig(20.0, hq.ZERO_KERNEL)
    sample = hq.steady_state_sample(cfg, hq.ExponentialService(1.0), 10_000, seed=4)
    mean, var = sample.mean()[0], sample.var()[0]
    assert abs(mean - 20.0) < 3.0 * sample.se_mean()[0]
    assert 0.9 < var / mean < 1.1


def test_steady_state_univariate_equals_k1_matrix(h1):
    # bitwise multiclass reduction: identical streams, identical samples
    uni = hq.HawkesConfig(5.0, h1)
    mat = hq.HawkesConfig(5.0, hq.KernelMatrix([[h1]], [1.0]))
    svc = hq.ExponentialService(1.0)
    a = hq.steady_state_sample(uni, svc, 400, seed=8)
    b = hq.steady_state_sample(mat, svc, 400, seed=8)
    assert np.array_equal(a.samples, b.samples)


@pytest.mark.parametrize("model", ["h1", "quarter"])
def test_steady_state_same_for_any_worker_count(h1, quarter_matrix, cpus, model):
    cfg = hq.HawkesConfig(5.0, h1 if model == "h1" else quarter_matrix)
    samples = []
    for n in (1, 2):
        cpus(n)
        samples.append(hq.steady_state_sample(cfg, hq.ExponentialService(1.0), 400,
                                              seed=23).samples)
    assert samples[0].shape == (25, 16, cfg.dimension)
    assert np.array_equal(samples[0], samples[1])


def _window(sample: hq.SteadyStateSample, config):
    """The probe times and the SimConfig of the thinning replications of
    `sample`, whose arrivals start empty at 0."""
    per_rep = sample.samples.shape[1]
    t_grid = sample.burn_in + sample.spacing * np.arange(per_rep)
    sim = hq.SimConfig(config, sample.burn_in + sample.spacing * (per_rep - 1) + 1e-9,
                       sample.seed, burn_in=0.0, engine="thinning")
    return t_grid, sim


@pytest.mark.parametrize("model", ["h1", "asymmetric"])
def test_steady_state_thinning_is_the_path_composition(h1, phi_asymmetric, model):
    # thinning reads its whole history, so its replication is one part: the
    # queue of the whole thinning path, from empty arrivals and an empty queue at 0
    if model == "h1":
        config, services = hq.HawkesConfig(5.0, h1), [hq.ExponentialService(1.0)]
    else:
        config = hq.HawkesConfig(2.0, phi_asymmetric.kernel)
        services = [hq.ExponentialService(1.0), hq.LogNormalService(0.0, 0.5)]
    sample = hq.steady_state_sample(config, services, 75, seed=19, engine="thinning")
    t_grid, sim = _window(sample, config)
    empty = np.zeros(config.dimension, dtype=int)
    for r, got in enumerate(sample.samples):
        svc_rng = hq.rep_stream(sample.seed, r, SERVICE_STREAM)
        want = hq.simulate_queue(hq.simulate_thinning(sim, r), services, empty, t_grid, svc_rng)
        assert np.array_equal(got, want.q)


def test_stationary_block_memory_is_bounded(h1):
    # h1 at mu = 200 offers 400 proposals per draw.  Blocks of 1.8 and of 18
    # chunks' worth of proposals, held in 2 and in 18 or 19 chunks, peak alike,
    # below 5e6 bytes of tracemalloc, and so does one draw of 1.8 chunks' worth
    services, chunk = [hq.ExponentialService(1.0)], queueing._CHUNK_PROPOSALS
    per_rep = int(1.8 * chunk / 400.0)
    queueing._stationary_block(hq.HawkesConfig(200.0, h1), services, 1, 3, 0)  # warm-up
    peaks = []
    for mu, n in ((200.0, per_rep), (200.0, 10 * per_rep), (0.9 * chunk, 1)):
        tracemalloc.start()
        try:
            q = queueing._stationary_block(hq.HawkesConfig(mu, h1), services, n, 3, 0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert q.shape == (n, 1) and 0.8 < q.mean() / (2.0 * mu) < 1.2, (mu, n)
    assert max(peaks) < 5e6 and max(peaks) < 1.25 * min(peaks), peaks


def test_steady_state_in_blocks_keeps_the_law(h1):
    # h1 at mu = 200, each block of 160 draws handled in three chunks of
    # proposals: the mean mu lambda_bar E[S] = 400 and the variance
    # mu Var X_e(inf) = 600, each within 4 block SEs
    mu = 200.0
    config = hq.HawkesConfig(mu, h1)
    sample = hq.steady_state_sample(config, hq.ExponentialService(1.0), 4000, seed=3)
    assert sample.samples.shape[1] * 2.0 * mu > 2 * queueing._CHUNK_PROPOSALS
    mean_z = (sample.mean()[0] - mu * config.kernel_matrix().branching_vector()[0]) \
        / sample.se_mean()[0]
    var_z = (sample.var()[0] - mu * hq.var_xe_infty(h1)) / sample.se_var()[0]
    assert abs(mean_z) < 4.0 and abs(var_z) < 4.0


def test_steady_state_burn_in_is_at_least_the_engine_burn_in():
    # thinning starts its arrivals empty at 0 with the queue, so the first probe
    # waits for the engine's leak bound where it is the longer warm-up: here
    # about 353 against 10 E[S] + 10 corr_scale = 30
    config = hq.HawkesConfig(5.0, hq.PowerLawKernel(1.0, 3.5, 1.25))
    want = hq.default_burn_in(config)
    assert want > 300.0
    sample = hq.steady_state_sample(config, hq.ExponentialService(1.0), 3, seed=2,
                                    engine="thinning")
    assert sample.burn_in == want
    with pytest.raises(ConfigurationError, match="below the floor"):
        hq.steady_state_sample(config, hq.ExponentialService(1.0), 75, seed=2,
                               engine="thinning", burn_in=0.5 * want)


@pytest.mark.parametrize("kernel, message", [
    (hq.PowerLawKernel(1.0, 2.0, 0.5), "burn-in tail bound diverges"),
    (hq.PowerLawKernel(1.0, 2.1, 0.5), "burn-in bias bound unattainable"),
], ids=["g2", "g2.1"])
def test_steady_state_refuses_a_tail_without_a_burn_in(kernel, message):
    # thinning is refused with the error of default_burn_in, with or without an
    # explicit burn-in; the exact draws of the cluster engine need no burn-in
    config = hq.HawkesConfig(5.0, kernel)
    with pytest.raises(ConfigurationError, match=message):
        hq.default_burn_in(config)
    for window in ({}, {"burn_in": 1e6}):
        with pytest.raises(ConfigurationError, match=message):
            hq.steady_state_sample(config, hq.ExponentialService(1.0), 75, seed=2,
                                   engine="thinning", **window)
    sample = hq.steady_state_sample(config, hq.ExponentialService(1.0), 75, seed=2,
                                    burn_in=1e6)
    assert sample.samples.shape == (25, 3, 1) and sample.burn_in is None


def test_steady_state_heavy_tail_matches_the_exact_moments():
    # g = 2: offsets without a mean, refused by thinning's burn-in above.  The
    # exact draws match the mean 10 and variance 13.41 of gaussian_queue_approx
    # (Exp(1) service, from the power law's exponential sum), each within 4 SEs
    kernel, mu, service = hq.PowerLawKernel(1.0, 2.0, 0.5), 5.0, hq.ExponentialService(1.0)
    sample = hq.steady_state_sample(hq.HawkesConfig(mu, kernel), service, 20_000, seed=5)
    target = hq.gaussian_queue_approx(mu, kernel, service=service)
    assert abs(sample.mean()[0] - target.mean) < 4.0 * sample.se_mean()[0]
    assert abs(sample.var()[0] - target.sigma**2) < 4.0 * sample.se_var()[0]


def test_steady_state_floor_validation(h1):
    cfg = hq.HawkesConfig(5.0, h1)
    with pytest.raises(ConfigurationError, match="below the floor"):
        hq.steady_state_sample(cfg, hq.ExponentialService(1.0), 100, seed=1,
                               engine="thinning", burn_in=1.0)
    with pytest.raises(ConfigurationError, match="below the floor"):
        hq.steady_state_sample(cfg, hq.ExponentialService(1.0), 100, seed=1,
                               engine="thinning", spacing=0.5)
    with pytest.raises(ConfigurationError):
        hq.steady_state_sample(cfg, hq.ExponentialService(1.0), 100, seed=1,
                               engine="bogus")
    # the cluster engine has no floors, and reports no window
    sample = hq.steady_state_sample(cfg, hq.ExponentialService(1.0), 100, seed=1,
                                    burn_in=1.0, spacing=0.5)
    assert sample.burn_in is None and sample.spacing is None
    # NaN passes every floor comparison, and an infinite window has no last probe
    for engine in ("cluster", "thinning"):
        for window in ({"burn_in": math.nan}, {"burn_in": math.inf},
                       {"spacing": math.nan}, {"spacing": math.inf}):
            with pytest.raises(ConfigurationError, match="must be finite"):
                hq.steady_state_sample(cfg, hq.ExponentialService(1.0), 100, seed=1,
                                       engine=engine, **window)
        for window in ({"burn_in": -1.0}, {"spacing": -1.0}):
            with pytest.raises(ConfigurationError, match="must not be negative"):
                hq.steady_state_sample(cfg, hq.ExponentialService(1.0), 100, seed=1,
                                       engine=engine, **window)


def test_se_cov_is_the_replication_jackknife():
    # the totals-minus-own-sums jackknife against leave-one-out covariances recomputed
    rng = np.random.default_rng(8)
    base = rng.poisson(20.0, size=(30, 15, 1))
    samples = np.concatenate([base + rng.poisson(5.0, size=base.shape),
                              base + rng.poisson(9.0, size=base.shape)], axis=2)
    sample = hq.SteadyStateSample(samples, seed=0, burn_in=0.0, spacing=1.0)
    reps = samples.shape[0]
    loo = np.array([np.cov(np.delete(samples, r, axis=0).reshape(-1, 2).T)
                    for r in range(reps)])
    want = np.sqrt((reps - 1) / reps * ((loo - loo.mean(axis=0)) ** 2).sum(axis=0))
    assert np.allclose(sample.se_cov(), want, rtol=1e-10, atol=0.0)
    assert np.array_equal(sample.se_var(), np.diag(sample.se_cov()))
    assert np.array_equal(sample.var(), np.diag(sample.cov()))


def test_steady_state_hawkes_mean(h1):
    cfg = hq.HawkesConfig(20.0, h1)
    sample = hq.steady_state_sample(cfg, hq.ExponentialService(1.0), 4000, seed=12)
    assert abs(sample.mean()[0] - 40.0) < 3.0 * sample.se_mean()[0]


def test_steady_state_mixture_has_the_exact_law(h2):
    # h2 has two exponential components, whose offsets come one block per
    # component and are paired with spines at random.  Exp(1) service at
    # mu = 100: mean 2 mu and variance mu Var X_e(inf) = mu 88/35 exactly, each
    # within 4 SEs (test_steady_state_in_blocks_keeps_the_law checks h1)
    mu = 100.0
    sample = hq.steady_state_sample(hq.HawkesConfig(mu, h2), hq.ExponentialService(1.0),
                                    10_000, seed=31)
    assert sample.n_samples == 10_000
    assert abs(sample.mean()[0] - 2.0 * mu) < 4.0 * sample.se_mean()[0]
    assert abs(sample.var()[0] - mu * 88.0 / 35.0) < 4.0 * sample.se_var()[0]


def test_exact_draws_do_not_depend_on_their_place_in_a_block(h2):
    # the spine offsets of h2 come one block per component; were they not
    # paired with the spines at random, the first draws of every block would
    # take the slow component's offsets and the last the fast one's (variances
    # 243 and 277 at 80,000 draws).  The variances of the first and of the
    # last fifth of the blocks' draws agree within 4 SEs (iid draws, so the
    # SEs of `sample_cov`)
    sample = hq.steady_state_sample(hq.HawkesConfig(100.0, h2), hq.ExponentialService(1.0),
                                    40_000, seed=37)
    fifth = sample.samples.shape[1] // 5
    (va, sa), (vb, sb) = (sample_cov(part.reshape(-1, 1)) for part in
                          (sample.samples[:, :fifth], sample.samples[:, -fifth:]))
    assert abs(va[0, 0] - vb[0, 0]) < 4.0 * math.hypot(sa[0, 0], sb[0, 0])


def test_exact_draws_agree_with_thinning(h2):
    # two independent constructions of the stationary queue of h2 at mu = 2 with
    # Exp(1) service: exact draws of the cluster engine against spaced probes of
    # long thinning replications.  Mean and variance, each by the z of their
    # difference over the root sum of squared SEs; at |z| < 3.5 the two checks
    # raise a false alarm with probability at most 2 * 4.7e-4 = 0.093%
    config, service = hq.HawkesConfig(2.0, h2), hq.ExponentialService(1.0)
    exact = hq.steady_state_sample(config, service, 20_000, seed=41)
    thinned = hq.steady_state_sample(config, service, 1000, seed=41, engine="thinning")
    for stat, se in (("mean", "se_mean"), ("var", "se_var")):
        gap = getattr(exact, stat)()[0] - getattr(thinned, stat)()[0]
        z = gap / math.hypot(getattr(exact, se)()[0], getattr(thinned, se)()[0])
        assert abs(z) < 3.5, (stat, z)


def test_steady_state_asymmetric_classes(phi_asymmetric):
    # k = 2 with four distinct entries and an Exp(1) and a LogNormal(0, 0.5)
    # class: mean lambda_i E[S_i] and covariance mu * steady_state_variance of
    # the queue limit, each within 4 block SEs
    mu, services = 50.0, [hq.ExponentialService(1.0), hq.LogNormalService(0.0, 0.5)]
    config = hq.HawkesConfig(mu, phi_asymmetric.kernel)
    sample = hq.steady_state_sample(config, services, 10_000, seed=709)
    target = mu * hq.queue_limit_model(phi_asymmetric, services, services,
                                       q0=0.0).steady_state_variance
    mean = config.mean_rate_vector() * [F.mean() for F in services]
    assert np.all(np.abs(sample.mean() - mean) < 4.0 * sample.se_mean())
    assert np.all(np.abs(sample.cov() - target) < 4.0 * sample.se_cov())


@pytest.mark.parametrize("service", [hq.LogNormalService(0.0, 0.5), hq.DeterministicService(1.0),
                                     hq.TabulatedInverseCDFService(_TABLE)],
                         ids=["lognormal", "deterministic", "tabulated"])
def test_steady_state_non_exponential_service(h1, phi_h1, service):
    # mean lambda_bar E[S] (lambda_bar = 2 mu for h1) and variance mu var_X_infty(F, phi),
    # each within 4 jackknife SEs
    mu = 20.0
    sample = hq.steady_state_sample(hq.HawkesConfig(mu, h1), service, 4000, seed=11)
    mean_z = (sample.mean()[0] - 2.0 * mu * service.mean()) / sample.se_mean()[0]
    var_z = (sample.var()[0] - mu * hq.var_X_infty(service, phi_h1)) / sample.se_var()[0]
    assert abs(mean_z) < 4.0 and abs(var_z) < 4.0


def test_steady_state_k_classes_two_service_laws(quarter_matrix, phi_quarter):
    # the k-class queue limit with a different law per class: mean lambda_i E[S_i]
    # and covariance mu * steady_state_variance, each within 3 replication SEs
    mu, services = 100.0, [hq.LogNormalService(0.0, 0.5), hq.DeterministicService(1.0)]
    config = hq.HawkesConfig(mu, quarter_matrix)
    sample = hq.steady_state_sample(config, services, 4000, seed=708)
    model = hq.queue_limit_model(phi_quarter, services, services, q0=0.0)
    target = mu * model.steady_state_variance
    mean = config.mean_rate_vector() * [F.mean() for F in services]
    assert np.all(np.abs(sample.mean() - mean) < 3.0 * sample.se_mean())
    assert np.all(np.abs(sample.cov() - target) < 3.0 * sample.se_cov())


def test_transient_covariance_initial_service(h1, phi_h1):
    # A fixed initial count mu q0 whose customers leave independently under F0
    # contributes mu q0 F0(s) S0(t), the first term of the queue limit's covariance.
    mu, q0, probes = 50.0, 3.0, [0.5, 1.0, 2.0]
    F, F0 = hq.LogNormalService(0.0, 0.5), hq.ExponentialService(2.0)
    sim = hq.SimConfig(hq.HawkesConfig(mu, h1), max(probes), seed=4242, replications=3000)
    model = hq.queue_limit_model(phi_h1, F0, F, q0)
    q = np.array([hq.simulate_queue(p, F, [int(mu * q0)], probes,
                                    hq.rep_stream(4242, p.replication, SERVICE_STREAM),
                                    initial_service=F0).q[:, 0]
                  for p in hq.simulate_paths(sim)], dtype=float)
    emp, se = sample_cov(q)
    for a, b in itertools.combinations_with_replacement(range(len(probes)), 2):
        want = mu * model.cov(probes[a], probes[b])
        assert abs(emp[a, b] - want) < 4.0 * se[a, b], (probes[a], probes[b], emp, want, se)


# --- distribution comparison -----------------------------------------------------

def test_compare_identical_pmfs():
    approx = hq.GaussianQueueApprox(20.0, np.sqrt(20.0))
    support = np.arange(0, 200)
    pmf = approx.pmf(support)
    draws = np.repeat(support, np.round(pmf * 100_000).astype(int))
    report = hq.compare_distributions(draws, approx)
    assert report.tv_distance < 5e-3
    assert report.max_abs_gap < 1e-3


class _Target:
    """A target pmf with the .mean, .sigma, .pmf of GaussianQueueApprox."""

    def __init__(self, mean, var, pmf):
        self.mean, self.sigma, self.pmf = mean, np.sqrt(var), pmf


def test_tv_jackknife_removes_the_sampling_bias():
    # 25 replications of 160 iid Poisson(20) draws, 40 times over.  The plug-in
    # TV to the Poisson pmf itself (law TV 0) and to N(20, 20) (law TV 0.028)
    # is biased up by the sampling.  The jackknife keeps under half of that
    # bias at law TV 0, where the bias is of order n^{-1/2}, and is centred on
    # the law's TV away from 0.
    from scipy import stats
    targets = [_Target(20.0, 20.0, lambda q: stats.poisson.pmf(q, 20.0)),
               hq.GaussianQueueApprox(20.0, np.sqrt(20.0))]
    support = np.arange(200)
    law_tv = np.array([0.0, 0.5 * np.abs(stats.poisson.pmf(support, 20.0)
                                         - targets[1].pmf(support)).sum()])
    rng = hq.rep_stream(31, 0)
    plug, jack = [], []
    for _ in range(40):
        sample = hq.SteadyStateSample(rng.poisson(20.0, size=(25, 160, 1)), 31, 0.0, 1.0)
        reports = [hq.compare_distributions(sample.pooled(0), t) for t in targets]
        plug.append([r.tv_distance for r in reports])
        jack.append([tv_jackknife(sample, r) for r in reports])
    plug_bias = np.mean(plug, axis=0) - law_tv
    jack_bias = np.mean(jack, axis=0) - law_tv
    se = np.std(jack, axis=0, ddof=1) / np.sqrt(len(jack))
    assert np.all(plug_bias > 0.008)
    assert np.all(np.abs(jack_bias) < 0.6 * plug_bias)
    assert abs(jack_bias[1]) < 3 * se[1]


def test_tv_gate_rejects_the_wrong_target(h1):
    # the sample of test_validate_queue_general_service: h1, mu = 20, Exp(2)
    # service, 4,000 draws, seed 7.  Its law is 0.040 in TV from the Gaussian
    # target (from the exact cluster pgf of the queue, in a scratch evaluation).
    sample = hq.steady_state_sample(hq.HawkesConfig(20.0, h1), hq.ExponentialService(2.0),
                                    4000, seed=7)
    right = hq.gaussian_queue_approx(20.0, h1, service=hq.ExponentialService(2.0))
    # the pre-0.3.0 target: Exp(1) service in place of Exp(2)
    wrong = hq.gaussian_queue_approx(20.0, h1, service=hq.ExponentialService(1.0))
    # two bumps N(20 -+ 3.8, 26 - 3.8^2) with the right mean and variance, 0.080
    # in TV from the law, so only the TV gate can reject them
    bumps = _Target(20.0, 26.0, lambda q: 0.5 * sum(
        hq.GaussianQueueApprox(m, np.sqrt(26.0 - 3.8**2)).pmf(q) for m in (16.2, 23.8)))
    verdicts = [queue_verdict(sample, hq.compare_distributions(sample.pooled(0), t), t)
                for t in (right, wrong, bumps)]
    assert [v["pass"] for v in verdicts] == [True, False, False]
    assert verdicts[2]["mean_z"] < 3.0 and verdicts[2]["var_rel_gap"] < 0.05
    assert verdicts[2]["tv_jackknife"] > 0.05 > verdicts[0]["tv_jackknife"]


def test_compare_poisson_to_gaussian():
    rng = hq.rep_stream(77, 0)
    draws = rng.poisson(20.0, size=10_000)
    report = hq.compare_distributions(draws, hq.GaussianQueueApprox(20.0, np.sqrt(20.0)))
    assert report.tv_distance < 0.1
    with pytest.raises(ConfigurationError):
        hq.compare_distributions(np.empty(0), hq.GaussianQueueApprox(1.0, 1.0))
