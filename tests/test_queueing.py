import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

import hawkesq as hq
from hawkesq.errors import ConfigurationError
from hawkesq.queueing import queue_verdict, tv_jackknife
from hawkesq.simulate import SERVICE_STREAM, var_of_sample_cov


# --- service models -----------------------------------------------------------

def test_service_inverse_cdf_round_trip():
    models = [hq.ExponentialService(2.0), hq.LogNormalService(0.1, 0.4),
              hq.TabulatedInverseCDFService([0.0, 0.5, 1.0, 2.0, 4.0])]
    u = np.linspace(0.05, 0.95, 19)
    for m in models:
        assert np.allclose(m.cdf(m.inverse_cdf(u)), u, atol=1e-9)
        assert m.cdf(0.0) == 0.0
        assert m.survival(m.survival_cutoff()) <= 1e-9


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


def test_service_validation():
    with pytest.raises(ConfigurationError):
        hq.DeterministicService(0.0)
    with pytest.raises(ConfigurationError):
        hq.TabulatedInverseCDFService([0.1, 0.5])    # F(0) != 0
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


def test_queue_work_conservation(h1):
    # indicator-sum evaluation equals event-driven counting, exactly
    cfg = hq.HawkesConfig(5.0, h1)
    sim = hq.SimConfig(cfg, horizon=12.0, seed=3)
    arrivals = hq.simulate_cluster(sim, 0)
    svc = hq.ExponentialService(0.7)
    t_grid = np.linspace(0.5, 12.0, 40)

    rng = hq.rep_stream(11, 0, 1)
    traj = hq.simulate_queue(arrivals, svc, [4], t_grid, rng)

    rng2 = hq.rep_stream(11, 0, 1)          # same stream -> same service draws
    remaining = np.sort(svc.sample(rng2, 4))
    taus = arrivals.times[0]
    departures = taus + svc.sample(rng2, taus.size)
    events = np.concatenate([remaining, taus, departures])
    deltas = np.concatenate([-np.ones(4), np.ones(taus.size), -np.ones(taus.size)])
    order = np.argsort(events, kind="stable")
    cum = np.cumsum(deltas[order])
    idx = np.searchsorted(events[order], t_grid, side="right")
    counted = 4 + np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)
    assert np.array_equal(traj.q[:, 0], counted.astype(int))


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


def test_queue_range_error(h1):
    arrivals = hq.PointPath((np.array([0.5]),), 1.0)
    with pytest.raises(ConfigurationError):
        hq.simulate_queue(arrivals, hq.ExponentialService(1.0), [0], [2.0],
                          hq.rep_stream(0, 0))


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


def test_steady_state_floor_validation(h1):
    cfg = hq.HawkesConfig(5.0, h1)
    with pytest.raises(ConfigurationError):
        hq.steady_state_sample(cfg, hq.ExponentialService(1.0), 100, seed=1,
                               burn_in=1.0)
    with pytest.raises(ConfigurationError):
        hq.steady_state_sample(cfg, hq.ExponentialService(1.0), 100, seed=1,
                               spacing=0.5)
    with pytest.raises(ConfigurationError):
        hq.steady_state_sample(cfg, hq.ExponentialService(1.0), 100, seed=1,
                               engine="bogus")


def test_steady_state_hawkes_mean(h1):
    cfg = hq.HawkesConfig(20.0, h1)
    sample = hq.steady_state_sample(cfg, hq.ExponentialService(1.0), 4000, seed=12)
    assert abs(sample.mean()[0] - 40.0) < 3.0 * sample.se_mean()[0]


@pytest.mark.parametrize("service", [hq.LogNormalService(0.0, 0.5), hq.DeterministicService(1.0)],
                         ids=["lognormal", "deterministic"])
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
    # contributes mu q0 F0(s) S0(t), the first term of cov_X_general.
    mu, q0, probes = 50.0, 3.0, [0.5, 1.0, 2.0]
    F, F0 = hq.LogNormalService(0.0, 0.5), hq.ExponentialService(2.0)
    sim = hq.SimConfig(hq.HawkesConfig(mu, h1), max(probes), seed=4242, replications=3000)
    q = np.array([hq.simulate_queue(p, F, [int(mu * q0)], probes,
                                    hq.rep_stream(4242, p.replication, SERVICE_STREAM),
                                    initial_service=F0).q[:, 0]
                  for p in hq.simulate_paths(sim)], dtype=float)
    for a, b in itertools.combinations_with_replacement(range(len(probes)), 2):
        emp = float(np.cov(q[:, a], q[:, b])[0, 1])
        se = np.sqrt(var_of_sample_cov(q[:, a], q[:, b]))
        want = mu * hq.cov_X_general(F0, F, q0, phi_h1, probes[a], probes[b])
        assert abs(emp - want) < 4.0 * se, (probes[a], probes[b], emp, want, se)


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
