"""Acceptance suite: every numbered criterion prints one PASS/FAIL line.

Criterion 1 checks the two-term Laplace constants of the worked example.  R
and M are pinned to the published four-decimal values.  Xtilde and the
steady-state variance are pinned to the values of the system the pipeline
equations define, (I - M) Xtilde = R: Xtilde = (6/5, 1/5) and variance
88/35, which a spectral-density quadrature confirms independently.  The
published Xtilde = (1.1745, 0.3333) and variance 2.5246 are the row-times-
inverse R (I - M)^{-1}, i.e. the solution of the transposed system; a
separate sub-check pins them as exactly that slip.
"""
import dataclasses
import time

import numpy as np
import pytest
from scipy.integrate import quad

import hawkesq as hq
from hawkesq.simulate import sample_cov

import oracles


def _emit(capsys, n, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE {n}: {status}{' — ' + detail if detail else ''}")


def _check(results, name, ok, detail):
    results.append((name, bool(ok), detail))
    return ok


def _spectral_var_xe_h2():
    """Var(X_e(inf)) for h2 from the spectral density of the stationary count.

    With g(w) = |1 - h^(iw)|^-2 - 1 (Hawkes 1971), the exponential-service
    queue variance is (1/(1-||h||)) (1 + (1/2pi) int g(w) / (1 + w^2) dw).
    The transform is written out here so the check does not go through
    hawkesq.
    """
    def h_hat(w):
        return 0.1 / (1j * w + 0.25) + 0.4 / (1j * w + 4.0)

    def integrand(w):
        return (1.0 / abs(1.0 - h_hat(w)) ** 2 - 1.0) / (1.0 + w * w)

    norm = 0.1 / 0.25 + 0.4 / 4.0
    # the integrand is even in w, so integrate over w >= 0 and double
    half, _ = quad(integrand, 0.0, np.inf, epsabs=1e-14, epsrel=1e-14, limit=500)
    return (1.0 + half / np.pi) / (1.0 - norm)


def test_criterion_1_example2_constants(h2, capsys):
    start = time.perf_counter()
    pipe = hq.laplace_pipeline(h2)
    var = hq.var_xe_infty(h2)
    elapsed = time.perf_counter() - start

    spectral = _spectral_var_xe_h2()
    # the published constants: row-times-inverse and the variance it implies
    slip = pipe.R @ np.linalg.inv(np.eye(2) - pipe.M)
    slip_var = dataclasses.replace(pipe, Xtilde=slip).phi_tilde(1.0) + 1.0 / (1.0 - pipe.norm)

    results = []
    _check(results, "R", np.allclose(pipe.R, [0.8333, 0.1587], atol=5e-4),
           f"R = {np.round(pipe.R, 5).tolist()}")
    _check(results, "M", np.allclose(pipe.M, [[0.2833, 0.1333], [0.0254, 0.054]],
                                     atol=5e-4),
           f"M = {np.round(pipe.M, 5).tolist()}")
    _check(results, "residual", pipe.residual <= 1e-10, f"{pipe.residual:.2e}")
    _check(results, "Xtilde", np.allclose(pipe.Xtilde, oracles.H2_XTILDE, rtol=0, atol=1e-10),
           f"Xtilde = {pipe.Xtilde.tolist()} vs exact {oracles.H2_XTILDE}")
    _check(results, "var_xe_infty", abs(var - oracles.H2_VAR_XE) <= 1e-10,
           f"var = {var:.15f} vs 88/35 = {oracles.H2_VAR_XE:.15f}")
    _check(results, "spectral", abs(spectral - oracles.H2_VAR_XE) <= 1e-8,
           f"spectral quadrature {spectral:.12f} vs 88/35")
    _check(results, "published-slip",
           np.allclose(slip, oracles.H2_XTILDE_PUBLISHED, rtol=0, atol=5e-4)
           and abs(slip_var - oracles.H2_VAR_XE_PUBLISHED) < 5e-4,
           f"R (I-M)^-1 = {np.round(slip, 6).tolist()}, var {slip_var:.6f} vs published "
           f"{oracles.H2_XTILDE_PUBLISHED}, {oracles.H2_VAR_XE_PUBLISHED}")
    _check(results, "runtime", elapsed < 1.0, f"{elapsed:.3f}s")

    ok = all(r[1] for r in results)
    _emit(capsys, 1, ok, "; ".join(f"{n}:{'ok' if o else 'FAIL'}" for n, o, _ in results))
    if not ok:
        failures = "\n  ".join(f"{n}: {d}" for n, o, d in results if not o)
        pytest.fail("criterion 1 sub-checks failed:\n  " + failures)


def test_criterion_2_example1_closed_forms(h1, capsys):
    start = time.perf_counter()
    var1_exact = hq.var_xe_infty_exponential(0.5, 1.0)
    phi = hq.solve_phi_grid(h1, dt=0.01, t_max=40.0)
    var_grid = hq.var_xe_infty(h1, phi=phi, method="grid")
    slope = hq.asymptotic_slope(h1)
    offset = hq.asymptotic_offset(h1)
    elapsed = time.perf_counter() - start

    ok = (abs(var1_exact - 3.0) < 1e-12 and abs(var_grid - 3.0) < 1e-3
          and slope == 8.0 and abs(offset - (-12.0)) < 5e-2
          and abs(oracles.H1_OFFSET - (-12.0)) == 0.0 and elapsed < 5.0)
    _emit(capsys, 2, ok,
          f"VAR1 = {var1_exact}, grid = {var_grid:.6f}, slope = {slope}, "
          f"offset = {offset:.4f}, {elapsed:.2f}s")
    assert abs(var1_exact - 3.0) < 1e-12
    assert abs(var_grid - 3.0) < 1e-3
    assert slope == 8.0
    assert abs(offset + 12.0) < 5e-2       # Bartlett integral vs closed form
    assert elapsed < 5.0


def _figure_run(kernel, mu, n_samples, seed, spacing=None):
    cfg = hq.HawkesConfig(mu, kernel)
    sample = hq.steady_state_sample(cfg, hq.ExponentialService(1.0), n_samples,
                                    seed=seed, spacing=spacing)
    return sample


def _figure_checks(kernel, var_xe_target, mu_small_seed, mu_big_seed, capsys, n,
                   spacing=None, big_samples=60_000):
    checks = []
    sample = _figure_run(kernel, 20.0, 10_000, mu_small_seed, spacing)
    mean, se = sample.mean()[0], sample.se_mean()[0]
    _check(checks, "mu20-mean", abs(mean - 40.0) < 3 * se,
           f"mean {mean:.2f} (se {se:.3f})")
    var = sample.var()[0]
    _check(checks, "mu20-var", abs(var - var_xe_target * 20.0) < 0.05 * var_xe_target * 20.0,
           f"var {var:.2f} vs {var_xe_target * 20.0:.2f}")

    sample = _figure_run(kernel, 100.0, big_samples, mu_big_seed, spacing)
    mean, se = sample.mean()[0], sample.se_mean()[0]
    _check(checks, "mu100-mean", abs(mean - 200.0) < 3 * se,
           f"mean {mean:.2f} (se {se:.3f})")
    var = sample.var()[0]
    _check(checks, "mu100-var", abs(var - var_xe_target * 100.0) < 0.05 * var_xe_target * 100.0,
           f"var {var:.2f} vs {var_xe_target * 100.0:.2f}")
    approx = hq.gaussian_queue_approx(100.0, kernel)
    report = hq.compare_distributions(sample.pooled(0), approx)
    _check(checks, "mu100-tv", report.tv_distance < 0.05,
           f"tv {report.tv_distance:.4f}")

    ok = all(c[1] for c in checks)
    _emit(capsys, n, ok, "; ".join(f"{c[0]}:{c[2]}" for c in checks))
    assert ok, checks
    return checks


def test_criterion_3_figure1_reproduction(h1, capsys):
    # Criterion pins variance to 3*mu within 5% against >= 1e4 samples;
    # the mu = 100 runs use more samples to push the TV noise floor down.
    _figure_checks(h1, 3.0, mu_small_seed=301, mu_big_seed=302, capsys=capsys, n=3)


def test_criterion_4_figure2_reproduction(h2, capsys):
    # The 5% variance band is centred on the exact steady-state variance
    # 88/35*mu (the published 2.5246 is the transposed-system slip pinned in
    # criterion 1).  Slow cluster mode (decay 0.138) needs wider sample spacing.
    _figure_checks(h2, oracles.H2_VAR_XE, mu_small_seed=401,
                   mu_big_seed=402, capsys=capsys, n=4, spacing=15.0)


def test_criterion_5_fclt_desk_scale(h1, capsys):
    mu, reps = 100.0, 5000
    cfg = hq.HawkesConfig(mu, h1)
    sim = hq.SimConfig(cfg, horizon=5.0, seed=505, replications=reps)
    paths = hq.simulate_paths(sim)
    probe = [1.0, 2.0, 5.0]
    counts = np.stack([p.counts_at(probe) for p in paths])[:, :, 0].astype(float)
    lam = cfg.mean_rate()
    scaled = (counts - lam * np.asarray(probe)[None, :]) / np.sqrt(mu)

    cov, se = sample_cov(scaled)
    checks = []
    for a, t in enumerate(probe):
        v = cov[a, a]
        _check(checks, f"var@{t:g}", abs(v - oracles.K1(t)) < 3 * se[a, a],
               f"{v:.3f} vs K = {oracles.K1(t):.3f} (se {se[a, a]:.3f})")
    c, target = cov[0, 1], oracles.covG1(1.0, 2.0)
    _check(checks, "cov(1,2)", abs(c - target) < 3 * se[0, 1],
           f"{c:.3f} vs {target:.3f} (se {se[0, 1]:.3f})")

    ok = all(x[1] for x in checks)
    _emit(capsys, 5, ok, "; ".join(f"{x[0]}:{x[2]}" for x in checks))
    assert ok, checks


def test_criterion_6_solver_property_suite(h1, phi_h1, K_h1, capsys):
    checks = []
    _check(checks, "residual", phi_h1.residual < 1e-6, f"{phi_h1.residual:.2e}")
    _check(checks, "nonneg", phi_h1.values.min() >= -1e-9,
           f"min {phi_h1.values.min():.2e}")
    second = np.diff(K_h1.values, 2)
    _check(checks, "convex", second.min() >= -1e-9, f"min d2 {second.min():.2e}")
    lip = (1.0 / (1.0 - phi_h1.norm) + 2.0 * float(phi_h1.l1()) + 1e-9) * phi_h1.dt
    _check(checks, "lipschitz", np.diff(K_h1.values).max() <= lip,
           f"max dK {np.diff(K_h1.values).max():.5f} <= {lip:.5f}")

    # stationary increments across the grid
    t = phi_h1.t
    _, psi2 = phi_h1.cumulative()
    K = K_h1.values
    worst = 0.0
    for i in range(1, t.size, 61):
        cov = t[i] / (1.0 - phi_h1.norm) + psi2[i] + psi2[i:] - psi2[:t.size - i]
        worst = max(worst, float(np.abs(K[i:] + K[i] - 2.0 * cov - K[:t.size - i]).max()))
    _check(checks, "stationary-increments", worst < 1e-6, f"sup {worst:.2e}")

    g = lambda s, tt: hq.limit_covariance_G(phi_h1, K_h1, s, tt)
    witness = g(1, 3) * g(2, 2) - g(1, 2) * g(2, 3)
    _check(checks, "non-markov", abs(witness) > 1e-6, f"witness {witness:.4f}")

    cfg = hq.HawkesConfig(10.0, h1)
    reps = 3000
    mc = hq.empirical_moments(
        hq.simulate_paths(hq.SimConfig(cfg, 2.0, seed=606, replications=reps)), [2.0])
    mt = hq.empirical_moments(
        hq.simulate_paths(hq.SimConfig(cfg, 2.0, seed=607, engine="thinning",
                                       replications=reps)), [2.0])
    dm = abs(mc.mean[0, 0] - mt.mean[0, 0])
    dv = abs(mc.var[0, 0] - mt.var[0, 0])
    _check(checks, "engines-mean", dm < 3 * np.hypot(mc.se_mean[0, 0], mt.se_mean[0, 0]),
           f"gap {dm:.3f}")
    _check(checks, "engines-var", dv < 3 * np.hypot(mc.se_var[0, 0], mt.se_var[0, 0]),
           f"gap {dv:.3f}")

    ok = all(x[1] for x in checks)
    _emit(capsys, 6, ok, "; ".join(f"{x[0]}:{x[2]}" for x in checks))
    assert ok, checks


def test_criterion_7_multivariate_suite(h1, quarter_matrix, phi_quarter, capsys):
    checks = []
    # decoupled: two independent copies of the scalar model
    km = hq.KernelMatrix([[h1, hq.ZERO_KERNEL], [hq.ZERO_KERNEL, h1]], [1.0, 1.0])
    phi_dec = hq.solve_multivariate_phi(km, dt=0.02, t_max=40.0)
    off = max(float(np.abs(phi_dec.values[:, 0, 1]).max()),
              float(np.abs(phi_dec.values[:, 1, 0]).max()))
    _check(checks, "decoupled-analytic", off < 1e-8, f"offdiag sup {off:.2e}")

    cfg = hq.HawkesConfig(10.0, km)
    paths = hq.simulate_paths(hq.SimConfig(cfg, 4.0, seed=707, replications=4000))
    c, se = (m[0, 1] for m in sample_cov(np.stack([p.counts_at([4.0]) for p in paths])[:, 0, :]))
    _check(checks, "decoupled-empirical", abs(c) < 3 * se, f"cross-cov {c:.2f} (se {se:.2f})")

    sym = float(np.abs(phi_quarter.values[:, 0, 1] - phi_quarter.values[:, 1, 0]).max())
    _check(checks, "phi-symmetry", sym <= 1e-12, f"sup gap {sym:.2e}")

    mu = 100.0
    ss_target = mu * hq.steady_state_cov_multi(phi_quarter, [1.0, 1.0])
    sample = hq.steady_state_sample(hq.HawkesConfig(mu, quarter_matrix),
                                    hq.ExponentialService(1.0), 4000, seed=708)
    cov = sample.cov()
    se_cov = sample.se_cov()
    for i, j in ((0, 0), (0, 1), (1, 1)):
        _check(checks, f"queue-cov{i}{j}",
               abs(cov[i, j] - ss_target[i, j]) < 3 * se_cov[i, j],
               f"{cov[i, j]:.1f} vs {ss_target[i, j]:.1f} (se {se_cov[i, j]:.2f})")

    ok = all(x[1] for x in checks)
    _emit(capsys, 7, ok, "; ".join(f"{x[0]}:{x[2]}" for x in checks))
    assert ok, checks


def test_criterion_8_poisson_degeneracies(capsys):
    checks = []
    phi = hq.solve_phi_grid(hq.ZERO_KERNEL, dt=0.02, t_max=40.0)
    _check(checks, "phi-zero", float(np.abs(phi.values).max()) == 0.0, "phi == 0")
    K = hq.variance_function(phi)
    _check(checks, "K-linear", abs(K.at(7.0) - 7.0) < 1e-12, f"K(7) = {K.at(7.0)}")
    cov = hq.limit_covariance_G(phi, K, 3.0, 9.0)
    _check(checks, "brownian-cov", abs(cov - 3.0) < 1e-12, f"cov(3,9) = {cov}")
    v = hq.var_X_infty(hq.ExponentialService(0.5), phi)
    _check(checks, "var-x-infty", abs(v - 2.0) < 1e-9, f"{v:.6f} (mean service 2)")

    cfg = hq.HawkesConfig(20.0, hq.ZERO_KERNEL)
    sample = hq.steady_state_sample(cfg, hq.ExponentialService(1.0), 10_000, seed=808)
    ratio = sample.var()[0] / sample.mean()[0]
    _check(checks, "mm-infinity", 0.9 < ratio < 1.1, f"var/mean {ratio:.3f}")

    ok = all(x[1] for x in checks)
    _emit(capsys, 8, ok, "; ".join(f"{x[0]}:{x[2]}" for x in checks))
    assert ok, checks
