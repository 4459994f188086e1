import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hawkesq as hq
from hawkesq.cli import _z, main

import oracles
from dense_reference import running_integral_cov

H1 = {"type": "sum_exp", "terms": [{"alpha": 0.5, "beta": 1.0}]}
H2 = {"type": "sum_exp", "terms": [{"alpha": 0.1, "beta": 0.25},
                                   {"alpha": 0.4, "beta": 4.0}]}
ZERO = {"type": "sum_exp", "terms": []}


def _write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_simulate_command(tmp_path):
    cfg = _write(tmp_path, "sim.json", {
        "name": "demo", "kernel": H1, "mu": 20.0, "horizon": 5.0,
        "reps": 300, "seed": 5, "probe_times": [5.0]})
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    outdir = tmp_path / "out" / "simulate" / "demo"
    moments = json.loads((outdir / "moments.json").read_text())
    assert abs(moments["mean"][0][0] - 200.0) < 10.0   # lambda*t = 40*5
    assert (outdir / "paths.csv").exists()
    assert json.loads((outdir / "manifest.json").read_text())["seed"] == 5


def test_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad)]) == 2
    missing = _write(tmp_path, "missing.json", {"kernel": H1})
    assert main(["simulate", "--config", missing, "--out", str(tmp_path / "o")]) == 2
    unstable = _write(tmp_path, "unstable.json", {
        "kernel": {"type": "sum_exp", "terms": [{"alpha": 2.0, "beta": 1.0}]},
        "mu": 1.0, "horizon": 1.0})
    assert main(["simulate", "--config", unstable, "--out", str(tmp_path / "o")]) == 2


def test_analyze_command_h2(tmp_path):
    cfg = _write(tmp_path, "an.json", {
        "name": "h2", "kernel": H2, "grid": {"dt": 0.02, "t_max": 80.0}, "seed": 1})
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    outdir = tmp_path / "out" / "analyze" / "h2"
    lap = json.loads((outdir / "laplace.json").read_text())
    assert lap["R"] == pytest.approx([0.83333, 0.15873], abs=5e-4)
    assert lap["Xtilde"] == pytest.approx([1.2, 0.2], abs=1e-9)
    asym = json.loads((outdir / "asymptotics.json").read_text())
    assert asym["slope"] == pytest.approx(8.0)
    assert asym["offset"] == pytest.approx(-40.2, abs=5e-2)
    for name in ("phi.csv", "K.csv", "covG.csv"):
        assert (outdir / name).exists()
    # the upper triangle of the count Gram over the sorted default probes 1, 2, 5
    rows = (outdir / "covG.csv").read_text().splitlines()
    assert rows[0] == "s,t,cov"
    cells = [tuple(map(float, row.split(","))) for row in rows[1:]]
    assert [(s, t) for s, t, _ in cells] == [(1, 1), (1, 2), (1, 5), (2, 2), (2, 5), (5, 5)]
    phi = hq.solve_phi_grid(hq.kernel_from_dict(H2), dt=0.02, t_max=80.0)
    cov = running_integral_cov(phi)
    for s, t, value in cells:
        assert value == pytest.approx(cov(s, t)[0, 0], rel=1e-12)


def test_analyze_zero_kernel(tmp_path):
    cfg = _write(tmp_path, "z.json", {"name": "z", "kernel": ZERO,
                                      "grid": {"dt": 0.05, "t_max": 40.0}, "seed": 1})
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    phi = (tmp_path / "out" / "analyze" / "z" / "phi.csv").read_text().splitlines()
    assert all(line.endswith(",0") for line in phi[1:])


def test_supercritical_trapezoid_grid_exits_3(tmp_path, capsys):
    kernel = {"type": "sum_exp", "terms": [{"alpha": 0.9999, "beta": 1.0}]}
    cfg = _write(tmp_path, "c.json", {"name": "c", "kernel": kernel, "grid": {"dt": 0.1},
                                      "seed": 1})
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert "refine dt" in capsys.readouterr().err


def test_validate_fclt_poisson(tmp_path):
    cfg = _write(tmp_path, "f.json", {
        "name": "poisson", "kernel": ZERO, "mu": 50.0, "reps": 1500,
        "probe_times": [1.0, 2.0], "seed": 3, "grid": {"dt": 0.05, "t_max": 40.0}})
    code = main(["validate-fclt", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    report = json.loads(
        (tmp_path / "out" / "validate-fclt" / "poisson" / "report.json").read_text())
    assert report["pass"] and report["max_abs_z"] < 3.0


def test_validate_fclt_multivariate_decoupled(tmp_path):
    kernel = {"type": "matrix", "p": [1.0, 1.0],
              "entries": [[H1, ZERO], [ZERO, H1]]}
    cfg = _write(tmp_path, "m.json", {
        "name": "dec", "kernel": kernel, "mu": 20.0, "reps": 1200,
        "probe_times": [1.0, 2.0], "seed": 6, "grid": {"dt": 0.05, "t_max": 40.0}})
    code = main(["validate-fclt", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    report = json.loads(
        (tmp_path / "out" / "validate-fclt" / "dec" / "report.json").read_text())
    cross = [c for c in report["checks"] if "dims" in c]
    assert cross and all(abs(c["z"]) < 3.0 for c in cross)


def test_validate_fclt_cross_time_h1(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "name": "cross", "kernel": H1, "mu": 50.0, "reps": 2000,
        "probe_times": [0.5, 1.0, 2.0], "seed": 1})
    code = main(["validate-fclt", "--config", cfg, "--out", str(tmp_path / "out")])
    report = json.loads(
        (tmp_path / "out" / "validate-fclt" / "cross" / "report.json").read_text())
    assert code == 0 and report["pass"]
    assert [c["t"] for c in report["checks"]] == [0.5, 1.0, 2.0]
    cross = report["cross_time_checks"]
    assert [(c["s"], c["t"], c["dims"]) for c in cross] == [
        (0.5, 1.0, [0, 0]), (0.5, 2.0, [0, 0]), (1.0, 2.0, [0, 0])]
    for c in cross:
        # stationary increments: Cov(G(s), G(t)) = (K(s) + K(t) - K(t - s)) / 2
        oracle = 0.5 * (oracles.K1(c["s"]) + oracles.K1(c["t"]) - oracles.K1(c["t"] - c["s"]))
        assert c["analytic"] == pytest.approx(oracle, rel=1e-3)
        assert abs(c["z"]) < 3.0
    assert report["max_abs_z"] == max(abs(c["z"]) for c in report["checks"] + cross)


def test_validate_fclt_cross_time_orientation(tmp_path):
    # four distinct entries, so Cov(G_0(t), G_1(s)) != Cov(G_1(t), G_0(s)) for s < t
    def exp(alpha, beta):
        return {"type": "sum_exp", "terms": [{"alpha": alpha, "beta": beta}]}
    kernel = {"type": "matrix", "p": [1.0, 0.5],
              "entries": [[exp(0.3, 1.0), exp(0.1, 2.0)], [exp(0.2, 0.5), exp(0.05, 1.0)]]}
    cfg = _write(tmp_path, "a.json", {
        "name": "asym", "kernel": kernel, "mu": 20.0, "reps": 400,
        "probe_times": [1.0, 3.0], "seed": 2, "grid": {"dt": 0.05, "t_max": 40.0}})
    code = main(["validate-fclt", "--config", cfg, "--out", str(tmp_path / "out")])
    report = json.loads(
        (tmp_path / "out" / "validate-fclt" / "asym" / "report.json").read_text())
    assert code == 0 and report["pass"]
    phi = hq.solve_multivariate_phi(hq.kernel_from_dict(kernel), dt=0.05, t_max=40.0)
    target = hq.count_limit_model(phi).cov(1.0, 3.0)
    assert abs(target[0, 1] - target[1, 0]) > 0.1
    cross = report["cross_time_checks"]
    assert [c["dims"] for c in cross] == [[0, 0], [0, 1], [1, 0], [1, 1]]
    for c in cross:
        i, j = c["dims"]
        assert (c["s"], c["t"]) == (1.0, 3.0)
        assert c["analytic"] == pytest.approx(target[i, j], rel=1e-12)


QUARTER = {"type": "sum_exp", "terms": [{"alpha": 0.25, "beta": 1.0}]}


@pytest.mark.parametrize("kernel", [
    H1, {"type": "matrix", "p": [1.0, 1.0], "entries": [[QUARTER, QUARTER], [QUARTER, QUARTER]]},
], ids=["h1", "quarter"])
def test_validate_fclt_probe_at_zero(tmp_path, kernel):
    # G(0) = 0 on both sides: a check with no sample spread and no gap has z = 0
    cfg = _write(tmp_path, "z.json", {
        "name": "zero", "kernel": kernel, "mu": 10.0, "reps": 200,
        "probe_times": [0.0, 1.0], "seed": 3, "grid": {"dt": 0.05, "t_max": 40.0}})
    code = main(["validate-fclt", "--config", cfg, "--out", str(tmp_path / "out")])
    report = json.loads(
        (tmp_path / "out" / "validate-fclt" / "zero" / "report.json").read_text())
    assert code == 0 and report["pass"]
    at_zero = ([c for c in report["checks"] if c["t"] == 0.0]
               + [c for c in report["cross_time_checks"] if c["s"] == 0.0])
    assert len(at_zero) == (1 + 1 if kernel is H1 else 3 + 4)
    assert all(c["z"] == 0.0 and c["empirical"] == c["analytic"] == 0.0 for c in at_zero)


@pytest.mark.parametrize("kernel, n_checks, rate", [
    (H1, 3 + 3, 0.016),
    ({"type": "matrix", "p": [1.0, 1.0], "entries": [[QUARTER, QUARTER], [QUARTER, QUARTER]]},
     9 + 12, 0.055),
], ids=["h1", "quarter"])
def test_validate_fclt_family_false_alarm_rate(tmp_path, kernel, n_checks, rate):
    # three probes: P k (k + 1) / 2 equal-time and P (P - 1) / 2 k^2 cross-time checks
    cfg = _write(tmp_path, "f.json", {
        "name": "fam", "kernel": kernel, "mu": 10.0, "reps": 100,
        "probe_times": [1.0, 2.0, 5.0], "seed": 3, "grid": {"dt": 0.05, "t_max": 40.0}})
    main(["validate-fclt", "--config", cfg, "--out", str(tmp_path / "out")])
    report = json.loads(
        (tmp_path / "out" / "validate-fclt" / "fam" / "report.json").read_text())
    assert len(report["checks"]) + len(report["cross_time_checks"]) == n_checks
    single = math.erfc(3.0 / math.sqrt(2.0))          # P(|Z| >= 3) = 0.0027
    assert report["family_false_alarm_rate"] == pytest.approx(1.0 - (1.0 - single) ** n_checks,
                                                              rel=1e-12)
    assert round(report["family_false_alarm_rate"], 3) == rate


def test_validate_fclt_z_rule():
    assert _z(1.0, 4.0) == 0.25 and _z(0.0, 0.0) == 0.0
    assert _z(1e-300, 0.0) == _z(-1.0, 0.0) == math.inf


def test_validate_queue_poisson(tmp_path):
    cfg = _write(tmp_path, "q.json", {
        "name": "mmq", "kernel": ZERO, "mu": 20.0,
        "service": {"type": "exponential", "rate": 1.0},
        "n_samples": 3000, "seed": 4, "tv_threshold": 0.1})
    code = main(["validate-queue", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    verdict = json.loads(
        (tmp_path / "out" / "validate-queue" / "mmq" / "verdict.json").read_text())
    assert verdict["pass"]


def test_validate_queue_general_service(tmp_path):
    # Exp(2) service: mean lambda_bar E[S] = 40/2 = 20, variance
    # mu * var_X_infty(Exp(2), phi) = 20 (2 + phi~(2)) / 2 = 26 for h1
    cfg = _write(tmp_path, "q.json", {
        "name": "exp2", "kernel": H1, "mu": 20.0,
        "service": {"type": "exponential", "rate": 2.0},
        "n_samples": 4000, "seed": 7})
    code = main(["validate-queue", "--config", cfg, "--out", str(tmp_path / "out")])
    outdir = tmp_path / "out" / "validate-queue" / "exp2"
    comparison = json.loads((outdir / "comparison.json").read_text())
    assert comparison["mean"][0] - comparison["mean_gap"] == pytest.approx(20.0)
    assert comparison["var"][0] - comparison["var_gap"] == pytest.approx(26.0, rel=1e-3)
    assert code == 0
    assert json.loads((outdir / "verdict.json").read_text())["pass"]
    # the 1 x 1 KernelMatrix is the same model: the same target, sample and files
    matrix = {"type": "matrix", "p": [1.0], "entries": [[H1]]}
    cfg = _write(tmp_path, "qm.json", {
        "name": "exp2", "kernel": matrix, "mu": 20.0,
        "service": {"type": "exponential", "rate": 2.0},
        "n_samples": 4000, "seed": 7})
    assert main(["validate-queue", "--config", cfg, "--out", str(tmp_path / "matrix")]) == 0
    for name in ("histogram.csv", "comparison.json", "verdict.json"):
        kernel_file = (outdir / name).read_bytes()
        assert (tmp_path / "matrix" / "validate-queue" / "exp2" / name).read_bytes() == kernel_file


@pytest.mark.parametrize("command, cfg, result", [
    ("validate-queue", {"n_samples": 1}, "verdict.json"),
    ("validate-fclt", {"reps": 1, "grid": {"dt": 0.05, "t_max": 40.0}}, "report.json"),
], ids=["validate-queue", "validate-fclt"])
def test_too_few_draws_exit_2(tmp_path, command, cfg, result):
    # no standard error from one draw: a configuration error, not a failed check
    path = _write(tmp_path, "few.json", dict(cfg, name="few", kernel=H1, mu=10.0, seed=7))
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out" / command / "few" / result).exists()


def test_manifest_rerun_is_bitwise(tmp_path):
    cfg = _write(tmp_path, "sim.json", {
        "name": "first", "kernel": H1, "mu": 10.0, "horizon": 3.0,
        "reps": 50, "seed": 11, "probe_times": [3.0]})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    manifest = tmp_path / "a" / "simulate" / "first" / "manifest.json"
    assert main(["simulate", "--config", str(manifest), "--out", str(tmp_path / "b")]) == 0
    for name in ("paths.csv", "moments.json"):
        first = (tmp_path / "a" / "simulate" / "first" / name).read_bytes()
        second = (tmp_path / "b" / "simulate" / "first" / name).read_bytes()
        assert first == second


def test_seed_flag_overrides_config(tmp_path):
    cfg = _write(tmp_path, "sim.json", {
        "name": "s", "kernel": H1, "mu": 10.0, "horizon": 2.0,
        "reps": 20, "seed": 1, "probe_times": [2.0]})
    main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")])
    main(["simulate", "--config", cfg, "--seed", "2", "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "simulate" / "s" / "paths.csv").read_bytes()
    b = (tmp_path / "b" / "simulate" / "s" / "paths.csv").read_bytes()
    assert a != b


@pytest.mark.parametrize("command, cfg", [
    ("analyze", {"kernel": H2, "grid": {"dt": 0.05, "t_max": 80.0}}),
    ("validate-fclt", {"kernel": H1, "mu": 10.0, "reps": 100, "probe_times": [1.0, 2.0],
                       "grid": {"dt": 0.05, "t_max": 40.0}}),
    ("validate-queue", {"kernel": H1, "mu": 10.0, "n_samples": 200}),
], ids=["analyze", "validate-fclt", "validate-queue"])
def test_manifest_rerun_is_bitwise_every_command(tmp_path, command, cfg):
    path = _write(tmp_path, "cfg.json", dict(cfg, name="first", seed=7))
    first_dir = tmp_path / "a" / command / "first"
    code = main([command, "--config", path, "--out", str(tmp_path / "a")])
    assert code in (0, 1)
    assert main([command, "--config", str(first_dir / "manifest.json"),
                 "--out", str(tmp_path / "b")]) == code
    names = sorted(p.name for p in first_dir.iterdir() if p.name != "manifest.json")
    second_dir = tmp_path / "b" / command / "first"
    assert names == sorted(p.name for p in second_dir.iterdir() if p.name != "manifest.json")
    for name in names:
        text = (first_dir / name).read_bytes()
        assert text == (second_dir / name).read_bytes(), name
        if name.endswith(".json"):      # one JSON format: indent 2, sorted keys, newline
            assert text.decode() == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("command, cfg, names", [
    ("simulate", {"kernel": H1, "mu": 10.0, "horizon": 3.0, "reps": 20, "probe_times": [3.0]},
     {"paths.csv", "moments.json"}),
    ("validate-queue", {"kernel": H1, "mu": 10.0, "n_samples": 200},
     {"comparison.json", "verdict.json", "histogram.csv"}),
    ("validate-fclt", {"kernel": H1, "mu": 10.0, "reps": 100, "probe_times": [1.0, 2.0],
                       "grid": {"dt": 0.05, "t_max": 40.0}},
     {"report.json"}),
], ids=["simulate", "validate-queue", "validate-fclt"])
def test_result_files_same_for_any_worker_count(tmp_path, cpus, command, cfg, names):
    path = _write(tmp_path, "cfg.json", dict(cfg, name="run", seed=7))
    outputs = []
    for n in (1, 2):
        cpus(n)
        assert main([command, "--config", path, "--out", str(tmp_path / str(n))]) in (0, 1)
        outdir = tmp_path / str(n) / command / "run"
        outputs.append({p.name: p.read_bytes() for p in outdir.iterdir()
                        if p.name != "manifest.json"})
    assert set(outputs[0]) == names
    assert outputs[0] == outputs[1]


def test_missing_or_null_grid_keeps_solver_defaults(tmp_path):
    outputs = []
    for name, grid in [("absent", {}), ("null", {"grid": None}),
                       ("null_values", {"grid": {"dt": None, "t_max": None}})]:
        cfg = _write(tmp_path, f"{name}.json", dict(grid, name=name, kernel=H1))
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        outputs.append((tmp_path / "out" / "analyze" / name / "phi.csv").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    lines = outputs[0].decode().splitlines()     # solve_phi_grid: dt = 0.01, t_max = 40
    assert len(lines) == 4002 and lines[2].startswith("0.01,")


def test_git_describe_runs_once_per_command(tmp_path, monkeypatch, capsys):
    calls = []
    run = subprocess.run

    def counting(*args, **kwargs):
        calls.append(args[0])
        return run(*args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counting)
    cfg = _write(tmp_path, "z.json", {"name": "z", "kernel": ZERO,
                                      "grid": {"dt": 0.05, "t_max": 40.0}, "seed": 1})
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "analyze" / "z" / "manifest.json").read_text())
    assert len(calls) == 1 and calls[0][:2] == ["git", "describe"]
    with pytest.raises(SystemExit):
        main(["--version"])
    assert capsys.readouterr().out.strip() == manifest["version"]
    assert manifest["version"].startswith(f"hawkesq {hq.__version__}")
    assert len(calls) == 2


_DEFERRED = ("scipy.integrate", "scipy.optimize", "scipy.fft", "scipy.sparse", "scipy.special")


def _fresh_interpreter(code, *args):
    src = str(Path(hq.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert run.returncode == 0, run.stderr


def test_import_loads_no_deferred_scipy_module():
    # A fresh interpreter: pytest's own filterwarnings setting imports scipy.integrate here.
    code = f"""
import math, sys
import hawkesq, hawkesq.cli
loaded = [m for m in {_DEFERRED!r} if m in sys.modules]
assert not loaded, loaded
F = hawkesq.LogNormalService(0.0, 0.5)
values = [F.cdf(1.0), F.survival(1.0), F.survival_integral(1.0), F.inverse_cdf(0.3), F.mean(),
          F.survival_cutoff(), F.sample(hawkesq.rep_stream(1, 0), 10).sum()]
assert all(map(math.isfinite, values)), values
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not loaded, loaded
# the power law and the table have exact transforms: no quadrature, no scipy
for kern in (hawkesq.PowerLawKernel(1.0, 3.5, 1.0), hawkesq.TabulatedKernel(0.5, [1.0, 0.5, 0.0])):
    values = [kern.laplace(0.8), abs(kern.fourier(0.8)), hawkesq.asymptotic_offset(kern)]
    assert all(map(math.isfinite, values)), values
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not loaded, loaded
"""
    _fresh_interpreter(code)


def test_exponential_service_runs_load_no_scipy(tmp_path):
    queue = _write(tmp_path, "q.json", {"name": "h2", "kernel": H2, "mu": 10.0,
                                        "service": {"type": "exponential", "rate": 1.0},
                                        "n_samples": 2000, "seed": 3})
    sim = _write(tmp_path, "sim.json", {"name": "h2", "kernel": H2, "mu": 10.0, "horizon": 5.0,
                                        "reps": 50, "seed": 3, "probe_times": [5.0]})
    code = """
import sys
from hawkesq.cli import main
queue, sim, out = sys.argv[1:]
# exit 1 is a failed verdict: the run still sampled, compared and wrote its files
assert main(["validate-queue", "--config", queue, "--out", out]) in (0, 1)
assert main(["simulate", "--config", sim, "--out", out]) == 0
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not loaded, loaded
"""
    _fresh_interpreter(code, queue, sim, str(tmp_path / "out"))


def test_lognormal_service_runs_load_no_scipy(tmp_path):
    queue = _write(tmp_path, "q.json", {"name": "h2", "kernel": H2, "mu": 10.0,
                                        "service": {"type": "lognormal", "m": 0.0, "s": 0.5},
                                        "n_samples": 2000, "seed": 3})
    code = """
import sys
from hawkesq.cli import main
queue, out = sys.argv[1:]
assert main(["validate-queue", "--config", queue, "--out", out]) in (0, 1)
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not loaded, loaded
"""
    _fresh_interpreter(code, queue, str(tmp_path / "out"))


def test_non_finite_service_parameter_exits_2(tmp_path, capsys):
    # Python's json reads NaN and Infinity; the service law refuses them when it is built
    cfg = _write(tmp_path, "q.json", {"name": "h2", "kernel": H2, "mu": 10.0,
                                      "service": {"type": "lognormal", "m": 0.0, "s": math.nan},
                                      "n_samples": 2000, "seed": 3})
    assert "NaN" in Path(cfg).read_text()
    out = tmp_path / "out"
    assert main(["validate-queue", "--config", cfg, "--out", str(out)]) == 2
    assert "shape parameter s must be positive and finite" in capsys.readouterr().err
    assert not list(out.rglob("*.json"))


@pytest.mark.parametrize("command, kernel, message", [
    ("analyze", {"type": "power_law", "scale": math.nan, "exponent": 3.0},
     "scale and exponent must be positive and finite"),
    ("simulate", {"type": "tabulated", "dt": math.inf, "values": [0.4, 0.0]},
     "grid step must be positive and finite"),
    ("analyze", {"type": "matrix", "p": [math.nan], "entries": [[H1]]},
     "p must be a finite nonnegative vector"),
], ids=["power-law-scale-nan", "tabulated-dt-inf", "matrix-p-nan"])
def test_non_finite_kernel_parameter_exits_2(tmp_path, capsys, command, kernel, message):
    # Python's json reads NaN and Infinity; the kernel refuses them when it is built,
    # where numpy raised from a later solve before
    cfg = _write(tmp_path, "k.json", {"name": "k", "kernel": kernel, "mu": 5.0,
                                      "horizon": 5.0, "reps": 4, "seed": 3})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not [p for p in out.rglob("*") if p.is_file()]


@pytest.mark.parametrize("command, window, message", [
    ("simulate", {"horizon": math.nan}, "horizon must be positive and finite"),
    ("simulate", {"horizon": 5.0, "burn_in": math.inf}, "burn-in must be nonnegative and finite"),
    ("validate-queue", {"spacing": math.nan}, "spacing must be finite"),
    ("validate-queue", {"queue_burn_in": math.inf}, "burn-in must be finite"),
], ids=["simulate-horizon-nan", "simulate-burn-in-inf", "queue-spacing-nan",
        "queue-burn-in-inf"])
def test_non_finite_window_exits_2(tmp_path, capsys, command, window, message):
    # refused before any replication starts, not by a pool worker's Poisson draw
    cfg = _write(tmp_path, "w.json", dict(window, name="w", kernel=H1, mu=10.0, seed=3,
                                          n_samples=200, reps=4))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not [p for p in out.rglob("*") if p.is_file()]


@pytest.mark.parametrize("command, fields, key", [
    ("simulate", {"reps": "many"}, "reps"),
    ("simulate", {"seed": 1.5}, "seed"),
    ("simulate", {"seed": -1}, "seed"),
    ("simulate", {"burn_in": "x"}, "burn_in"),
    ("simulate", {"horizon": True}, "horizon"),
    ("simulate", {"probe_times": [1.0, "2"]}, "probe_times"),
    ("analyze", {"grid": {"dt": "0.05"}}, "dt"),
    ("analyze", {"grid": {"t_max": math.nan}}, "t_max"),
    ("analyze", {"grid": [0.05]}, "grid"),
    ("analyze", {"probe_times": 5.0}, "probe_times"),
    ("validate-fclt", {"reps": math.nan}, "reps"),
    ("validate-fclt", {"mu": "10"}, "mu"),
    ("validate-fclt", {"grid": {"dt": math.inf}}, "dt"),
    ("validate-queue", {"n_samples": math.nan}, "n_samples"),
    ("validate-queue", {"n_samples": 200.5}, "n_samples"),
    ("validate-queue", {"seed": False}, "seed"),
    ("validate-queue", {"queue_burn_in": "x"}, "queue_burn_in"),
    ("validate-queue", {"spacing": [5.0]}, "spacing"),
    ("validate-queue", {"tv_threshold": math.nan}, "tv_threshold"),
    ("validate-queue", {"var_rel_threshold": "0.05"}, "var_rel_threshold"),
    ("analyze", {"kernel": {"type": "sum_exp", "terms": [{"alpha": "0.5", "beta": 1.0}]}},
     "alpha"),
    ("validate-queue", {"service": {"type": "exponential", "rate": "x"}}, "rate"),
    ("simulate", {"engine": ["x"]}, "engine"),
    ("analyze", {"probe_times": [1.0, math.nan]}, "times"),
    ("analyze", {"kernel": {"type": "sum_exp", "terms": 5}}, "terms"),
    ("analyze", {"kernel": {"type": "sum_exp", "terms": [5]}}, "terms"),
    ("analyze", {"kernel": {"type": "sum_exp", "terms": {"alpha": 0.5}}}, "terms"),
    ("analyze", {"kernel": {"type": "matrix", "p": [1.0], "entries": 5}}, "entries"),
], ids=["simulate-reps-str", "simulate-seed-1.5", "simulate-seed-negative",
        "simulate-burn-in-str", "simulate-horizon-bool", "simulate-probe-str", "analyze-dt-str",
        "analyze-t-max-nan", "analyze-grid-list", "analyze-probe-scalar", "fclt-reps-nan",
        "fclt-mu-str", "fclt-dt-inf", "queue-n-nan", "queue-n-200.5", "queue-seed-bool",
        "queue-burn-in-str", "queue-spacing-list", "queue-tv-nan", "queue-var-rel-str",
        "kernel-alpha-str", "service-rate-str", "engine-list", "analyze-probe-nan",
        "kernel-terms-int", "kernel-terms-of-int", "kernel-terms-object",
        "matrix-entries-int"])
def test_wrong_kind_config_exits_2(tmp_path, capsys, command, fields, key):
    # refused as a configuration error with the field's name, before any file is written
    cfg = _write(tmp_path, "k.json", dict({"name": "k", "kernel": H1, "mu": 10.0, "seed": 3,
                                           "horizon": 2.0, "reps": 4, "n_samples": 200,
                                           "grid": {"dt": 0.05, "t_max": 40.0}}, **fields))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and key in err, err
    assert not [p for p in out.rglob("*") if p.is_file()]


def test_integral_float_counts_read_as_integers(tmp_path):
    files = []
    for name, reps, seed in [("int", 20, 5), ("float", 20.0, 5.0)]:
        cfg = _write(tmp_path, f"{name}.json", {"name": "c", "kernel": H1, "mu": 10.0,
                                                 "horizon": 2.0, "reps": reps, "seed": seed})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        files.append((tmp_path / name / "simulate" / "c" / "paths.csv").read_bytes())
    assert files[0] == files[1]


def test_validate_queue_without_spread_fails_and_writes_its_verdict(tmp_path):
    # at mu = 1e-4 every sample is 0: the replication means agree exactly, and the
    # gap to the target mean has no standard error to be measured in
    cfg = _write(tmp_path, "q.json", {"name": "flat", "kernel": H1, "mu": 1e-4,
                                      "service": {"type": "exponential", "rate": 1.0},
                                      "n_samples": 100, "seed": 3})
    assert main(["validate-queue", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    outdir = tmp_path / "out" / "validate-queue" / "flat"
    assert json.loads((outdir / "comparison.json").read_text())["se_mean"] == [0.0]
    verdict = json.loads((outdir / "verdict.json").read_text())
    assert verdict["mean_z"] == math.inf and not verdict["pass"]
    # the target's cell probabilities put all its mass on 0, where every sample is
    assert verdict["tv_distance"] <= 1.0


@pytest.mark.parametrize("command", ["analyze", "validate-queue"])
def test_reps_flag_only_where_it_is_read(tmp_path, capsys, command):
    cfg = _write(tmp_path, "r.json", {"name": "r", "kernel": H1, "mu": 10.0})
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--reps", "5", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --reps" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
