"""One pass of one benchmark workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED OUTDIR TRACE [--setup-only]

The pass imports hawkesq from the checkout's ``src``, builds the workload's
kernels and configs (timed as set-up), then runs the workload as one
closed-loop caller and checks every output against an oracle that does not
come from the code path under test.  With TRACE=1 the layer modules are
wrapped by ``tracer.Tracer`` after set-up.  The pass writes
``OUTDIR/result.json``; library and CLI outputs go under OUTDIR as well.
"""
import json
import math
import sys
import time
from pathlib import Path

_SETUP_START = time.perf_counter()
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import hawkesq as hq  # noqa: E402
import hawkesq.cli  # noqa: E402

# --- models ------------------------------------------------------------------

H1 = {"type": "sum_exp", "terms": [{"alpha": 0.5, "beta": 1.0}]}
H2 = {"type": "sum_exp", "terms": [{"alpha": 0.1, "beta": 0.25}, {"alpha": 0.4, "beta": 4.0}]}

# Independent oracles (exact arithmetic or closed forms, not library output).
H2_XTILDE = (1.2, 0.2)             # rational solution of the two-term Laplace system
H2_VAR_XE = 88.0 / 35.0            # 2 + phi~(1) = 2 + 18/35
H2_OFFSET = -40.2                  # -2 sum c_i / nu_i^2 from partial fractions
H2_MEAN_RATE = 2.0                 # 1 / (1 - ||h2||)
K2_STEADY = np.array([[2.5, 0.5], [0.5, 2.5]])   # quarter matrix, unit service rates


def k1(t):
    """Variance function of h1 = 0.5 exp(-t): 8t - 12(1 - exp(-t/2))."""
    return 8.0 * t - 12.0 * (1.0 - math.exp(-0.5 * t))


# Check tolerances: several times the error of the seed implementation.
TOL_RESIDUAL = 1e-6
TOL_VAR_XE_GRID = 2e-4             # seed error 5.5e-5
TOL_OFFSET = 1e-3                  # seed error 2.4e-4
TOL_NEAR_CRITICAL = 4e-3           # sup error relative to max phi, seed 8.2e-4
TOL_K2_STEADY = 1e-3               # seed error 3.1e-4
TOL_FCLT_ANALYTIC = 1e-3           # relative, library K(t) against k1(t)
Z_MAX = 5.0                        # Monte-Carlo checks: five standard errors

# The dense solver holds about three copies of the n x n operator (measured
# peak 1.57 GB for the 512 MB h2 operator); refuse below that.
DENSE_COPIES = 3


def available_mb() -> float:
    """MemAvailable, capped by this cgroup's remaining allowance."""
    avail = math.inf
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    avail = int(line.split()[1]) / 1024.0
    except OSError:
        pass
    try:
        limit = Path("/sys/fs/cgroup/memory.max").read_text().strip()
        used = Path("/sys/fs/cgroup/memory.current").read_text().strip()
        if limit != "max":
            avail = min(avail, (int(limit) - int(used)) / 2**20)
    except (OSError, ValueError):
        pass
    return avail


class Ops:
    """Counts operations (library calls, CLI runs, checks) and failures."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def call(self, label, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except (hq.HawkesqError, np.linalg.LinAlgError, ValueError, ArithmeticError) as exc:
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def cli(self, label, argv):
        code = self.call(label, lambda: hawkesq.cli.main(argv))
        if code in (2, 3):
            self.failures.append(f"{label}: exit code {code}")
        return code

    def check(self, label, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {detail}")
        return ok

    def close(self, label, got, want, tol, relative=False):
        if got is None:
            return self.check(label, False, "no value")
        scale = abs(want) if relative else 1.0
        err = float(np.max(np.abs(np.asarray(got, float) - np.asarray(want, float)))) / scale
        return self.check(label, err <= tol, f"error {err:.3g} > {tol:g}")

    def within_se(self, label, got, want, se):
        z = (got - want) / se if se > 0 else math.inf
        return self.check(label, abs(z) <= Z_MAX, f"{got:.6g} vs {want:.6g}: z = {z:.2f}")


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _write_config(out: Path, name: str, cfg: dict) -> str:
    path = out / f"{name}.json"
    path.write_text(json.dumps(cfg, indent=2))
    return str(path)


# --- analytic: the library calls of `hawkesq analyze`, then the limits stage ---

def setup_analytic(seed, out):
    rng = np.random.default_rng(seed)
    q = hq.SumOfExponentialsKernel([0.25], [1.0])
    return {
        "seed": seed,
        "h2": hq.kernel_from_dict(H2),
        "near_critical": hq.SumOfExponentialsKernel([0.99], [1.0]),
        "quarter": hq.KernelMatrix([[q, q], [q, q]], [1.0, 1.0]),
        # var_X_infty builds a u.size^2 lag table: LogNormalService(0, 1) would ask
        # for about 103 GB, so it is not run; (0, 0.5) takes the same code at 3370 nodes.
        "lognormal": hq.LogNormalService(0.0, 0.5),
        "probes": np.round(np.sort(rng.uniform(0.5, 10.0, 3)), 2),
        "dense_mb": 8001**2 * 8 / 1e6,
    }


def _analyze_scalar(ops, label, kernel, probes, **grid):
    """What `hawkesq analyze` computes for a univariate kernel."""
    phi = ops.call(f"{label}.solve_phi_grid", hq.solve_phi_grid, kernel, **grid)
    if phi is None:
        return None
    K = ops.call(f"{label}.variance_function", hq.variance_function, phi)
    if K is not None:
        for i, s in enumerate(probes):
            for t in probes[i:]:
                ops.call(f"{label}.limit_covariance_G", hq.limit_covariance_G, phi, K, s, t)
    offset = ops.call(f"{label}.asymptotic_offset", hq.asymptotic_offset, kernel)
    pipeline = ops.call(f"{label}.laplace_pipeline", hq.laplace_pipeline, kernel)
    return phi, offset, pipeline


def run_analytic(s, ops, sizes):
    need = DENSE_COPIES * s["dense_mb"]
    have = available_mb()
    if not ops.check("memory preflight", have >= need,
                     f"{have:.0f} MB available, dense solve needs {need:.0f} MB"):
        return

    h2 = _analyze_scalar(ops, "h2", s["h2"], s["probes"], dt=0.01, t_max=80.0)
    nc = _analyze_scalar(ops, "near_critical", s["near_critical"], s["probes"], dt=0.01)
    phi_k2 = ops.call("k2.solve_multivariate_phi", hq.solve_multivariate_phi,
                      s["quarter"], dt=0.05, t_max=40.0)
    if phi_k2 is not None:
        ops.call("k2.variance_function", hq.variance_function, phi_k2)

    if h2 is not None:
        phi_h2, offset, pipeline = h2
        ops.check("h2 residual", phi_h2.residual <= TOL_RESIDUAL, f"{phi_h2.residual:.3g}")
        ops.check("h2 phi >= 0", phi_h2.values.min() >= -TOL_RESIDUAL,
                  f"min {phi_h2.values.min():.3g}")
        ops.close("h2 offset", offset, H2_OFFSET, TOL_OFFSET)
        ops.close("h2 Xtilde", pipeline and pipeline.Xtilde, H2_XTILDE, 1e-12)
        ops.close("h2 var_xe grid", ops.call("h2.var_xe_infty", hq.var_xe_infty, s["h2"],
                                             phi=phi_h2, method="grid"),
                  H2_VAR_XE, TOL_VAR_XE_GRID)
        sizes["h2_nodes"] = int(phi_h2.t.size)
    if nc is not None:
        phi_nc = nc[0]
        exact = ops.call("near_critical.closed_form", hq.phi_exponential_closed_form,
                         0.99, 1.0, dt=0.01, t_max=phi_nc.t_max)
        if exact is not None:
            ops.close("near-critical phi", phi_nc.values / exact.values.max(),
                      exact.values / exact.values.max(), TOL_NEAR_CRITICAL)
        sizes["near_critical_nodes"] = int(phi_nc.t.size)
    if phi_k2 is not None:
        sizes["k2_unknowns"] = int(phi_k2.values.size)

    # Limits stage.
    if h2 is not None:
        model = ops.call("exp_queue_limit_model", hq.exp_queue_limit_model, phi_h2)
        if model is not None:
            ops.close("exp queue steady variance", model.steady_state_variance,
                      H2_VAR_XE, 1e-9)
            gram = ops.call("exp queue gram", model.gram, np.arange(1.0, 21.0))
            _cholesky(ops, "exp queue gram", gram)
            _draws(ops, "exp queue path", model, np.linspace(0.5, 10.0, 20), s["seed"], 200)
        F = s["lognormal"]
        model = ops.call("queue_limit_model", hq.queue_limit_model, phi_h2, F, F, 1.0)
        if model is not None:
            # phi >= 0, so the variance is at least its mean-service term.
            floor = F.mean() / (1.0 - phi_h2.norm)
            ops.check("lognormal steady variance", model.steady_state_variance > floor,
                      f"{model.steady_state_variance:.6g} <= {floor:.6g}")
            _draws(ops, "lognormal path", model, np.linspace(1.0, 10.0, 10), s["seed"], 200)
    if phi_k2 is not None:
        model = ops.call("multi_ou_limit_model", hq.multi_ou_limit_model, phi_k2, [1.0, 1.0])
        if model is not None:
            ops.close("k2 steady covariance", model.steady_state_variance, K2_STEADY,
                      TOL_K2_STEADY)
            gram = ops.call("multi ou gram", model.gram, np.linspace(1.0, 10.0, 10))
            _cholesky(ops, "multi ou gram", gram)


def _cholesky(ops, label, gram):
    if gram is not None:
        ops.check(f"{label} cholesky", ops.call(f"{label} cholesky", np.linalg.cholesky,
                                                 gram) is not None)


def _draws(ops, label, model, t_grid, seed, n):
    draws = ops.call(label, hq.sample_limit_path, model, t_grid, seed, n_draws=n)
    ops.check(f"{label} finite", draws is not None and draws.shape[0] == n
              and bool(np.isfinite(draws).all()))


# --- queue: `hawkesq validate-queue` on h2 with long replications ---------------

def setup_queue(seed, out):
    cfg = {"name": "queue", "mu": 100.0, "kernel": H2, "seed": seed,
           "service": {"type": "exponential", "rate": 1.0},
           "n_samples": 20_000, "spacing": 15.0}
    return {"out": out, "config": _write_config(out, "queue", cfg), "mu": cfg["mu"]}


def run_queue(s, ops, sizes):
    ops.cli("validate-queue", ["validate-queue", "--config", s["config"], "--out", str(s["out"])])
    path = s["out"] / "validate-queue" / "queue" / "comparison.json"
    if not ops.check("comparison.json written", path.exists()):
        return
    rep = _read_json(path)
    mu = s["mu"]
    ops.check("samples", rep["n_samples"] == 20_000, f"{rep['n_samples']}")
    # Exponential(1) service: E Q = mu * lambda_bar, Var Q = mu * Var(X_e(inf)).
    ops.within_se("queue mean", rep["mean"][0], mu * H2_MEAN_RATE, rep["se_mean"][0])
    ops.within_se("queue variance", rep["var"][0], mu * H2_VAR_XE, rep["se_var"][0])
    sizes["samples"] = rep["n_samples"]


# --- fclt: many short cluster replications, then thinning to CSV ---------------

def setup_fclt(seed, out):
    fclt = {"name": "fclt", "mu": 100.0, "kernel": H1, "seed": seed,
            "reps": 5000, "probe_times": [1.0, 2.0, 5.0]}
    thin = {"name": "thinning", "mu": 10.0, "kernel": H1, "seed": seed,
            "engine": "thinning", "reps": 1000, "horizon": 2.0}
    return {"out": out, "fclt": _write_config(out, "fclt", fclt),
            "thin": _write_config(out, "thinning", thin), "thin_mu": thin["mu"]}


def run_fclt(s, ops, sizes):
    out = s["out"]
    ops.cli("validate-fclt", ["validate-fclt", "--config", s["fclt"], "--out", str(out)])
    ops.cli("simulate", ["simulate", "--config", s["thin"], "--out", str(out)])

    path = out / "validate-fclt" / "fclt" / "report.json"
    if ops.check("report.json written", path.exists()):
        report = _read_json(path)
        for c in report["checks"]:
            oracle = k1(c["t"])
            ops.close(f"K({c['t']:g}) analytic", c["analytic"], oracle, TOL_FCLT_ANALYTIC,
                      relative=True)
            # The report's z is (empirical - analytic) / se, so se follows from it.
            se = abs(c["empirical"] - c["analytic"]) / abs(c["z"]) if c["z"] else math.inf
            ops.within_se(f"var N({c['t']:g})/mu", c["empirical"], oracle, se)
        sizes["fclt_reps"] = report["reps"]

    run = out / "simulate" / "thinning"
    if ops.check("moments.json written", (run / "moments.json").exists()):
        mom = _read_json(run / "moments.json")
        mu, lam = s["thin_mu"], 1.0 / (1.0 - 0.5)
        for a, t in enumerate(mom["t_grid"]):
            ops.within_se(f"thinning mean N({t:g})", mom["mean"][a][0], mu * lam * t,
                          mom["se_mean"][a][0])
            ops.within_se(f"thinning var N({t:g})", mom["var"][a][0], mu * k1(t),
                          mom["se_var"][a][0])
        with open(run / "paths.csv") as fh:
            rows = sum(1 for _ in fh) - 1
        # Every event in (0, T] is one CSV row: rows = sum of N(T) over replications.
        ops.check("paths.csv rows", rows == round(mom["mean"][-1][0] * mom["replications"]),
                  f"{rows} rows")
        sizes["thinning_events"] = rows


WORKLOADS = {"analytic": (setup_analytic, run_analytic),
             "queue": (setup_queue, run_queue),
             "fclt": (setup_fclt, run_fclt)}


def main(argv):
    workload, seed, out, trace = argv[0], int(argv[1]), Path(argv[2]), argv[3] == "1"
    setup_only = "--setup-only" in argv[4:]
    if not Path(hq.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"hawkesq imported from {hq.__file__}, not from {ROOT / 'src'}")
    setup, run = WORKLOADS[workload]
    state = setup(seed, out)
    setup_s = time.perf_counter() - _SETUP_START
    result = {"setup_s": setup_s}
    if not setup_only:
        tracer = None
        if trace:
            from tracer import Tracer
            tracer = Tracer().install()
        ops, sizes = Ops(), {}
        start = time.perf_counter()
        run(state, ops, sizes)
        wall = time.perf_counter() - start
        result.update(wall_s=wall, attempted=ops.attempted, failed=len(ops.failures),
                      failures=ops.failures, sizes=sizes)
        if tracer is not None:
            from tracer import summarize
            tracer.write(out / "spans.jsonl")
            result["layers"] = summarize(tracer.spans, wall)
    (out / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
