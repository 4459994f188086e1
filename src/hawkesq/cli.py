"""Configuration-driven command-line front end.

Four subcommands wire the library into reproducible experiments:

  simulate        sample paths + empirical moment summary
  analyze         covariance density / variance / limit covariance dumps
  validate-fclt   empirical scaled-count covariances against the count limit G
  validate-queue  steady-state queue histogram against the Gaussian pmf

Every run writes a manifest (resolved config, seed, version) into its
output directory; rerunning with --config <manifest.json> reproduces the
result files bitwise.  Exit codes: 0 pass, 1 statistical-check failure,
2 configuration error, 3 numerical error.
"""
from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from ._io import write_csv, write_json
from .covariance import (asymptotic_offset, asymptotic_slope, laplace_pipeline,
                         solve_multivariate_phi, solve_phi_grid, variance_function)
from .errors import ConfigurationError, HawkesqError, NumericalError
from .kernels import HawkesConfig, KernelMatrix, SumOfExponentialsKernel, kernel_from_dict
from .limits import count_limit_model, gaussian_queue_approx
from .queueing import (compare_distributions, queue_verdict, steady_state_sample,
                       summary_json)
from .service import service_from_dict
from .simulate import (SimConfig, empirical_moments, simulate_paths,
                       var_of_sample_cov, write_paths_csv)

_SCHEMA = 1


def _version_string() -> str:
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
            cwd=Path(__file__).resolve().parent).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        described = ""
    return f"hawkesq {__version__}" + (f" ({described})" if described else "")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"malformed JSON in {path}: {exc}") from exc
    if isinstance(data, dict) and "config" in data and "command" in data:
        data = data["config"]        # a manifest doubles as a config
    if not isinstance(data, dict):
        raise ConfigurationError("config must be a JSON object")
    if data.get("schema", _SCHEMA) != _SCHEMA:
        raise ConfigurationError(f"unsupported schema version {data.get('schema')}")
    return data


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigurationError(f"config is missing required field {key!r}")
    return cfg[key]


def _hawkes_config(cfg: dict) -> HawkesConfig:
    kernel = kernel_from_dict(_require(cfg, "kernel"))
    return HawkesConfig(float(_require(cfg, "mu")), kernel)


def _out_dir(base: str, command: str, cfg: dict) -> Path:
    name = cfg.get("name") or time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    path = Path(base) / command / str(name)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(out: Path, command: str, cfg: dict, args) -> None:
    manifest = {"command": command, "config": cfg, "seed": cfg["seed"],
                "version": _version_string(),
                "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "argv": sys.argv[1:]}
    write_json(out / "manifest.json", manifest)


def _resolve_common(cfg: dict, args) -> dict:
    cfg = dict(cfg)
    cfg["schema"] = _SCHEMA
    if args.seed is not None:
        cfg["seed"] = args.seed
    cfg.setdefault("seed", 20240)
    if args.reps is not None:
        cfg["reps"] = args.reps
    return cfg


def cmd_simulate(cfg: dict, out: Path) -> int:
    config = _hawkes_config(cfg)
    sim = SimConfig(config, float(_require(cfg, "horizon")), int(cfg["seed"]),
                    burn_in=cfg.get("burn_in"), engine=cfg.get("engine", "cluster"),
                    replications=int(cfg.get("reps", 100)))
    cfg["burn_in"] = sim.burn_in
    paths = simulate_paths(sim)
    probe = cfg.get("probe_times") or [sim.horizon / 2.0, sim.horizon]
    moments = empirical_moments(paths, probe)
    write_paths_csv(paths, out / "paths.csv")
    moments.write_json(out / "moments.json")
    return 0


def _solve_phi(kernel, grid: dict):
    """phi of a kernel or kernel matrix; a missing or null grid value keeps the default."""
    solve = solve_multivariate_phi if isinstance(kernel, KernelMatrix) else solve_phi_grid
    return solve(kernel, **{key: float(grid[key]) for key in ("dt", "t_max")
                            if grid.get(key) is not None})


def cmd_analyze(cfg: dict, out: Path) -> int:
    kernel = kernel_from_dict(_require(cfg, "kernel"))
    phi = _solve_phi(kernel, cfg.get("grid") or {})
    phi.write_csv(out / "phi.csv")
    variance_function(phi).write_csv(out / "K.csv")
    if isinstance(kernel, KernelMatrix):
        return 0
    # the upper triangle of the count Gram: Cov(G(s), G(t)) for s <= t, row by row
    times = sorted(float(x) for x in cfg.get("probe_times", [1.0, 2.0, 5.0]))
    a, b = np.triu_indices(len(times))
    gram = count_limit_model(phi).gram(times)
    write_csv(out / "covG.csv", ["s", "t", "cov"],
              zip(np.take(times, a), np.take(times, b), gram[a, b]))
    asym = {"slope": asymptotic_slope(kernel)}
    try:
        asym["offset"] = asymptotic_offset(kernel)
    except HawkesqError as exc:
        asym["offset_error"] = str(exc)
    write_json(out / "asymptotics.json", asym)
    if isinstance(kernel, SumOfExponentialsKernel):
        laplace_pipeline(kernel).write_json(out / "laplace.json")
    return 0


def _z(gap: float, se: float) -> float:
    """gap / se; with no sample spread, 0 for no gap and inf (a failed check) otherwise."""
    if se > 0:
        return gap / se
    return 0.0 if gap == 0 else math.inf


def cmd_validate_fclt(cfg: dict, out: Path) -> int:
    config = _hawkes_config(cfg)
    mu, k = config.baseline, config.dimension
    reps = int(cfg.get("reps", 2000))
    probe = [float(x) for x in cfg.get("probe_times", [1.0, 2.0, 5.0])]
    sim = SimConfig(config, max(probe), int(cfg["seed"]),
                    burn_in=cfg.get("burn_in"), engine=cfg.get("engine", "cluster"),
                    replications=reps)
    paths = simulate_paths(sim)
    counts = np.stack([p.counts_at(probe) for p in paths]).astype(float)  # (R, nt, k)
    rates = config.mean_rate_vector()
    scaled = (counts - np.asarray(probe)[None, :, None] * rates[None, None, :]) / np.sqrt(mu)
    phi = _solve_phi(config.kernel, cfg.get("grid") or {})
    # target[b, i, a, j] = Cov(G_i(t_b), G_j(t_a)): equal times for a = b, else cross-time
    target = count_limit_model(phi).gram(probe).reshape(len(probe), k, len(probe), k)

    moments = empirical_moments(paths, probe)
    checks = []
    for a, t in enumerate(probe):
        for d in range(k):
            want = float(target[a, d, a, d])
            emp = float(scaled[:, a, d].var(ddof=1))
            se = float(moments.se_var[a, d]) / mu
            checks.append({"t": t, "dim": d, "empirical": emp, "analytic": want,
                           "z": _z(emp - want, se)})
        for i in range(k):
            for j in range(i + 1, k):
                x, y = scaled[:, a, i], scaled[:, a, j]
                c, want = float(np.cov(x, y)[0, 1]), float(target[a, i, a, j])
                se = float(np.sqrt(var_of_sample_cov(x, y)))
                checks.append({"t": t, "dims": [i, j], "empirical": c,
                               "analytic": want, "z": _z(c - want, se)})
    cross_time = []
    for a, s in enumerate(probe):
        for b, t in enumerate(probe[a + 1:], a + 1):
            for i, j in np.ndindex(k, k):
                x, y = scaled[:, b, i], scaled[:, a, j]
                c, want = float(np.cov(x, y)[0, 1]), float(target[b, i, a, j])
                se = float(np.sqrt(var_of_sample_cov(x, y)))
                cross_time.append({"s": s, "t": t, "dims": [i, j], "empirical": c,
                                   "analytic": want, "z": _z(c - want, se)})
    worst = max(abs(c["z"]) for c in checks + cross_time)
    # the chance that at least one of n independent checks passes 3 SE by chance
    n_checks = len(checks) + len(cross_time)
    false_alarm = 1.0 - (1.0 - math.erfc(3.0 / math.sqrt(2.0))) ** n_checks
    report = {"mu": mu, "reps": reps, "checks": checks, "cross_time_checks": cross_time,
              "max_abs_z": worst, "pass": bool(worst < 3.0),
              "family_false_alarm_rate": false_alarm}
    write_json(out / "report.json", report)
    return 0 if report["pass"] else 1


def cmd_validate_queue(cfg: dict, out: Path) -> int:
    config = _hawkes_config(cfg)
    if config.is_multivariate:
        raise ConfigurationError("validate-queue is univariate; see the library API for k > 1")
    service = service_from_dict(cfg.get("service", {"type": "exponential", "rate": 1.0}))
    n_samples = int(cfg.get("n_samples", 10_000))
    sample = steady_state_sample(config, service, n_samples, int(cfg["seed"]),
                                 engine=cfg.get("engine", "cluster"),
                                 burn_in=cfg.get("queue_burn_in"),
                                 spacing=cfg.get("spacing"))
    approx = gaussian_queue_approx(config.baseline, config.kernel, service=service)
    report = compare_distributions(sample.pooled(0), approx)
    report.write_csv(out / "histogram.csv")
    summary_json(sample, report, out / "comparison.json")

    verdict = queue_verdict(sample, report, approx,
                            var_rel_threshold=float(cfg.get("var_rel_threshold", 0.05)),
                            tv_threshold=float(cfg.get("tv_threshold", 0.05)))
    write_json(out / "verdict.json", verdict)
    return 0 if verdict["pass"] else 1


_COMMANDS = {"simulate": cmd_simulate, "analyze": cmd_analyze,
             "validate-fclt": cmd_validate_fclt, "validate-queue": cmd_validate_queue}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hawkesq",
                                     description="self-exciting traffic and queue analytics")
    parser.add_argument("--version", action="version", version=_version_string())
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config (or a manifest)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default="out", help="output directory root")
        p.add_argument("--reps", type=int, default=None, help="override replication count")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_common(_load_config(args.config), args)
        out = _out_dir(args.out, args.command, cfg)
        code = _COMMANDS[args.command](cfg, out)
        _write_manifest(out, args.command, cfg, args)
        return code
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
