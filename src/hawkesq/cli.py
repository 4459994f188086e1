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
                         solve_phi_grid, variance_function)
from .errors import ConfigurationError, HawkesqError, NumericalError
from .kernels import HawkesConfig, KernelMatrix, SumOfExponentialsKernel, kernel_from_dict
from .limits import count_limit_model, gaussian_queue_approx
from .queueing import (compare_distributions, queue_verdict, steady_state_sample,
                       summary_json)
from .service import service_from_dict
from .simulate import SimConfig, empirical_moments, sample_cov, simulate_paths, write_paths_csv

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


def _write_manifest(out: Path, command: str, cfg: dict, version: str) -> None:
    manifest = {"command": command, "config": cfg, "seed": cfg["seed"], "version": version,
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


def cmd_analyze(cfg: dict, out: Path) -> int:
    kernel, grid = kernel_from_dict(_require(cfg, "kernel")), cfg.get("grid") or {}
    phi = solve_phi_grid(kernel, grid.get("dt"), grid.get("t_max"))
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


def _z(gap, se):
    """gap / se entrywise; with no sample spread, 0 for no gap, else inf (a failed check)."""
    z = np.where(np.asarray(gap) == 0, 0.0, math.inf)
    np.divide(gap, se, out=z, where=np.asarray(se) > 0)
    return z[()]


def cmd_validate_fclt(cfg: dict, out: Path) -> int:
    config = _hawkes_config(cfg)
    mu, k = config.baseline, config.dimension
    reps = int(cfg.get("reps", 2000))
    probe = [float(x) for x in cfg.get("probe_times", [1.0, 2.0, 5.0])]
    sim = SimConfig(config, max(probe), int(cfg["seed"]),
                    burn_in=cfg.get("burn_in"), engine=cfg.get("engine", "cluster"),
                    replications=reps)
    counts = np.stack([p.counts_at(probe) for p in simulate_paths(sim)])  # (R, nt, k)
    # G = (N - t rate) / sqrt(mu): the sample covariance centres on its own mean,
    # so the rate shift drops out and only the 1 / mu scale is left
    emp, se = (m / mu for m in sample_cov(counts.reshape(reps, -1)))
    grid = cfg.get("grid") or {}
    phi = solve_phi_grid(config.kernel, grid.get("dt"), grid.get("t_max"))
    # entry [b k + i, a k + j] = Cov(G_i(t_b), G_j(t_a)), in the order of emp
    target = count_limit_model(phi).gram(probe)
    z = _z(emp - target, se)

    def check(row, col, **keys):
        return dict(keys, empirical=float(emp[row, col]), analytic=float(target[row, col]),
                    z=float(z[row, col]))

    checks, cross_time = [], []
    for a, s in enumerate(probe):
        checks += [check(a * k + d, a * k + d, t=s, dim=d) for d in range(k)]
        checks += [check(a * k + i, a * k + j, t=s, dims=[i, j])
                   for i in range(k) for j in range(i + 1, k)]
        cross_time += [check(b * k + i, a * k + j, s=s, t=t, dims=[i, j])
                       for b, t in enumerate(probe[a + 1:], a + 1)
                       for i, j in np.ndindex(k, k)]
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
    service = service_from_dict(cfg.get("service", {"type": "exponential", "rate": 1.0}))
    # the target first: it refuses a model of k > 1 before the sampling starts
    approx = gaussian_queue_approx(config.baseline, config.kernel, service=service)
    n_samples = int(cfg.get("n_samples", 10_000))
    sample = steady_state_sample(config, service, n_samples, int(cfg["seed"]),
                                 engine=cfg.get("engine", "cluster"),
                                 burn_in=cfg.get("queue_burn_in"),
                                 spacing=cfg.get("spacing"))
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


def build_parser(version: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hawkesq",
                                     description="self-exciting traffic and queue analytics")
    parser.add_argument("--version", action="version", version=version)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config (or a manifest)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default="out", help="output directory root")
        p.add_argument("--reps", type=int, default=None, help="override replication count")
    return parser


def main(argv=None) -> int:
    version = _version_string()             # one git describe per run
    args = build_parser(version).parse_args(argv)
    try:
        cfg = _resolve_common(_load_config(args.config), args)
        out = _out_dir(args.out, args.command, cfg)
        code = _COMMANDS[args.command](cfg, out)
        _write_manifest(out, args.command, cfg, version)
        return code
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
