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
from .errors import (ConfigurationError, HawkesqError, NumericalError, config_list,
                     config_value)
from .kernels import HawkesConfig, KernelMatrix, SumOfExponentialsKernel, kernel_from_dict
from .limits import count_limit_model, gaussian_queue_approx
from .queueing import (compare_distributions, queue_verdict, steady_state_sample,
                       summary_json)
from .service import service_from_dict
from .simulate import (SimConfig, _z, empirical_moments, sample_cov, simulate_paths,
                       write_paths_csv)

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


def _read(cfg: dict, key: str, kind=float, default=...):
    """cfg[key] through `config_value`; an absent or null field takes the
    default, and a required one is refused."""
    value = cfg.get(key)
    if value is None:
        if default is ...:
            raise ConfigurationError(f"config is missing required field {key!r}")
        return default
    return config_value(key, value, kind)


def _times(cfg: dict, default) -> list:
    """The probe times: a list of numbers, the default when absent, null or empty."""
    return config_list("probe_times", cfg.get("probe_times") or default)


def _grid(cfg: dict):
    """dt and t_max of the optional grid; None keeps the solver's default."""
    grid = cfg.get("grid") or {}
    if not isinstance(grid, dict):
        raise ConfigurationError(f"config field 'grid' must be an object, not {grid!r}")
    return _read(grid, "dt", default=None), _read(grid, "t_max", default=None)


def _hawkes_config(cfg: dict) -> HawkesConfig:
    kernel = kernel_from_dict(cfg.get("kernel"))
    return HawkesConfig(_read(cfg, "mu"), kernel)


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
    if getattr(args, "reps", None) is not None:
        cfg["reps"] = args.reps
    return cfg


def cmd_simulate(cfg: dict, out: Path) -> int:
    config = _hawkes_config(cfg)
    sim = SimConfig(config, _read(cfg, "horizon"), _read(cfg, "seed", int),
                    burn_in=_read(cfg, "burn_in", default=None),
                    engine=_read(cfg, "engine", str, "cluster"),
                    replications=_read(cfg, "reps", int, 100))
    probe = _times(cfg, [sim.horizon / 2.0, sim.horizon])
    cfg["burn_in"] = sim.burn_in
    paths = simulate_paths(sim)
    moments = empirical_moments(paths, probe)
    write_paths_csv(paths, out / "paths.csv")
    write_json(out / "moments.json", moments.to_dict())
    return 0


def cmd_analyze(cfg: dict, out: Path) -> int:
    kernel = kernel_from_dict(cfg.get("kernel"))
    times = sorted(_times(cfg, [1.0, 2.0, 5.0]))
    phi = solve_phi_grid(kernel, *_grid(cfg))
    # the count Gram first: it refuses bad probe times before any file is written
    gram = None if isinstance(kernel, KernelMatrix) else count_limit_model(phi).gram(times)
    phi.write_csv(out / "phi.csv")
    variance_function(phi).write_csv(out / "K.csv")
    if gram is None:
        return 0
    # the upper triangle of the count Gram: Cov(G(s), G(t)) for s <= t, row by row
    a, b = np.triu_indices(len(times))
    write_csv(out / "covG.csv", ["s", "t", "cov"],
              zip(np.take(times, a), np.take(times, b), gram[a, b]))
    asym = {"slope": asymptotic_slope(kernel)}
    try:
        asym["offset"] = asymptotic_offset(kernel)
    except HawkesqError as exc:
        asym["offset_error"] = str(exc)
    write_json(out / "asymptotics.json", asym)
    if isinstance(kernel, SumOfExponentialsKernel):
        write_json(out / "laplace.json", laplace_pipeline(kernel).to_dict())
    return 0


def cmd_validate_fclt(cfg: dict, out: Path) -> int:
    config = _hawkes_config(cfg)
    mu, k = config.baseline, config.dimension
    reps = _read(cfg, "reps", int, 2000)
    probe = _times(cfg, [1.0, 2.0, 5.0])
    dt, t_max = _grid(cfg)
    sim = SimConfig(config, max(probe), _read(cfg, "seed", int),
                    burn_in=_read(cfg, "burn_in", default=None),
                    engine=_read(cfg, "engine", str, "cluster"), replications=reps)
    counts = np.stack([p.counts_at(probe) for p in simulate_paths(sim)])  # (R, nt, k)
    # G = (N - t rate) / sqrt(mu): the sample covariance centres on its own mean,
    # so the rate shift drops out and only the 1 / mu scale is left
    emp, se = (m / mu for m in sample_cov(counts.reshape(reps, -1)))
    phi = solve_phi_grid(config.kernel, dt, t_max)
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
    thresholds = {key: _read(cfg, key, default=0.05)
                  for key in ("var_rel_threshold", "tv_threshold")}
    if not all(0 < value < math.inf for value in thresholds.values()):
        raise ConfigurationError(f"thresholds must be positive and finite: {thresholds}")
    sample = steady_state_sample(config, service, _read(cfg, "n_samples", int, 10_000),
                                 _read(cfg, "seed", int),
                                 engine=_read(cfg, "engine", str, "cluster"),
                                 burn_in=_read(cfg, "queue_burn_in", default=None),
                                 spacing=_read(cfg, "spacing", default=None))
    report = compare_distributions(sample.pooled(0), approx)
    report.write_csv(out / "histogram.csv")
    summary_json(sample, report, out / "comparison.json")

    verdict = queue_verdict(sample, report, approx, **thresholds)
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
        if name in ("simulate", "validate-fclt"):      # the commands that read reps
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
