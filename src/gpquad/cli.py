"""Command-line harness: point/weight emission and the benchmark studies.

    gpq points|weights|transform|moments|ungm|bot --config FILE
        [--out PATH] [--format csv|json] [--seed-offset N]

Every subcommand reads one JSON config document (schemas documented in
the repository README; ready-made configs live under configs/).  Exit
codes: 0 success, 1 configuration error, 2 numerical failure (a
``NumericalError``) in every requested method; anything else is a bug.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .experiments import (
    ConfigError,
    FLOAT_FORMAT,
    Report,
    build_rule,
    config_array,
    config_cov,
    config_int,
    config_list,
    run_bot,
    run_moments,
    run_ungm,
)
from .filtering import gp_transform
from .models import moment_integrand, ungm_model
from .quadrature import NumericalError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2


def _fmt(value: float) -> str:
    return FLOAT_FORMAT % float(value)


def _load_config(path: str) -> dict:
    config_path = Path(path)
    if not config_path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        config = json.loads(config_path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return config


def _apply_seed_offset(config: dict, offset: int) -> dict:
    if offset and "seeds" in config:
        seeds = config_list(config["seeds"], "config: 'seeds'", config_int)
        config = {**config, "seeds": [seed + offset for seed in seeds]}
    return config


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _points_command(config: dict, n: int, fmt: str) -> str:
    # the point set with its own weights: a kernel in the config is not applied
    rule = build_rule({"name": "points", "points": config.get("points")}, n)
    if fmt == "json":
        return json.dumps({
            "points": rule.points.points.tolist(),
            "weights": rule.weights.tolist(),
        }, indent=2) + "\n"
    rows = np.column_stack([rule.points.points, rule.weights])
    lines = [",".join([f"xi{i + 1}" for i in range(n)] + ["weight"])]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _weights_command(config: dict, n: int, fmt: str) -> str:
    # the config is the method: its points, kernel and jitter
    if config.get("kernel", "classical") == "classical":
        raise ConfigError("config: the weights command needs an explicit kernel")
    rule = build_rule({**config, "name": "weights"}, n)
    if fmt == "json":
        return json.dumps({
            "weights": [float(w) for w in rule.weights],
            "posterior_variance": float(rule.posterior_variance),
            "jitter": rule.jitter,
        }, indent=2) + "\n"
    lines = [f"# posterior_variance = {_fmt(rule.posterior_variance)}",
             "index,weight"]
    lines += [f"{i},{_fmt(w)}" for i, w in enumerate(rule.weights)]
    return "\n".join(lines) + "\n"


# integrands vectorized over the (N, n) sigma points, as gp_transform takes
# them, with their output dimension d given the input dimension n
_TRANSFORM_FUNCTIONS = {
    "identity": lambda spec, n: (lambda x: x, n),
    "componentwise-square": lambda spec, n: (lambda x: x ** 2, n),
    "radial-power": lambda spec, n: (moment_integrand(
        config_int(spec.get("exponent", 1), "function: 'exponent'"))[0], 1),
    "ungm-transition": lambda spec, n: (partial(
        ungm_model().transition, k=config_int(spec.get("k", 1), "function: 'k'")), n),
    "ungm-measurement": lambda spec, n: (partial(ungm_model().measurement, k=0), n),
}


def _transform_command(config: dict, n: int, fmt: str) -> str:
    method = config.get("method")
    if not isinstance(method, dict):
        raise ConfigError("config: 'method' must be an object")
    fn_spec = config.get("function", {"name": "identity"})
    if isinstance(fn_spec, str):
        fn_spec = {"name": fn_spec}
    name = fn_spec.get("name") if isinstance(fn_spec, dict) else None
    if not isinstance(name, str) or name not in _TRANSFORM_FUNCTIONS:
        raise ConfigError(
            f"config: unknown function '{name}'; "
            f"choose from {sorted(_TRANSFORM_FUNCTIONS)}")
    g, d = _TRANSFORM_FUNCTIONS[name](fn_spec, n)
    mean = config_array(config.get("mean", np.zeros(n)), "config: 'mean'", (n,))
    cov = config_cov(config.get("cov", np.eye(n)), "config: 'cov'", n)
    noise_cov = config_cov(config.get("noise_cov", 0.0), "config: 'noise_cov'", d,
                           scalar=True)
    rule = build_rule(method, n)
    result = gp_transform(rule, g, mean, cov, noise_cov)
    if fmt == "json":
        return json.dumps({
            "mean": result.mean.tolist(),
            "cov": result.cov.tolist(),
            "cross_cov": result.cross_cov.tolist(),
        }, indent=2) + "\n"
    lines = ["section,row,col,value"]
    lines += [f"mean,{j},0,{_fmt(v)}" for j, v in enumerate(result.mean)]
    lines += [f"cov,{i},{j},{_fmt(result.cov[i, j])}"
              for i in range(result.cov.shape[0])
              for j in range(result.cov.shape[1])]
    lines += [f"cross_cov,{i},{j},{_fmt(result.cross_cov[i, j])}"
              for i in range(result.cross_cov.shape[0])
              for j in range(result.cross_cov.shape[1])]
    return "\n".join(lines) + "\n"


_COMMANDS = {"points": _points_command, "weights": _weights_command,
             "transform": _transform_command}
_STUDIES = {"moments": run_moments, "ungm": run_ungm, "bot": run_bot}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gpq",
        description="Gaussian process quadrature rules, transforms and "
                    "filtering benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("points", "weights", "transform", "moments", "ungm", "bot"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="JSON config file")
        cmd.add_argument("--out", default=None, help="output path (default stdout)")
        cmd.add_argument("--format", default="csv", choices=("csv", "json"))
        cmd.add_argument("--seed-offset", type=int, default=0,
                         help="added to every seed in the config")
    args = parser.parse_args(argv)

    try:
        config = _load_config(args.config)
        config = _apply_seed_offset(config, args.seed_offset)
        if args.command in _COMMANDS:
            n = config_int(config.get("dimension"), "config: 'dimension'", minimum=1)
            _emit(_COMMANDS[args.command](config, n, args.format), args.out)
            return EXIT_OK
        report: Report = _STUDIES[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    _emit(report.to_csv() if args.format == "csv" else report.to_json(), args.out)
    if report.all_failed():
        print("every method failed; see the error column", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
