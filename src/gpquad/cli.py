"""Command-line harness: point/weight emission and the benchmark studies.

    gpq points|weights|transform|moments --config FILE
        [--out PATH] [--format csv|json]
    gpq ungm|bot --config FILE [--out PATH] [--format csv|json] [--seed-offset N]

Every subcommand reads one JSON config document through the key tables
of ``experiments`` (documented in the README; examples in configs/).  Exit
codes: 0 success, 1 usage or configuration error (an ``--out`` whose
directory is missing is found before the run, a write that fails after
it, a ``MemoryError``: a config too large), 2 numerical failure (a
``NumericalError``) in every requested method; anything else is a bug.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .experiments import (
    FLOAT_FORMAT,
    RULE_COMMANDS,
    ConfigError,
    Report,
    build_rule,
    command_fields,
    resolve_rule,
    run_bot,
    run_moments,
    run_ungm,
)
from .filtering import gp_transform
from .quadrature import NumericalError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2


def _fmt(value: float) -> str:
    return FLOAT_FORMAT % float(value)


def _load_config(path: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # no such file, or not JSON
        raise ConfigError(f"config file {path}: {exc}") from exc


def _points_command(fields: dict, n: int):
    # the point set with its own weights
    rule = build_rule(resolve_rule(n, fields["points"]), n)
    lines = [",".join([f"xi{i + 1}" for i in range(n)] + ["weight"])]
    lines += [",".join(_fmt(v) for v in row)
              for row in np.column_stack([rule.points.points, rule.weights])]
    return {"points": rule.points.points.tolist(), "weights": rule.weights.tolist()}, lines


def _weights_command(fields: dict, n: int):
    # the config is the method: its points, kernel and jitter
    rule = build_rule(resolve_rule(n, fields["points"], fields["kernel"], fields["jitter"]), n)
    lines = [f"# posterior_variance = {_fmt(rule.posterior_variance)}",
             "index,weight"]
    lines += [f"{i},{_fmt(w)}" for i, w in enumerate(rule.weights)]
    return {
        "weights": [float(w) for w in rule.weights],
        "posterior_variance": float(rule.posterior_variance),
        "jitter": fields["jitter"],
    }, lines


def _transform_command(fields: dict, n: int):
    g, d = fields["function"](n)
    rule = build_rule(resolve_rule(n, **fields["method"]), n)
    result = gp_transform(rule, g, fields["mean"](n), fields["cov"](n), fields["noise_cov"](d))
    lines = ["section,row,col,value"]
    lines += [f"{name},{i},{j},{_fmt(value)}" for name, array in (
        ("mean", result.mean[:, None]), ("cov", result.cov), ("cross_cov", result.cross_cov))
        for (i, j), value in np.ndenumerate(array)]
    return {name: getattr(result, name).tolist() for name in ("mean", "cov", "cross_cov")}, lines


# each rule command's output, as a JSON payload and as CSV lines
_COMMANDS = {"points": _points_command, "weights": _weights_command,
             "transform": _transform_command}
# the studies that draw trajectories, whose seeds --seed-offset shifts
_SEEDED = {"ungm": run_ungm, "bot": run_bot}


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
        if name in _SEEDED:
            cmd.add_argument("--seed-offset", type=int, default=0,
                             help="added to every seed in the config")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's usage error is 2, which means numerical failure here
        return EXIT_CONFIG if exc.code else EXIT_OK

    # an output that cannot be written is known before the run, not after it
    if args.out and not Path(args.out).parent.is_dir():
        print(f"usage error: --out {args.out}: no such directory", file=sys.stderr)
        return EXIT_CONFIG

    report: Report | None = None
    try:
        config = _load_config(args.config)
        if args.command in _COMMANDS:
            fields = command_fields(config, RULE_COMMANDS[args.command], args.command)
            payload, lines = _COMMANDS[args.command](fields, fields["dimension"])
            text = (json.dumps(payload, indent=2) + "\n" if args.format == "json"
                    else "\n".join(lines) + "\n")
        else:
            report = (_SEEDED[args.command](config, args.seed_offset)
                      if args.command in _SEEDED else run_moments(config))
            text = report.to_csv() if args.format == "csv" else report.to_json()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"config error: not enough memory for this config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    if not args.out:
        sys.stdout.write(text)
    else:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            print(f"usage error: --out {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_CONFIG
    if report is not None and report.all_failed():
        print("every method failed; see the error column", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
