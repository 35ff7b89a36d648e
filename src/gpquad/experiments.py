"""Experiment harness behind the CLI: configs, methods, studies, reports.

Every config object is read through the key table of its level by
``config_fields``.  A method's point spec gives a rule with the classical
weights of its generator (uniform 1/N for random, Hammersley, optimized
and CSV sets); its kernel ``"classical"`` keeps them, a kernel spec
solves for GP-quadrature weights on the same points.  The studies are

* ``run_moments`` -- KL divergence of each method's (mean, variance)
  estimate of the radial integrands against their exact moments;
* ``run_ungm``    -- filter/smoother RMSE over seeded trajectories of the
  univariate growth model;
* ``run_bot``     -- position RMSE on the bearings-only tracking model.

Reports are deterministic: identical config and seeds give byte-identical
CSV (floats at 12 significant digits, metadata lives only in JSON).
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .filtering import GaussianState, _noise_matrix, run_filter, run_smoother
from .kernels import SquaredExponentialKernel, make_gh_kernel, make_ut_kernel
# the studies call simulate_many; simulate stays importable from here
# because bench/spans.py wraps experiments.simulate
from .models import (bot_model, moment_integrand, simulate, simulate_many,  # noqa: F401
                     ungm_model)
from .points import (
    _check_optimizer_size,
    cubature_points,
    gauss_hermite_points,
    hammersley_points,
    optimize_points,
    random_points,
    symmetric5_points,
    ut_points,
)
from .quadrature import (NumericalError, QuadratureRule, UnitPointSet, _checked_cov,
                         _cholesky_solve, _not_positive_definite, _positive_definite,
                         gpq_weights)

__all__ = [
    "ConfigError",
    "config_fields",
    "Report",
    "kl_gauss",
    "build_rule",
    "run_moments",
    "run_ungm",
    "run_bot",
    "moments_ground_truth",
]

FLOAT_FORMAT = "%.12g"


class ConfigError(Exception):
    """Invalid experiment configuration: the CLI exits with code 1, and a
    study never turns it into an error cell."""


def config_int(value, what: str, minimum: int | None = None) -> int:
    """A config value read as an int; a bool, a non-number, a fractional
    number or one below ``minimum`` raises ConfigError naming ``what``."""
    integral = (isinstance(value, int) and not isinstance(value, bool)) or (
        isinstance(value, float) and value.is_integer())
    if not integral or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"{what} must be an integer{bound}, got {value!r}")
    return int(value)


def config_float(value, what: str, minimum: float | None = None) -> float:
    """A config value read as a float; a bool, a non-number, a non-finite
    number or one below ``minimum`` raises ConfigError naming ``what``."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"{what} must be a finite number{bound}, got {value!r}")
    return float(value)


def config_array(value, what: str, *shapes) -> np.ndarray:
    """A config value read as a float array of one of ``shapes``; a
    non-number, a bool, a ragged nesting, a non-finite entry or another
    shape raises ConfigError naming ``what``."""
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged nesting of lists
        array = np.asarray(None)
    if (array.dtype.kind not in "iuf" or array.shape not in shapes
            or not np.isfinite(array).all()):
        raise ConfigError(f"{what} must be finite numbers of shape "
                          f"{' or '.join(map(str, shapes))}, got {value!r}")
    return array.astype(float)


def config_cov(value, what: str, n: int, scalar: bool = False) -> np.ndarray:
    """A config value read as an (n, n) covariance, or with ``scalar`` also
    as a number s standing for s I: ``config_array``'s checks, then
    ``_checked_cov``'s, which pass a singular PSD matrix, or ConfigError."""
    cov = config_array(value, what, *([()] if scalar else []), (n, n))
    return _checked_cov(_noise_matrix(cov, n), what, ConfigError)


def config_list(value, what: str, read) -> list:
    """A config value read as a non-empty list, item i through
    ``read(item, what=f"{what} item {i}")``; anything else raises ConfigError
    naming ``what``."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{what} must be a non-empty list, got {value!r}")
    return [read(item, what=f"{what} item {i}") for i, item in enumerate(value)]


REQUIRED = object()  # the default of a key its config object must hold


class TypeTable(NamedTuple):
    """A config level whose ``key`` names its type: ``types`` maps each type
    to (its other keys' table, its builder of n and their fields)."""

    key: str
    noun: str
    types: dict


def config_fields(value, table, what: str):
    """A config object read through its level's ``table``, which maps each
    key it may hold to (reader, default): a held key reads as
    ``reader(item, what=f"{what}: {key}")``, a missing one as the default;
    ``REQUIRED`` makes it required.  Through a ``TypeTable`` the result is
    the type's builder with its fields bound.  A non-object, a key not in
    the table, a missing required key or an unknown type raises
    ConfigError naming ``what`` and the keys or types allowed."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be an object, got {value!r}")
    if isinstance(table, TypeTable):
        kind = value.get(table.key)
        if not isinstance(kind, str) or kind not in table.types:
            raise ConfigError(f"{what}: unknown {table.noun} {kind!r}; "
                              f"choose from {', '.join(table.types)}")
        keys, build = table.types[kind]
        fields = config_fields(value, {table.key: (_any, REQUIRED), **keys}, what)
        del fields[table.key]
        return partial(build, **fields)
    unknown = [key for key in value if key not in table]
    if unknown:
        raise ConfigError(f"{what}: unknown key {unknown[0]!r}; "
                          f"allowed keys: {', '.join(table)}")
    fields = {key: read(value[key], what=f"{what}: {key}") if key in value else default
              for key, (read, default) in table.items()}
    missing = [key for key, field in fields.items() if field is REQUIRED]
    if missing:
        raise ConfigError(f"{what}: missing required key {missing[0]!r}")
    return fields


def command_fields(config: dict, table: dict, command: str) -> dict:
    """The top level of a ``command``'s config read through ``table``; an
    'experiment' key, when present, must name the command."""
    fields = config_fields(config, {"experiment": (_any, command), **table}, "config")
    if fields["experiment"] != command:
        raise ConfigError(f"config: experiment {fields['experiment']!r} is not '{command}'")
    return fields


def _any(value, what: str):
    return value


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a string, got {value!r}")
    return value


@dataclass
class Report:
    experiment: str
    columns: list[str]
    rows: list[list] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def all_failed(self) -> bool:
        error_col = self.columns.index("error")
        return bool(self.rows) and all(r[error_col] != "" for r in self.rows)

    def to_csv(self) -> str:
        # an integer cell (a dimension or an exponent) prints as one; a cell
        # holding a comma, a quote or a line break is quoted
        out = io.StringIO()
        csv.writer(out, quoting=csv.QUOTE_MINIMAL, lineterminator="\n").writerows(
            [self.columns] + [[c if isinstance(c, str) else FLOAT_FORMAT % c for c in row]
                              for row in self.rows])
        return out.getvalue()

    def to_json(self) -> str:
        payload = {
            "experiment": self.experiment,
            "columns": self.columns,
            "rows": [[c if isinstance(c, (str, int)) else float(c) for c in row]
                     for row in self.rows],
            "metadata": self.metadata,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def kl_gauss(p: GaussianState, q: GaussianState) -> float:
    """KL(p || q) between Gaussians, 0.5 [tr(Sq^-1 Sp) + dm^T Sq^-1 dm
    - n + ln det Sq / det Sp]; both covariances must be PD, and the error
    for one that is not names batch member 0 for p, 1 for q."""
    n = p.dimension
    if q.dimension != n:
        raise ValueError("dimension mismatch")
    covs = np.stack([p.cov, q.cov])
    chol, passed = _positive_definite(covs)
    if passed is not None:
        raise _not_positive_definite("KL divergence covariance", covs,
                                     int(np.argmin(passed)))
    dm = q.mean - p.mean
    solved = _cholesky_solve(q.cov, chol[1], np.column_stack([p.cov, dm]))
    maha = dm @ solved[:, n]
    logdet_p, logdet_q = np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    logdet = 2.0 * (logdet_q - logdet_p)
    return float(0.5 * (np.trace(solved[:, :n]) + maha - n + logdet))


# ---------------------------------------------------------------------------
# method resolution: a point spec reads as its rule's builder for dimension
# n; a generated set's gives the builder of a rule with uniform 1/N weights
# (plain (quasi) Monte Carlo), which looks up and runs the generator


def _uniform(points: UnitPointSet) -> QuadratureRule:
    return QuadratureRule(points, np.full(points.count, 1.0 / points.count))


def _count(value, what: str):
    """A generated set's size as a function of n: an integer >= 1, or "2n"."""
    count = None if value == "2n" else config_int(value, what, minimum=1)
    return lambda n: count or 2 * n


def _optimized(n: int, count, seed: int, kernel, restarts: int, jitter: float):
    kernel, count = kernel(n), count(n)
    _check_optimizer_size(n, count)
    return lambda: _uniform(optimize_points(kernel, n, count, seed, restarts, jitter))


def _csv_rule(n: int, path: str) -> QuadratureRule:
    """A rule from a CSV file of one column per dimension under a header
    line, optionally followed by a ``weight`` column whose values become
    the weights, else uniform ones; a file with no point rows (blank and
    ``#`` comment lines are none) raises ConfigError."""
    path = Path(path)
    with path.open() as handle:
        last_column = handle.readline().strip().split(",")[-1]
        rows = [line for line in handle if line.split("#")[0].strip()]
    if not rows:
        raise ConfigError(f"{path} has no point rows under its header line")
    table = np.loadtxt(rows, delimiter=",", ndmin=2)
    # what `gpq points` writes: the points, then the rule's weights
    weighted = table.shape[1] == n + 1 and last_column == "weight"
    if table.shape[1] != n and not weighted:
        raise ConfigError(f"{path} has {table.shape[1]} columns, "
                          f"expected one per dimension ({n}), "
                          "optionally followed by 'weight'")
    points = UnitPointSet(table[:, :n])
    return QuadratureRule(points, table[:, n]) if weighted else _uniform(points)


KERNEL_TYPES = TypeTable("type", "kernel type", {
    "se": ({"output_scale": (config_float, 1.0), "length_scale": (config_float, 1.0)},
           lambda n, **scales: SquaredExponentialKernel(**scales)),
    "ut-hermite": ({"order": (config_int, 3)}, make_ut_kernel),
    "gh-hermite": ({"order": (config_int, REQUIRED)}, make_gh_kernel),
})
_KERNEL = partial(config_fields, table=KERNEL_TYPES)
_COUNT, _SEED = (_count, REQUIRED), (partial(config_int, minimum=0), 0)
_JITTER = (partial(config_float, minimum=0.0), 0.0)
POINT_TYPES = TypeTable("type", "point set type", {
    "ut": ({"kappa": (config_float, 2.0)}, ut_points),
    "cubature": ({}, cubature_points),
    "symmetric5": ({}, symmetric5_points),
    "gauss-hermite": ({"order": (config_int, REQUIRED)}, gauss_hermite_points),
    "hammersley": ({"count": _COUNT},
                   lambda n, count: lambda: _uniform(hammersley_points(n, count(n)))),
    "random": ({"count": _COUNT, "seed": _SEED},
               lambda n, count, seed: lambda: _uniform(random_points(n, count(n), seed))),
    "optimized": ({"count": _COUNT, "seed": _SEED,
                   "kernel": (_KERNEL, KERNEL_TYPES.types["se"][1]),
                   "restarts": (partial(config_int, minimum=1), 5), "jitter": _JITTER},
                  _optimized),
    "csv": ({"path": (_string, REQUIRED)}, _csv_rule),
})


def _kernel(value, what: str):
    """A method's kernel: None for "classical", else its spec's builder."""
    return None if value == "classical" else config_fields(value, KERNEL_TYPES, what)


_POINTS = (partial(config_fields, table=POINT_TYPES), REQUIRED)
METHOD = {"name": (_string, REQUIRED), "points": _POINTS, "kernel": (_kernel, None),
          "jitter": _JITTER}


def _methods(value, what: str) -> list[dict]:
    methods = config_list(value, what, partial(config_fields, table=METHOD))
    names = [method["name"] for method in methods]
    if len(set(names)) != len(names):
        raise ConfigError(f"{what}: method names must be unique")
    return methods


def resolve_rule(n: int, points, kernel=None, jitter: float = 0.0, name=None) -> tuple:
    """The (rule, kernel, jitter) triple ``build_rule`` takes, resolved for
    dimension n without numerics; a builder's ConfigError, ``ValueError``
    or ``OSError`` (an unreadable CSV file) raises ConfigError naming the
    method, or the config if it has no name."""
    try:
        return points(n), kernel and kernel(n), jitter
    except (ConfigError, OSError, ValueError) as exc:
        what = "config" if name is None else f"method {name!r}"
        raise ConfigError(f"{what}: {exc}") from exc


def build_rule(method: dict | tuple, n: int) -> QuadratureRule:
    """The rule of a method spec for dimension n, or of the triple a study
    resolved it into before any numerics; the optimizer's and the weight
    solve's failures are numerical and raise as they are."""
    if isinstance(method, dict):
        method = resolve_rule(n, **config_fields(method, METHOD, "method"))
    rule, kernel, jitter = method
    rule = rule() if callable(rule) else rule
    return rule if kernel is None else gpq_weights(kernel, rule.points, jitter)


# ---------------------------------------------------------------------------
# the rule commands: gpq points, weights and transform

# integrands vectorized over the (N, n) sigma points, as gp_transform takes
# them: each name's builder gives (g, d), d the output dimension, given n
_FUNCTIONS = TypeTable("name", "function", {
    "identity": ({}, lambda n: (lambda x: x, n)),
    "componentwise-square": ({}, lambda n: (lambda x: x ** 2, n)),
    "radial-power": ({"exponent": (config_int, 1)},
                     lambda n, exponent: (moment_integrand(exponent)[0], 1)),
    "ungm-transition": ({"k": (config_int, 1)},
                        lambda n, k: (partial(ungm_model().transition, k=k), n)),
    "ungm-measurement": ({}, lambda n: (partial(ungm_model().measurement, k=0), n)),
})


def _function(value, what: str):
    """A transform's function: its name alone, or an object naming it."""
    return config_fields({"name": value} if isinstance(value, str) else value,
                         _FUNCTIONS, what)


# each command's top-level key table; a transform's arrays, whose shapes
# depend on the dimension, read as functions of it
_DIMENSION = (partial(config_int, minimum=1), REQUIRED)
RULE_COMMANDS = {
    "points": {"dimension": _DIMENSION, "points": _POINTS},
    "weights": {"dimension": _DIMENSION, "points": _POINTS,
                "kernel": (_KERNEL, REQUIRED), "jitter": _JITTER},
    "transform": {
        "dimension": _DIMENSION,
        "method": (partial(config_fields, table=METHOD), REQUIRED),
        "function": (_function, _FUNCTIONS.types["identity"][1]),
        "mean": (lambda value, what: lambda n: config_array(value, what, (n,)), np.zeros),
        "cov": (lambda value, what: partial(config_cov, value, what), np.eye),
        "noise_cov": (lambda value, what: partial(config_cov, value, what, scalar=True),
                      lambda d: np.zeros((d, d))),
    },
}


# ---------------------------------------------------------------------------
# moments study


def moments_ground_truth(n: int, exponent: int, samples: int, seed: int,
                         cache_dir: Path | None = None) -> tuple[float, float]:
    """Exact (mean, variance) of (1 + ||x||^2)^(p/2), x ~ N(0, I).

    The integrand is radial: with X = ||x||^2 chi-squared with n degrees
    of freedom, E[(1 + X)^s] = 2^(-n/2) U(n/2, n/2 + s + 1, 1/2) (DLMF
    13.4.4), U the Tricomi confluent hypergeometric function, at s = p/2
    for the mean and s = p for the second moment.  ``samples``, ``seed``
    and ``cache_dir`` are accepted and ignored; nothing is sampled, read
    or written.  Raises ``NumericalError`` where ``hyperu`` returns a
    non-finite value (it does for some p < 0 once n is 50 or more).
    """
    from scipy.special import hyperu  # deferred: keeps scipy off the import path

    mean, second = map(float, 2.0 ** (-n / 2.0) * hyperu(
        n / 2.0, n / 2.0 + 1.0 + np.array([exponent / 2.0, float(exponent)]), 0.5))
    if not np.isfinite([mean, second]).all():
        raise NumericalError(
            f"exact moments for n={n}, p={exponent} not evaluated: hyperu gave "
            f"mean {mean!r} and second moment {second!r}")
    return mean, second - mean**2


def _rounding_bound(weights: np.ndarray, values: np.ndarray) -> float:
    """Rounding error bound N eps sum_i |w_i| |y_i| of the dot product w.y;
    a variance estimate below it is indistinguishable from zero (the
    classical cubature rule's is zero exactly, all its points lying on
    one sphere)."""
    return len(weights) * np.finfo(float).eps * float(np.abs(weights) @ np.abs(values))


def _exponents(value, what: str) -> list[int]:
    exponents = config_list(value, what, config_int)
    if 0 in exponents:  # y = 1 has variance zero: no KL divergence to it
        raise ConfigError(f"{what} must be non-zero")
    return exponents


_IGNORED = ("mc_samples", "mc_seed", "cache_dir")
_MOMENTS = {
    "methods": (_methods, REQUIRED),
    "dimensions": (partial(config_list, read=partial(config_int, minimum=1)), REQUIRED),
    "exponents": (_exponents, REQUIRED),
    # accepted and ignored; passed on as moments_ground_truth's ignored arguments
    **dict(zip(_IGNORED, ((_any, 10**7), (_any, 0), (_any, None)))),
}


def run_moments(config: dict) -> Report:
    """Per-method KL divergence of moment estimates across (n, p) cells; a
    cell whose exact moments are not finite is an error row per method."""
    fields = command_fields(config, _MOMENTS, "moments")
    methods, dims, exponents = fields["methods"], fields["dimensions"], fields["exponents"]
    resolved = {n: {m["name"]: resolve_rule(n, **m) for m in methods} for n in dims}

    start = time.time()
    report = Report(
        experiment="moments",
        columns=["method", "dimension", "exponent", "kl", "mean", "variance", "error"],
        metadata={"config": config, "version": __version__},
    )
    relative_errors = []
    for n in dims:
        rules = {}
        for name, method in resolved[n].items():
            try:
                rules[name] = build_rule(method, n)
            except NumericalError as exc:
                rules[name] = exc
        for exponent in exponents:
            try:
                truth_mean, truth_var = moments_ground_truth(
                    n, exponent, *(fields[key] for key in _IGNORED))
            except NumericalError as exc:  # the cell's error, for each rule that built
                report.rows += [[name, n, exponent, "", "", "",
                                 str(rule if isinstance(rule, Exception) else exc)]
                                for name, rule in rules.items()]
                continue
            truth = GaussianState(np.array([truth_mean]), np.array([[truth_var]]))
            y_fn, y2_fn = moment_integrand(exponent)
            for method in methods:
                name = method["name"]
                rule = rules[name]
                if isinstance(rule, Exception):
                    report.rows.append([name, n, exponent, "", "", "", str(rule)])
                    continue
                pts = rule.points.points  # m = 0, P = I: sigma points = unit points
                y2 = y2_fn(pts)
                est_mean = float(rule.weights @ y_fn(pts))
                est_var = float(rule.weights @ y2) - est_mean**2
                relative_errors.append({
                    "method": name, "dimension": n, "exponent": exponent,
                    "mean": est_mean / truth_mean - 1.0,
                    "variance": est_var / truth_var - 1.0,
                })
                if np.isfinite(est_var) and est_var > _rounding_bound(rule.weights, y2):
                    divergence, error = kl_gauss(GaussianState(
                        np.array([est_mean]), np.array([[est_var]])), truth), ""
                else:
                    divergence, error = "", "non-positive variance estimate"
                report.rows.append([name, n, exponent, divergence, est_mean, est_var, error])
    report.metadata["wall_time_s"] = time.time() - start
    report.metadata["kl_direction"] = "KL(estimate || truth)"
    report.metadata["ground_truth"] = {
        "method": "closed form, DLMF 13.4.4",
        "ignored_keys": [key for key in _IGNORED if key in config],
    }
    report.metadata["relative_error"] = relative_errors
    return report


# ---------------------------------------------------------------------------
# filtering studies


def _rmse(estimates: np.ndarray, truth: np.ndarray, components) -> np.ndarray:
    """Per-trajectory RMSE over the selected components of (S, T, n) arrays."""
    diff = estimates[..., components] - truth[..., components]
    return np.sqrt(np.mean(np.sum(diff**2, axis=-1), axis=-1))


def _error_row(name: str, error: Exception | str) -> list:
    return [name, "", "", "", "", str(error)]


def _group_rows(names, rules, model, measurements, truth, components) -> list:
    """Report rows of a group of methods, filtered and smoothed as one batch
    over all trajectories: RMSE statistics, or the error that stopped a
    method's filter."""
    out = run_filter(model, rules, measurements)
    smoothed_means, _ = run_smoother(model, rules, out)
    rows = []
    for name, error, filtered, smoothed in zip(names, out.errors, out.filtered_means,
                                               smoothed_means):
        if error:
            rows.append(_error_row(name, error))
            continue
        rmses = [_rmse(estimates, truth, components) for estimates in (filtered, smoothed)]
        rows.append([name, *(float(f(rmse)) for rmse in rmses for f in (np.mean, np.std)), ""])
    return rows


def _filtering_study(experiment: str, config: dict, seed_offset: int, make_model,
                     components, **table) -> Report:
    """Filter/smoother RMSE rows, one per method in config order, on the
    model ``make_model`` builds from the config's fields; ``table`` adds
    top-level keys, and ``seed_offset`` is added to every seed.

    Every method is resolved before any numerics; a numerical build
    failure is that method's error row.  The rules run as one group when
    padding each to the largest point count N_max at most doubles the sigma
    points (M N_max <= 2 sum N, M rules), else in groups of one point
    count, each group as one recursion over all trajectories (see
    ``run_filter``).  A method whose filter fails stops alone, its error
    cell as it reads alone; a smoother failure ends the study (no shipped
    config reaches one: both models have Q > 0).
    """
    def seed(item, what: str) -> int:  # shifted by the offset, which must leave it >= 0
        return config_int(config_int(item, what) + seed_offset, what, minimum=0)
    fields = command_fields(config, {
        "methods": (_methods, REQUIRED), "seeds": (partial(config_list, read=seed), REQUIRED),
        "steps": (partial(config_int, minimum=1), 500), **table}, experiment)
    methods, seeds, steps, model = (fields["methods"], fields["seeds"], fields["steps"],
                                    make_model(fields))
    resolved = {m["name"]: resolve_rule(model.state_dim, **m) for m in methods}

    start = time.time()
    report = Report(
        experiment=experiment,
        columns=["method", "filter_rmse_mean", "filter_rmse_std",
                 "smoother_rmse_mean", "smoother_rmse_std", "error"],
        metadata={"config": config, "version": __version__},
    )
    trajectories = simulate_many(model, steps, seeds)
    rows, rules = {}, {}
    for name, method in resolved.items():
        try:
            rules[name] = build_rule(method, model.state_dim)
        except NumericalError as exc:
            rows[name] = _error_row(name, exc)
    counts = {name: rule.points.count for name, rule in rules.items()}
    merged = len(counts) * max(counts.values(), default=0) <= 2 * sum(counts.values())
    groups = {}
    for name, count in counts.items():
        groups.setdefault(None if merged else count, []).append(name)
    for names in groups.values():
        rows.update(zip(names, _group_rows(names, [rules[name] for name in names],
                                           model, trajectories.measurements,
                                           trajectories.states[:, 1:], components)))
    report.rows = [rows[method["name"]] for method in methods]
    report.metadata["wall_time_s"] = time.time() - start
    report.metadata["seeds"] = seeds
    report.metadata["steps"] = steps
    return report


def run_ungm(config: dict, seed_offset: int = 0) -> Report:
    """Filter/smoother state RMSE study on the univariate growth model."""
    return _filtering_study("ungm", config, seed_offset, lambda fields: ungm_model(),
                            components=[0])


_BOT_MODEL = {
    "sensors": (lambda value, what: config_array(value, what, (4, 2)), None),
    "prior_mean": (lambda value, what: config_array(value, what, (5,)), None),
    "prior_cov": (partial(config_cov, n=5), None),
    **dict.fromkeys(("bearing_noise_std", "dt", "q1", "q2"), (config_float, None)),
}


def _bot_config(value, what: str):
    """The model a config's 'model' object gives, a key left out at its default."""
    fields = config_fields(value, _BOT_MODEL, what)
    try:
        return bot_model(**{key: field for key, field in fields.items() if field is not None})
    except ValueError as exc:
        raise ConfigError(f"{what}: invalid bearings-only model: {exc}") from exc


def run_bot(config: dict, seed_offset: int = 0) -> Report:
    """Position RMSE study on bearings-only coordinated-turn tracking."""
    return _filtering_study("bot", config, seed_offset,
                            lambda fields: fields["model"] or bot_model(), components=[0, 2],
                            model=(_bot_config, None), steps=(partial(config_int, minimum=1), 100))
