"""Experiment harness behind the CLI: configs, methods, studies, reports.

A method is a (point-set spec, weighting spec, jitter) triple resolved
into a quadrature rule: the point-set spec gives a rule with the
classical weights of its generator (uniform 1/N for random, Hammersley,
optimized and CSV sets); ``"classical"`` keeps them, a kernel spec
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

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .filtering import GaussianState, run_filter, run_smoother
from .hermite import MAX_GH_ORDER
from .kernels import SquaredExponentialKernel, make_gh_kernel, make_ut_kernel
# the studies call simulate_many; simulate stays importable from here
# because bench/spans.py wraps experiments.simulate
from .models import (BotConfig, bot_model, moment_integrand, simulate,  # noqa: F401
                     simulate_many, ungm_model)
from .points import (
    MAX_TENSOR_POINTS,
    QuadratureRule,
    UnitPointSet,
    cubature_points,
    gauss_hermite_points,
    hammersley_points,
    optimize_points,
    random_points,
    symmetric5_points,
    ut_points,
    OptimizerSettings,
)
from .quadrature import (_cholesky_solve, _not_positive_definite, _positive_definite,
                         gpq_weights)

__all__ = [
    "ConfigError",
    "config_int",
    "config_float",
    "Report",
    "kl_gauss",
    "resolve_point_spec",
    "resolve_kernel_spec",
    "build_rule",
    "run_moments",
    "run_ungm",
    "run_bot",
    "moments_ground_truth",
]

FLOAT_FORMAT = "%.12g"


class ConfigError(ValueError):
    """Invalid experiment configuration."""


# the failures a study reports in a method's error cell and the CLI exits
# with code 2 for; a ConfigError is a ValueError, which the CLI catches first
NUMERICAL_ERRORS = (np.linalg.LinAlgError, ValueError, RuntimeError, FloatingPointError)


def config_int(value, what: str, minimum: int | None = None,
               maximum: int | None = None) -> int:
    """A config value read as an int; a bool, a non-number, a fractional
    number or one outside [``minimum``, ``maximum``] raises ConfigError
    naming ``what``."""
    integral = (isinstance(value, int) and not isinstance(value, bool)) or (
        isinstance(value, float) and value.is_integer())
    if (not integral or (minimum is not None and value < minimum)
            or (maximum is not None and value > maximum)):
        bounds = " and ".join(f"{sign} {limit}" for sign, limit
                              in ((">=", minimum), ("<=", maximum)) if limit is not None)
        raise ConfigError(f"{what} must be an integer{' ' + bounds if bounds else ''}, "
                          f"got {value!r}")
    return int(value)


def config_float(value, what: str) -> float:
    """A config value read as a float; a bool, a non-number or a non-finite
    number raises ConfigError naming ``what``."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return float(value)


@dataclass
class Report:
    experiment: str
    columns: list[str]
    rows: list[list] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def all_failed(self) -> bool:
        error_col = self.columns.index("error")
        return bool(self.rows) and all(r[error_col] != "" for r in self.rows)

    def _format_cell(self, cell) -> str:
        if isinstance(cell, str):
            return cell
        if isinstance(cell, (int, np.integer)):
            return str(int(cell))
        return FLOAT_FORMAT % float(cell)

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        lines += [",".join(self._format_cell(c) for c in row) for row in self.rows]
        return "\n".join(lines) + "\n"

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
# method resolution


def _require(mapping, key, context):
    if key not in mapping:
        raise ConfigError(f"{context}: missing required field '{key}'")
    return mapping[key]


def _point_count(spec, n: int, context: str) -> int:
    raw = _require(spec, "count", context)
    if raw == "2n":
        return 2 * n
    if isinstance(raw, int) and not isinstance(raw, bool) and raw >= 1:
        return raw
    raise ConfigError(f"{context}: count must be a positive integer or '2n'")


def resolve_point_spec(spec: dict, n: int) -> QuadratureRule:
    """Build a rule from its JSON spec; a generator without classical
    weights gets uniform 1/N ones (plain (quasi) Monte Carlo).  A ``csv``
    file holds one column per dimension under a header line, optionally
    followed by a ``weight`` column whose values become the weights."""
    context = f"point spec {spec!r}"
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError(f"{context}: expected an object with a 'type' field")
    kind = spec["type"]
    if kind == "ut":
        return ut_points(n, config_float(spec.get("kappa", 2.0), f"{context}: kappa"))
    if kind == "cubature":
        return cubature_points(n)
    if kind == "symmetric5":
        return symmetric5_points(n)
    if kind == "gauss-hermite":
        order = config_int(_require(spec, "order", context), f"{context}: order",
                           minimum=1, maximum=MAX_GH_ORDER)
        if order**n > MAX_TENSOR_POINTS:
            raise ConfigError(f"{context}: a tensor grid of {order}^{n} points "
                              f"exceeds the cap {MAX_TENSOR_POINTS}")
        return gauss_hermite_points(n, order)
    if kind == "hammersley":
        points = hammersley_points(n, _point_count(spec, n, context))
    elif kind == "random":
        seed = config_int(spec.get("seed", 0), f"{context}: seed", minimum=0)
        points = random_points(n, _point_count(spec, n, context), seed)
    elif kind == "optimized":
        kernel = resolve_kernel_spec(
            spec.get("kernel", {"type": "se", "output_scale": 1.0, "length_scale": 1.0}),
            n)
        settings = OptimizerSettings(
            restarts=config_int(spec.get("restarts", 5), f"{context}: restarts",
                                minimum=1),
            jitter=config_float(spec.get("jitter", 0.0), f"{context}: jitter"),
        )
        seed = config_int(spec.get("seed", 0), f"{context}: seed", minimum=0)
        points = optimize_points(kernel, n, _point_count(spec, n, context), seed, settings)
    elif kind == "csv":
        path = Path(_require(spec, "path", context))
        if not path.exists():
            raise ConfigError(f"{context}: no such file {path}")
        with path.open() as handle:
            last_column = handle.readline().strip().split(",")[-1]
            table = np.loadtxt(handle, delimiter=",", ndmin=2)
        # what `gpq points` writes: the points, then the rule's weights
        weighted = table.shape[1] == n + 1 and last_column == "weight"
        if table.shape[1] != n and not weighted:
            raise ConfigError(f"{context}: {path} has {table.shape[1]} columns, "
                              f"expected one per dimension ({n}), "
                              "optionally followed by 'weight'")
        points = UnitPointSet(table[:, :n], f"csv({path.name})")
        if weighted:
            return QuadratureRule(points, table[:, n])
    else:
        raise ConfigError(f"{context}: unknown point set type '{kind}'")
    return QuadratureRule(points, np.full(points.count, 1.0 / points.count))


def resolve_kernel_spec(spec, n: int):
    """Build a kernel from its JSON spec ('classical' returns None); a
    value the kernel's constructor rejects is a ConfigError."""
    if spec == "classical":
        return None
    context = f"kernel spec {spec!r}"
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError(f"{context}: expected 'classical' or an object with 'type'")
    kind = spec["type"]
    try:
        if kind == "se":
            return SquaredExponentialKernel(
                output_scale=config_float(spec.get("output_scale", 1.0), "output_scale"),
                length_scale=config_float(spec.get("length_scale", 1.0), "length_scale"),
            )
        if kind == "ut-hermite":
            return make_ut_kernel(n, config_int(spec.get("order", 3), "order"))
        if kind == "gh-hermite":
            return make_gh_kernel(n, config_int(spec.get("order"), "order"))
    except ValueError as exc:  # a reader's ConfigError too, given its context here
        raise ConfigError(f"{context}: {exc}") from exc
    raise ConfigError(f"{context}: unknown kernel type '{kind}'")


def build_rule(method: dict, n: int) -> QuadratureRule:
    """Resolve one method spec into a quadrature rule for dimension n."""
    context = f"method {method.get('name', '?')!r}"
    rule = resolve_point_spec(_require(method, "points", context), n)
    kernel = resolve_kernel_spec(method.get("kernel", "classical"), n)
    jitter = config_float(method.get("jitter", 0.0), f"{context}: jitter")
    return rule if kernel is None else gpq_weights(kernel, rule.points, jitter)


def _validated_methods(config) -> list[dict]:
    methods = _require(config, "methods", "config")
    if not isinstance(methods, list) or not methods:
        raise ConfigError("config: 'methods' must be a non-empty list")
    for m in methods:
        if "name" not in m:
            raise ConfigError(f"method {m!r} has no 'name'")
    names = [m["name"] for m in methods]
    if len(set(names)) != len(names):
        raise ConfigError("method names must be unique")
    return methods


def _validated_seeds(config) -> list[int]:
    seeds = _require(config, "seeds", "config")
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("config: 'seeds' must be a non-empty list")
    return [config_int(s, "config: each of 'seeds'", minimum=0) for s in seeds]


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
    or written.  Raises ``FloatingPointError`` where ``hyperu`` returns a
    non-finite value (it does for some p < 0 once n is 50 or more).
    """
    from scipy.special import hyperu  # deferred: keeps scipy off the import path

    mean, second = map(float, 2.0 ** (-n / 2.0) * hyperu(
        n / 2.0, n / 2.0 + 1.0 + np.array([exponent / 2.0, float(exponent)]), 0.5))
    if not np.isfinite([mean, second]).all():
        raise FloatingPointError(
            f"exact moments for n={n}, p={exponent} not evaluated: hyperu gave "
            f"mean {mean!r} and second moment {second!r}")
    return mean, second - mean**2


def _rounding_bound(weights: np.ndarray, values: np.ndarray) -> float:
    """Rounding error bound N eps sum_i |w_i| |y_i| of the dot product w.y;
    a variance estimate below it is indistinguishable from zero (the
    classical cubature rule's is zero exactly, all its points lying on
    one sphere)."""
    return len(weights) * np.finfo(float).eps * float(np.abs(weights) @ np.abs(values))


def run_moments(config: dict) -> Report:
    """Per-method KL divergence of moment estimates across (n, p) cells."""
    methods = _validated_methods(config)
    dims = [config_int(d, "config: each of 'dimensions'", minimum=1)
            for d in _require(config, "dimensions", "config")]
    exponents = [config_int(p, "config: each of 'exponents'")
                 for p in _require(config, "exponents", "config")]
    # accepted and ignored; passed on as moments_ground_truth's ignored arguments
    samples = config.get("mc_samples", 10**7)
    mc_seed = config.get("mc_seed", 0)
    cache_dir = config.get("cache_dir")

    start = time.time()
    report = Report(
        experiment="moments",
        columns=["method", "dimension", "exponent", "kl", "mean", "variance", "error"],
        metadata=_metadata(config),
    )
    relative_errors = []
    for n in dims:
        rules = {}
        for method in methods:
            try:
                rules[method["name"]] = build_rule(method, n)
            except NUMERICAL_ERRORS as exc:
                rules[method["name"]] = exc
        for exponent in exponents:
            truth_mean, truth_var = moments_ground_truth(
                n, exponent, samples, mc_seed, cache_dir)
            truth = GaussianState(np.array([truth_mean]),
                                  np.array([[truth_var]]))
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
                if not np.isfinite(est_var) or est_var <= _rounding_bound(rule.weights, y2):
                    report.rows.append([
                        name, n, exponent, "", est_mean, est_var,
                        "non-positive variance estimate",
                    ])
                    continue
                divergence = kl_gauss(
                    GaussianState(np.array([est_mean]), np.array([[est_var]])),
                    truth)
                report.rows.append([name, n, exponent, divergence,
                                    est_mean, est_var, ""])
    report.metadata["wall_time_s"] = time.time() - start
    report.metadata["kl_direction"] = "KL(estimate || truth)"
    report.metadata["ground_truth"] = {
        "method": "closed form, DLMF 13.4.4",
        "ignored_keys": [key for key in ("mc_samples", "mc_seed", "cache_dir")
                         if key in config],
    }
    report.metadata["relative_error"] = relative_errors
    return report


# ---------------------------------------------------------------------------
# filtering studies


def _rmse(estimates: np.ndarray, truth: np.ndarray, components) -> np.ndarray:
    """Per-trajectory RMSE over the selected components of (S, T, n) arrays."""
    diff = estimates[..., components] - truth[..., components]
    return np.sqrt(np.mean(np.sum(diff**2, axis=-1), axis=-1))


def _error_row(name: str, exc: Exception) -> list:
    return [name, "", "", "", "", str(exc)]


def _group_rows(names, rules, model, measurements, truth, components) -> list:
    """Report rows of methods whose rules share a point count: RMSE
    statistics over all trajectories, every method and trajectory
    filtered and smoothed as one batch."""
    out = run_filter(model, rules, measurements)
    smoothed_means, _ = run_smoother(model, rules, out)
    rows = []
    for name, filtered, smoothed in zip(names, out.filtered_means, smoothed_means):
        filter_rmses = _rmse(filtered, truth, components)
        smoother_rmses = _rmse(smoothed, truth, components)
        rows.append([
            name,
            float(np.mean(filter_rmses)), float(np.std(filter_rmses)),
            float(np.mean(smoother_rmses)), float(np.std(smoother_rmses)),
            "",
        ])
    return rows


def _method_row(name, rule, model, measurements, truth, components) -> list:
    """One method's report row, or the error that stopped it."""
    try:
        return _group_rows([name], [rule], model, measurements, truth, components)[0]
    except NUMERICAL_ERRORS as exc:
        return _error_row(name, exc)


def _filtering_study(experiment: str, config: dict, model,
                     components, default_steps: int = 500) -> Report:
    """Filter/smoother RMSE rows, one per method in config order.

    Every method's rule is built first; a build failure is that method's
    error row.  The built rules are grouped by point count and each group
    runs as one recursion over all trajectories.  When a group's
    recursion fails, its methods run again one at a time, so the failing
    method's error cell reads as it would alone and the others' rows are
    unchanged.
    """
    methods = _validated_methods(config)
    seeds = _validated_seeds(config)
    steps = config_int(config.get("steps", default_steps), "config: 'steps'", minimum=1)

    start = time.time()
    report = Report(
        experiment=experiment,
        columns=["method", "filter_rmse_mean", "filter_rmse_std",
                 "smoother_rmse_mean", "smoother_rmse_std", "error"],
        metadata=_metadata(config),
    )
    trajectories = simulate_many(model, steps, seeds)
    measurements = np.stack([t.measurements for t in trajectories])
    truth = np.stack([t.states[1:] for t in trajectories])
    rows, rules, groups = {}, {}, {}
    for method in methods:
        name = method["name"]
        try:
            rules[name] = build_rule(method, model.state_dim)
        except NUMERICAL_ERRORS as exc:
            rows[name] = _error_row(name, exc)
            continue
        groups.setdefault(rules[name].points.count, []).append(name)
    for names in groups.values():
        try:
            rows.update(zip(names, _group_rows(names, [rules[name] for name in names],
                                               model, measurements, truth, components)))
        except NUMERICAL_ERRORS:
            for name in names:
                rows[name] = _method_row(name, rules[name], model, measurements,
                                         truth, components)
    report.rows = [rows[method["name"]] for method in methods]
    report.metadata["wall_time_s"] = time.time() - start
    report.metadata["seeds"] = seeds
    report.metadata["steps"] = steps
    return report


def run_ungm(config: dict) -> Report:
    """Filter/smoother state RMSE study on the univariate growth model."""
    return _filtering_study("ungm", config, ungm_model(), components=[0])


def run_bot(config: dict) -> Report:
    """Position RMSE study on bearings-only coordinated-turn tracking."""
    bot_cfg = _bot_config(config.get("model", {}))
    return _filtering_study("bot", config, bot_model(bot_cfg),
                            components=[0, 2], default_steps=bot_cfg.steps)


def _bot_config(spec: dict) -> BotConfig:
    if not isinstance(spec, dict):
        raise ConfigError("config: 'model' must be an object")
    kwargs = {}
    if "sensors" in spec:
        kwargs["sensors"] = np.asarray(spec["sensors"], dtype=float)
    for key in ("bearing_noise_std", "dt", "q1", "q2"):
        if key in spec:
            kwargs[key] = config_float(spec[key], f"config: model '{key}'")
    if "prior_mean" in spec:
        kwargs["prior_mean"] = np.asarray(spec["prior_mean"], dtype=float)
    if "prior_cov" in spec:
        kwargs["prior_cov"] = np.asarray(spec["prior_cov"], dtype=float)
    try:
        return BotConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"config: invalid bearings-only model: {exc}") from exc


def _metadata(config: dict) -> dict:
    return {"config": config, "version": __version__}
