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
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .filtering import GaussianState, run_filter, run_smoother
from .kernels import SquaredExponentialKernel, make_gh_kernel, make_ut_kernel
# the studies call simulate_many; simulate stays importable from here
# because bench/spans.py wraps experiments.simulate
from .models import (BotConfig, bot_model, moment_integrand, simulate,  # noqa: F401
                     simulate_many, ungm_model)
from .points import (
    QuadratureRule,
    UnitPointSet,
    _check_optimizer_size,
    cubature_points,
    gauss_hermite_points,
    hammersley_points,
    optimize_points,
    random_points,
    symmetric5_points,
    ut_points,
    OptimizerSettings,
)
from .quadrature import (NumericalError, _cholesky_solve, _not_positive_definite,
                         _positive_definite, gpq_weights, matrix_sqrt)

__all__ = [
    "ConfigError",
    "config_int",
    "config_float",
    "config_array",
    "config_cov",
    "config_list",
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
    ``matrix_sqrt``'s, which pass a singular PSD matrix, or ConfigError."""
    cov = config_array(value, what, *([()] if scalar else []), (n, n))
    if cov.shape == ():
        cov = cov * np.eye(n)
    try:
        matrix_sqrt(cov)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc
    return cov


def config_list(value, what: str, read) -> list:
    """A config value read as a non-empty list, item i through
    ``read(item, f"{what} item {i}")``; anything else raises ConfigError
    naming ``what``."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{what} must be a non-empty list, got {value!r}")
    return [read(item, f"{what} item {i}") for i, item in enumerate(value)]


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
    return 2 * n if raw == "2n" else config_int(raw, f"{context}: count", minimum=1)


def _uniform(points: UnitPointSet) -> QuadratureRule:
    return QuadratureRule(points, np.full(points.count, 1.0 / points.count))


def _point_rule(spec: dict, n: int):
    """A rule from its point spec, with its generator's classical weights;
    for a set without them (Hammersley, random, optimized) the builder of
    a rule with uniform 1/N weights (plain (quasi) Monte Carlo), which
    runs the generator.  A ``csv`` file holds one column per dimension
    under a header line, optionally followed by a ``weight`` column whose
    values become the weights, else uniform ones."""
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
        return gauss_hermite_points(
            n, config_int(_require(spec, "order", context), f"{context}: order"))
    if kind == "hammersley":
        generate = partial(hammersley_points, n, _point_count(spec, n, context))
    elif kind == "random":
        seed = config_int(spec.get("seed", 0), f"{context}: seed", minimum=0)
        generate = partial(random_points, n, _point_count(spec, n, context), seed)
    elif kind == "optimized":
        kernel = _kernel(
            spec.get("kernel", {"type": "se", "output_scale": 1.0, "length_scale": 1.0}),
            n)
        settings = OptimizerSettings(
            restarts=config_int(spec.get("restarts", 5), f"{context}: restarts"),
            jitter=config_float(spec.get("jitter", 0.0), f"{context}: jitter"),
        )
        seed = config_int(spec.get("seed", 0), f"{context}: seed", minimum=0)
        count = _point_count(spec, n, context)
        _check_optimizer_size(n, count)
        generate = partial(optimize_points, kernel, n, count, seed, settings)
    elif kind == "csv":
        path = _require(spec, "path", context)
        if not isinstance(path, str) or not Path(path).is_file():
            raise ConfigError(f"{context}: no such file {path!r}")
        path = Path(path)
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
        return QuadratureRule(points, table[:, n]) if weighted else _uniform(points)
    else:
        raise ConfigError(f"{context}: unknown point set type '{kind}'")
    return lambda: _uniform(generate())


def _kernel(spec, n: int):
    """A kernel from its spec; None for 'classical'."""
    if spec == "classical":
        return None
    context = f"kernel spec {spec!r}"
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError(f"{context}: expected 'classical' or an object with 'type'")
    kind = spec["type"]
    if kind == "se":
        return SquaredExponentialKernel(**{
            key: config_float(spec.get(key, 1.0), f"{context}: {key}")
            for key in ("output_scale", "length_scale")})
    if kind == "ut-hermite":
        return make_ut_kernel(n, config_int(spec.get("order", 3), f"{context}: order"))
    if kind == "gh-hermite":
        return make_gh_kernel(n, config_int(spec.get("order"), f"{context}: order"))
    raise ConfigError(f"{context}: unknown kernel type '{kind}'")


def _resolve(method: dict, n: int) -> tuple:
    """A method spec for dimension n checked without numerics, as the
    (rule, kernel, jitter) triple ``build_rule`` takes, a generated set's
    rule as its builder.  A spec that cannot be resolved, a generator's or
    kernel's ``ValueError`` included, raises ConfigError naming the method."""
    context = f"method {method.get('name', '?')!r}"
    try:
        rule = _point_rule(method.get("points"), n)
        kernel = _kernel(method.get("kernel", "classical"), n)
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc
    jitter = config_float(method.get("jitter", 0.0), f"{context}: jitter")
    if jitter < 0:
        raise ConfigError(f"{context}: jitter must be >= 0, got {jitter!r}")
    return rule, kernel, jitter


def build_rule(method: dict | tuple, n: int) -> QuadratureRule:
    """The rule of a method spec for dimension n, or of the triple a study
    resolved it into before any numerics; the optimizer's and the weight
    solve's failures are numerical and raise as they are."""
    rule, kernel, jitter = method if isinstance(method, tuple) else _resolve(method, n)
    rule = rule() if callable(rule) else rule
    return rule if kernel is None else gpq_weights(kernel, rule.points, jitter)


def _method_spec(value, what: str) -> dict:
    if not isinstance(value, dict) or not isinstance(value.get("name"), str):
        raise ConfigError(f"{what} must be an object with a string 'name', "
                          f"got {value!r}")
    return value


def _validated_methods(config) -> list[dict]:
    methods = config_list(config.get("methods"), "config: 'methods'", _method_spec)
    names = [m["name"] for m in methods]
    if len(set(names)) != len(names):
        raise ConfigError("method names must be unique")
    return methods


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


def run_moments(config: dict) -> Report:
    """Per-method KL divergence of moment estimates across (n, p) cells."""
    methods = _validated_methods(config)
    dims = config_list(config.get("dimensions"), "config: 'dimensions'",
                       partial(config_int, minimum=1))
    exponents = config_list(config.get("exponents"), "config: 'exponents'", config_int)
    if 0 in exponents:  # y = 1 has variance zero: no KL divergence to it
        raise ConfigError("config: 'exponents' must be non-zero")
    resolved = {n: {m["name"]: _resolve(m, n) for m in methods} for n in dims}
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
        for name, method in resolved[n].items():
            try:
                rules[name] = build_rule(method, n)
            except NumericalError as exc:
                rules[name] = exc
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
        filter_rmses = _rmse(filtered, truth, components)
        smoother_rmses = _rmse(smoothed, truth, components)
        rows.append([
            name,
            float(np.mean(filter_rmses)), float(np.std(filter_rmses)),
            float(np.mean(smoother_rmses)), float(np.std(smoother_rmses)),
            "",
        ])
    return rows


def _filtering_study(experiment: str, config: dict, model,
                     components, default_steps: int = 500) -> Report:
    """Filter/smoother RMSE rows, one per method in config order.

    Every method spec is resolved before any numerics, a ConfigError ending
    the study; a numerical build failure is that method's error row.  The
    built rules run as one group when padding every rule to the largest
    point count N_max at most doubles the sigma points (M N_max <= 2 sum N,
    M rules), and otherwise in groups of one point count, so a few large
    rules do not make many small ones evaluate the model at padding
    points.  Each group runs once, as one recursion over all trajectories
    (see ``run_filter``); a method whose filter fails stops alone, its
    error cell as it reads alone.  A smoother failure ends the study: it
    needs a predicted covariance that passed the filter only by the eigen
    square root, which no shipped config reaches (both models have Q > 0).
    """
    methods = _validated_methods(config)
    seeds = config_list(config.get("seeds"), "config: 'seeds'",
                        partial(config_int, minimum=0))
    steps = config_int(config.get("steps", default_steps), "config: 'steps'", minimum=1)
    resolved = {m["name"]: _resolve(m, model.state_dim) for m in methods}

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
                                           model, measurements, truth, components)))
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
    kwargs = {key: config_array(spec[key], f"config: model '{key}'", shape)
              for key, shape in (("sensors", (4, 2)), ("prior_mean", (5,))) if key in spec}
    if "prior_cov" in spec:
        kwargs["prior_cov"] = config_cov(spec["prior_cov"], "config: model 'prior_cov'", 5)
    for key in ("bearing_noise_std", "dt", "q1", "q2"):
        if key in spec:
            kwargs[key] = config_float(spec[key], f"config: model '{key}'")
    try:
        return BotConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"config: invalid bearings-only model: {exc}") from exc


def _metadata(config: dict) -> dict:
    return {"config": config, "version": __version__}
