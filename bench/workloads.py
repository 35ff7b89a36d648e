"""The benchmark's workloads: fixed inputs, one timed round, the checks.

A round is the unit that is timed and repeated; it calls only gpquad's
public API and returns its outputs.  An operation is one study method or
one rule built; ``failed`` counts the operations of a round whose
numerics failed.  ``check`` compares a round's outputs with the plain
numpy computations in ``reference.py`` and returns the problems found.

Inputs are written out here instead of read from ``configs/`` so that a
change to a config file cannot change what the benchmark measures.
"""

from __future__ import annotations

import math

import numpy as np
from gpquad import experiments, filtering, kernels, models, points, quadrature

import reference

# the moments study reports this instead of a KL when a rule's variance
# estimate is not positive; it is an estimate, not a numerical failure
NON_POSITIVE_VARIANCE = "non-positive variance estimate"


def _se(length_scale):
    return {"type": "se", "output_scale": 1.0, "length_scale": length_scale}


def _classical(name, point_spec):
    return {"name": name, "points": point_spec, "kernel": "classical"}


def _gpq(name, point_spec, length_scale):
    return {"name": name, "points": point_spec, "kernel": _se(length_scale), "jitter": 1e-8}


def _optimized(count):
    return {"type": "optimized", "count": count, "seed": 0, "kernel": _se(1.0)}


UT = {"type": "ut", "kappa": 2.0}
CUBATURE = {"type": "cubature"}

# configs/ungm.json without gpq-cubature, gpq-hammersley-7 and -10, which
# fail on this model: gpq-cubature's covariance goes non-PSD at time index
# 425 within seeds 0-19, the Hammersley sets within the first 40 steps.
UNGM_METHODS = [
    _classical("ukf", UT),
    _classical("ckf", CUBATURE),
    _classical("ghkf-3", {"type": "gauss-hermite", "order": 3}),
    _classical("ghkf-7", {"type": "gauss-hermite", "order": 7}),
    _classical("ghkf-10", {"type": "gauss-hermite", "order": 10}),
    _gpq("gpq-ut", UT, 3.0),
    _gpq("gpq-hammersley-3", {"type": "hammersley", "count": 3}, 3.0),
    _gpq("gpq-optimized-3", _optimized(3), 3.0),
    _gpq("gpq-optimized-7", _optimized(7), 3.0),
    _gpq("gpq-optimized-10", _optimized(10), 3.0),
]

# configs/bot.json
BOT_METHODS = [
    _classical("ukf", UT),
    _classical("ckf", CUBATURE),
    _classical("ghkf-3", {"type": "gauss-hermite", "order": 3}),
    _gpq("gpq-ut", UT, 10.0),
    _gpq("gpq-cubature", CUBATURE, 10.0),
]

# configs/moments.json without mc_samples, mc_seed and cache_dir: the
# study's defaults then draw 1e7 samples per cell on every call and read
# or write no cache file
MOMENTS_CONFIG = {
    "experiment": "moments",
    "dimensions": [2, 5, 10],
    "exponents": [1, -2, -3, -5],
    "methods": [
        _classical("cubature", CUBATURE),
        _gpq("gpq-cubature", CUBATURE, 1.0),
        _gpq("gpq-hammersley", {"type": "hammersley", "count": "2n"}, 1.0),
    ],
}
MOMENTS_SAMPLES = 10**7

# RMSEs from the reference recursion agree with the library's to far
# better than this; summing in another order moves them by ~1e-8 relative
RMSE_RTOL = 1e-6
RMSE_COLUMNS = ("filter_rmse_mean", "filter_rmse_std",
                "smoother_rmse_mean", "smoother_rmse_std")


def _report_problems(reports):
    """Rounds repeat the same inputs, so their reports must be identical."""
    first = reports[0].to_csv()
    return [] if all(r.to_csv() == first for r in reports[1:]) else [
        "reports differ between rounds of identical inputs"]


class FilteringWorkload:
    """One filtering study over seeded trajectories, a round per study call."""

    def __init__(self, seed, name, methods, trajectories, steps, reference_model,
                 components, model):
        self.name = name
        self.methods = methods
        self.ops_per_round = len(methods)
        self.config = {"experiment": name, "steps": steps, "methods": methods,
                       "seeds": [seed * trajectories + i for i in range(trajectories)]}
        self.reference_model = reference_model
        self.components = components
        self.model = model
        self.rules = {}

    def study(self, config):
        return getattr(experiments, f"run_{self.name}")(config)

    def warm_up(self):
        """Builds every rule once, kept for the checks, and runs each through
        a short filter and smoother."""
        n = self.model.state_dim
        self.rules = {m["name"]: experiments.build_rule(m, n) for m in self.methods}
        trajectory = models.simulate(self.model, 20, self.config["seeds"][0])
        for rule in self.rules.values():
            out = filtering.run_filter(self.model, rule, trajectory.measurements)
            filtering.run_smoother(self.model, rule, out)

    def round(self):
        return self.study(self.config)

    def failed(self, report):
        error = report.columns.index("error")
        return sum(row[error] != "" for row in report.rows)

    def check(self, reports):
        problems = _report_problems(reports)
        report = reports[-1]
        cols = report.columns
        rows = {row[0]: row for row in report.rows}
        states, ys = [], []
        for seed in self.config["seeds"]:
            drawn = models.simulate(self.model, self.config["steps"], seed)
            want_states, want_ys = reference.simulate(
                self.reference_model, self.config["steps"], seed)
            # the models agree to rounding, except where the turn rate
            # falls between the two small-angle thresholds: 9e-10 m
            # apart on bearings-only trajectory 0
            if not (np.allclose(drawn.states, want_states, rtol=0.0, atol=1e-6)
                    and np.allclose(drawn.measurements, want_ys, rtol=0.0, atol=1e-6)):
                problems.append(f"trajectory {seed}: simulate differs from the reference")
            states.append(want_states)
            ys.append(want_ys)
        states, ys = np.stack(states), np.stack(ys)
        for name, rule in self.rules.items():
            row = rows.get(name)
            if row is None or row[cols.index("error")] != "":
                problems.append(f"{name}: no result ({row and row[-1]})")
                continue
            filtered, smoothed = reference.sigma_point_filter_smoother(
                self.reference_model, rule.points.points, rule.weights, ys)
            f_rmse = reference.rmse_per_trajectory(filtered, states, self.components)
            s_rmse = reference.rmse_per_trajectory(smoothed, states, self.components)
            expected = (f_rmse.mean(), f_rmse.std(), s_rmse.mean(), s_rmse.std())
            for column, want in zip(RMSE_COLUMNS, expected):
                got = row[cols.index(column)]
                if not math.isclose(got, want, rel_tol=RMSE_RTOL):
                    problems.append(f"{name} {column}: study {got!r}, reference {want!r}")
        problems += self.method_checks(rows, cols)
        return problems


class UngmWorkload(FilteringWorkload):
    def __init__(self, seed):
        super().__init__(seed, "ungm", UNGM_METHODS, trajectories=8, steps=500,
                         reference_model=reference.UNGM, components=[0],
                         model=models.ungm_model())

    def method_checks(self, rows, cols):
        # in 1-D, UT with kappa = 2 and 3-point Gauss-Hermite are one rule;
        # the rounding in their weights moved per-trajectory RMSEs by at
        # most 2e-10 relative over trajectories 0-299
        col = cols.index("filter_rmse_mean")
        ukf, gh3 = rows["ukf"][col], rows["ghkf-3"][col]
        return [] if math.isclose(ukf, gh3, rel_tol=1e-8) else [
            f"ukf and ghkf-3 filter RMSE differ: {ukf!r} vs {gh3!r}"]


class BotWorkload(FilteringWorkload):
    def __init__(self, seed):
        super().__init__(seed, "bot", BOT_METHODS, trajectories=16, steps=100,
                         reference_model=reference.BOT, components=[0, 2],
                         model=models.bot_model())

    # The factor-2 band is a claim about configs/bot.json's own ten
    # trajectories.  On others a bearing can jump by 2 pi where it crosses
    # +-pi, and every method diverges on some of them (4 of trajectories
    # 0-199 for the UKF), so the band is checked on the claim's inputs.
    BAND_SEEDS = list(range(10))

    def warm_up(self):
        super().warm_up()
        self.band_report = self.study({**self.config, "seeds": self.BAND_SEEDS})

    def method_checks(self, rows, cols):
        col = cols.index("filter_rmse_mean")
        rmses = {row[0]: row[col] for row in self.band_report.rows}
        best = min(rmses.values())
        return [f"{name} filter RMSE {value!r} above twice the best {best!r}"
                for name, value in rmses.items() if value > 2.0 * best]


def _attempt(build):
    """Result of one rule build, or the numerical error it raised."""
    try:
        return build()
    except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        return exc


class RulesWorkload:
    """Rule construction only: the moments study, minimum-variance sets,
    GP-quadrature weights that recover the classical rules, and SE
    weights on a large Hammersley set."""

    name = "rules"
    HAMMERSLEY = dict(n=2, count=2000, length_scale=0.5, jitter=1e-6)
    # the optimizer's run time depends on its start (4.4-7.2 s in 2-D over
    # seeds 0-5), so its seed stays fixed; --seed draws the random sets
    # the optimized sets are compared with
    OPTIMIZER_SEED = 0
    RANDOM_SETS = 50

    def __init__(self, seed):
        self.seed = seed
        self.ops_per_round = len(MOMENTS_CONFIG["methods"]) + 6

    def warm_up(self):
        experiments.run_moments({**MOMENTS_CONFIG, "dimensions": [2], "mc_samples": 10_000})
        se = kernels.SquaredExponentialKernel(1.0, 1.0)
        points.optimize_points(se, 1, 3, 0)
        quadrature.gpq_weights(kernels.make_gh_kernel(2, 3), points.gauss_hermite_points(2, 3).points)
        quadrature.gpq_weights(kernels.make_ut_kernel(2, 5), points.symmetric5_points(2).points)
        quadrature.gpq_weights(se, points.hammersley_points(2, 100), 1e-6)

    def round(self):
        # the study's truth passes through a recorder for the checks:
        # 12 extra Python calls per round, against seconds of sampling
        truths, truth = [], experiments.moments_ground_truth

        def record(*args):
            result = truth(*args)
            truths.append((args, result))
            return result

        experiments.moments_ground_truth = record
        try:
            out = {"moments": experiments.run_moments(dict(MOMENTS_CONFIG))}
        finally:
            experiments.moments_ground_truth = truth
        se = kernels.SquaredExponentialKernel(1.0, 1.0)
        for n in (1, 2):
            out[f"optimized-{n}d"] = _attempt(lambda: quadrature.gpq_weights(
                se, points.optimize_points(se, n, 10, self.OPTIMIZER_SEED), 0.0))
        out["ut"] = _attempt(lambda: quadrature.gpq_weights(
            kernels.make_ut_kernel(10, 3), points.ut_points(10, 2.0).points))
        out["symmetric5"] = _attempt(lambda: quadrature.gpq_weights(
            kernels.make_ut_kernel(10, 5), points.symmetric5_points(10).points))
        out["gauss-hermite"] = _attempt(lambda: quadrature.gpq_weights(
            kernels.make_gh_kernel(5, 3), points.gauss_hermite_points(5, 3).points))
        h = self.HAMMERSLEY
        out["hammersley-se"] = _attempt(lambda: quadrature.gpq_weights(
            kernels.SquaredExponentialKernel(1.0, h["length_scale"]),
            points.hammersley_points(h["n"], h["count"]), h["jitter"]))
        out["truths"] = truths
        return out

    def failed(self, out):
        report = out["moments"]
        error = report.columns.index("error")
        failed_methods = {row[0] for row in report.rows
                          if row[error] not in ("", NON_POSITIVE_VARIANCE)}
        return len(failed_methods) + sum(isinstance(v, Exception) for v in out.values())

    def check(self, outs):
        problems = _report_problems([o["moments"] for o in outs])
        out = outs[-1]
        for key, value in out.items():
            if isinstance(value, Exception):
                problems.append(f"{key}: {value}")
        if problems:
            return problems
        for key in outs[0]:
            if key not in ("moments", "truths") and any(
                    not np.array_equal(o[key].weights, out[key].weights) for o in outs):
                problems.append(f"{key}: weights differ between rounds")
        return (problems + self._check_moments(out["moments"], out["truths"])
                + self._check_recovered(out) + self._check_optimized(out)
                + self._check_hammersley(out["hammersley-se"]))

    def _check_moments(self, report, truths):
        problems = []
        truth = {}
        for (n, p, samples, _seed, cache_dir), (mean, var) in truths:
            exact_mean, exact_var, se_mean, se_var = reference.radial_truth(n, p, samples)
            if samples != MOMENTS_SAMPLES or cache_dir is not None:
                problems.append(f"truth n={n} p={p}: {samples} samples, cache {cache_dir}")
            if abs(mean - exact_mean) > 4 * se_mean or abs(var - exact_var) > 4 * se_var:
                problems.append(
                    f"truth n={n} p={p}: Monte Carlo ({mean!r}, {var!r}) more than 4 "
                    f"standard errors from the closed form ({exact_mean!r}, {exact_var!r})")
            truth[(n, p)] = (mean, var)
        if len(truth) != 12:
            problems.append(f"{len(truth)} truth cells recorded, expected 12")
            return problems
        cols = report.columns
        for row in report.rows:
            name, n, p, kl, est_mean, est_var, error = (row[cols.index(c)] for c in cols)
            if name == "cubature":
                # every cubature point sits on the sphere |x|^2 = n
                want = (1.0 + n) ** (p / 2.0)
                if not math.isclose(est_mean, want, rel_tol=1e-12):
                    problems.append(f"cubature n={n} p={p}: mean {est_mean!r}, expected {want!r}")
                if abs(est_var) > 1e-12 * want**2:
                    problems.append(f"cubature n={n} p={p}: variance {est_var!r}, expected 0")
            else:
                if error:
                    problems.append(f"{name} n={n} p={p}: {error}")
                    continue
                unit = (np.vstack([np.eye(n), -np.eye(n)]) * math.sqrt(n)
                        if name == "gpq-cubature" else reference.hammersley(n, 2 * n))
                weights, _ = reference.se_weights_and_variance(unit, 1.0, 1e-8)
                radial = 1.0 + (unit**2).sum(axis=1)
                want_mean = weights @ radial ** (p / 2.0)
                want_var = weights @ radial ** float(p) - want_mean**2
                if not (math.isclose(est_mean, want_mean, rel_tol=1e-6)
                        and math.isclose(est_var, want_var, rel_tol=1e-6)):
                    problems.append(f"{name} n={n} p={p}: estimate ({est_mean!r}, {est_var!r}),"
                                    f" reference ({want_mean!r}, {want_var!r})")
            if not error:
                want_kl = reference.kl_gauss_1d(est_mean, est_var, *truth[(n, p)])
                if not math.isclose(kl, want_kl, rel_tol=1e-9):
                    problems.append(f"{name} n={n} p={p}: KL {kl!r}, reference {want_kl!r}")
        return problems

    def _check_recovered(self, out):
        problems = []
        expected = {
            "ut": lambda pts: reference.ut_expected(pts, 2.0),
            "symmetric5": reference.symmetric5_expected,
            "gauss-hermite": lambda pts: reference.gauss_hermite_expected(pts, 3),
        }
        for key, closed_form in expected.items():
            rule = out[key]
            error = np.abs(rule.weights - closed_form(rule.points.points)).max()
            if error > 1e-9 or rule.posterior_variance > 1e-8:
                problems.append(f"{key}: weights off the closed form by {error:.3e}, "
                                f"posterior variance {rule.posterior_variance:.3e}")
        return problems

    def _check_optimized(self, out):
        problems = []
        rng = np.random.default_rng(self.seed)
        for n in (1, 2):
            rule = out[f"optimized-{n}d"]
            _, plain = reference.se_weights_and_variance(rule.points.points, 1.0, 0.0)
            if abs(rule.posterior_variance - plain) > 1e-9:
                problems.append(f"optimized {n}-D: posterior variance "
                                f"{rule.posterior_variance!r}, plain numpy {plain!r}")
            ham = reference.se_weights_and_variance(
                reference.hammersley(n, 10), 1.0, 0.0, rcond=1e-12)[1]
            best_random = min(
                reference.se_weights_and_variance(
                    rng.standard_normal((10, n)), 1.0, 0.0, rcond=1e-12)[1]
                for _ in range(self.RANDOM_SETS))
            if not rule.posterior_variance < min(ham, best_random):
                problems.append(f"optimized {n}-D: variance {rule.posterior_variance!r} not "
                                f"below Hammersley {ham!r} and best random {best_random!r}")
        return problems

    def _check_hammersley(self, rule):
        h = self.HAMMERSLEY
        unit = reference.hammersley(h["n"], h["count"])
        gram, q, double_integral = reference.se_system(unit, h["length_scale"], h["jitter"])
        variance = double_integral - q @ np.linalg.solve(gram, q)
        # the system's condition number is ~3e8, so compare weights by their
        # residual in it rather than entry by entry
        residual = np.linalg.norm(gram @ rule.weights - q) / np.linalg.norm(q)
        problems = []
        if np.abs(rule.points.points - unit).max() > 1e-12:
            problems.append("hammersley-se: points differ from the reference set")
        if residual > 1e-10:
            problems.append(f"hammersley-se: weights leave a residual of {residual:.3e}")
        if abs(rule.posterior_variance - variance) > 1e-9:
            problems.append(f"hammersley-se: posterior variance {rule.posterior_variance!r}, "
                            f"plain numpy {variance!r}")
        return problems


WORKLOADS = {"ungm": UngmWorkload, "bot": BotWorkload, "rules": RulesWorkload}
