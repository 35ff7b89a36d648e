import csv
import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

import gpquad
from gpquad.cli import main
from gpquad import cli, experiments, filtering
from gpquad.experiments import (
    FLOAT_FORMAT,
    ConfigError,
    build_rule,
    kl_gauss,
    moments_ground_truth,
    run_bot,
    run_moments,
    run_ungm,
)
from gpquad.filtering import AdditiveStateSpaceModel, GaussianState
from gpquad.models import ungm_model
from gpquad.quadrature import NumericalError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestKlGauss:
    def test_identical_is_zero(self):
        state = GaussianState(np.array([1.0, 2.0]), np.array([[2.0, 0.3], [0.3, 1.0]]))
        assert kl_gauss(state, state) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_variance_ratio(self):
        p = GaussianState(np.zeros(1), np.array([[2.0]]))
        q = GaussianState(np.zeros(1), np.array([[1.0]]))
        assert kl_gauss(p, q) == pytest.approx((2.0 - 1.0 - np.log(2.0)) / 2.0,
                                               abs=1e-12)
        assert kl_gauss(p, q) == pytest.approx(0.153426, abs=1e-6)

    def test_mean_shift_only(self):
        p = GaussianState(np.ones(1), np.eye(1))
        q = GaussianState(np.zeros(1), np.eye(1))
        assert kl_gauss(p, q) == pytest.approx(0.5, abs=1e-12)

    def test_non_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2))
            p = GaussianState(rng.normal(size=2), a @ a.T + 0.1 * np.eye(2))
            q = GaussianState(rng.normal(size=2), b @ b.T + 0.1 * np.eye(2))
            assert kl_gauss(p, q) >= 0.0

    def test_rejects_indefinite(self):
        p = GaussianState(np.zeros(1), np.array([[1.0]]))
        with pytest.raises(NumericalError):
            kl_gauss(p, GaussianState(np.zeros(1), np.array([[0.0]])))

    def test_indefinite_error_names_the_covariance(self):
        p = GaussianState(np.zeros(2), np.eye(2))
        q = GaussianState(np.zeros(2), np.diag([1.0, -0.5]))
        with pytest.raises(NumericalError,
                           match=r"KL divergence covariance not positive definite "
                                 r"for batch member 1 \(min eigenvalue -5\.000e-01\)"):
            kl_gauss(p, q)


class TestMomentsGroundTruth:
    def test_p1_n1_value(self, tmp_path):
        mean, var = moments_ground_truth(1, 1, samples=10**6, seed=0,
                                         cache_dir=tmp_path)
        oracle, _ = quad(
            lambda x: np.sqrt(1 + x**2) * np.exp(-x**2 / 2) / np.sqrt(2 * np.pi),
            -np.inf, np.inf)
        assert oracle == pytest.approx(1.35453080648, abs=1e-9)
        assert mean == pytest.approx(oracle, abs=1e-12)

    def test_non_finite_value_raises(self, monkeypatch):
        import scipy.special
        monkeypatch.setattr(scipy.special, "hyperu", lambda a, b, z: np.full(2, np.nan))
        with pytest.raises(NumericalError, match=r"n=3, p=-2 not evaluated"):
            moments_ground_truth(3, -2, samples=10**7, seed=0)

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_matches_mpmath_quadrature(self, n):
        # E[(1 + X)^s] for X chi-squared with n degrees of freedom, 40 digits
        def raw(s):
            half = mpmath.mpf(n) / 2
            return mpmath.quad(
                lambda x: (1 + x) ** s * x ** (half - 1) * mpmath.exp(-x / 2),
                [0, n, mpmath.inf]) / (2**half * mpmath.gamma(half))

        for p in json.loads((CONFIG_DIR / "moments.json").read_text())["exponents"]:
            mean, var = moments_ground_truth(n, p, samples=10**7, seed=0)
            with mpmath.workdps(40):
                oracle_mean = raw(mpmath.mpf(p) / 2)
                oracle_var = raw(p) - oracle_mean**2
            assert mean == pytest.approx(float(oracle_mean), rel=1e-12), p
            assert var == pytest.approx(float(oracle_var), rel=1e-12), p


class TestRunMoments:
    def config(self):
        return {
            "experiment": "moments",
            "dimensions": [2],
            "exponents": [1],
            "mc_samples": 10**5,
            "mc_seed": 0,
            "methods": [
                {"name": "cubature", "points": {"type": "cubature"},
                 "kernel": "classical"},
                {"name": "gpq-cubature", "points": {"type": "cubature"},
                 "kernel": {"type": "se", "output_scale": 1.0,
                            "length_scale": 1.0},
                 "jitter": 1e-8},
            ],
        }

    def test_cubature_mean_is_hand_value_and_variance_fails(self):
        report = run_moments(self.config())
        row = next(r for r in report.rows if r[0] == "cubature")
        # every cubature point sits on the radius-sqrt(2) sphere
        assert row[4] == pytest.approx(np.sqrt(3.0), abs=1e-12)
        assert row[6] == "non-positive variance estimate"

    def test_gpq_cell_has_finite_kl(self):
        report = run_moments(self.config())
        row = next(r for r in report.rows if r[0] == "gpq-cubature")
        assert row[6] == ""
        assert np.isfinite(row[3]) and row[3] >= 0.0

    def test_variance_within_rounding_of_zero_is_reported(self):
        # the cubature rule's variance estimate is zero in exact arithmetic
        # (every point on |x|^2 = n) and rounds to +-1e-17 or so; the GPQ
        # estimates clear the rounding bound by more than ten decades
        config = json.loads((CONFIG_DIR / "moments.json").read_text())
        config.pop("cache_dir")
        config["mc_samples"] = 10**4
        report = run_moments(config)
        cols = report.columns
        errors = {(row[0], row[1], row[2]): row[cols.index("error")]
                  for row in report.rows}
        assert len(errors) == 36
        for (name, n, p), error in errors.items():
            expected = "non-positive variance estimate" if name == "cubature" else ""
            assert error == expected, (name, n, p)

    def test_gpq_cubature_cells_are_error_free(self):
        # criterion 6 scores the 12 classical cubature error cells as
        # KL = inf, so it holds whatever the GPQ cells say; this pins them
        config = json.loads((CONFIG_DIR / "moments.json").read_text())
        report = run_moments(config)
        cols = report.columns
        rows = [row for row in report.rows if row[0] == "gpq-cubature"]
        assert len(rows) == 12
        for row in rows:
            assert row[cols.index("error")] == "", row
            kl = row[cols.index("kl")]
            assert np.isfinite(kl) and kl >= 0.0, row
        relative = report.metadata["relative_error"]
        assert len(relative) == 36
        assert all(np.isfinite(cell["mean"]) for cell in relative)
        # cubature, n = 2, p = 1: every point on |x|^2 = 2, variance zero
        assert relative[0]["method"] == "cubature"
        truth_mean, _ = moments_ground_truth(2, 1, samples=10**7, seed=0)
        assert relative[0]["mean"] == pytest.approx(np.sqrt(3.0) / truth_mean - 1.0,
                                                    rel=1e-12)
        assert relative[0]["variance"] == pytest.approx(-1.0, abs=1e-12)

    def test_monte_carlo_keys_are_ignored(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bare = self.config()
        for key in ("mc_samples", "mc_seed"):
            bare.pop(key)
        keyed = {**bare, "mc_samples": 10**3, "mc_seed": 7,
                 "cache_dir": str(tmp_path / "cache")}
        keyed_report, bare_report = run_moments(keyed), run_moments(bare)
        assert keyed_report.to_csv() == bare_report.to_csv()
        assert list(tmp_path.iterdir()) == []
        assert json.loads(keyed_report.to_json())["metadata"]["ground_truth"] == {
            "method": "closed form, DLMF 13.4.4",
            "ignored_keys": ["mc_samples", "mc_seed", "cache_dir"],
        }
        assert bare_report.metadata["ground_truth"]["ignored_keys"] == []

    def test_unevaluable_truth_is_that_cells_error(self, tmp_path, monkeypatch, capsys):
        # hyperu's inf or NaN depends on the scipy version, so a stand-in
        # fails the one cell (n, p) = (2, -2)
        truth = experiments.moments_ground_truth
        failure = "exact moments for n=2, p=-2 not evaluated: stand-in"

        def failing(n, exponent, *args):
            if (n, exponent) == (2, -2):
                raise NumericalError(failure)
            return truth(n, exponent, *args)

        config = {**self.config(), "exponents": [1, -2, -3]}
        config["methods"] = config["methods"] + [duplicated_point_method(tmp_path, 2)]
        healthy = run_moments(config)
        monkeypatch.setattr(experiments, "moments_ground_truth", failing)
        report = run_moments(config)
        cell = [row for row in report.rows if row[1:3] == [2, -2]]
        # the dup rule's build fails in n = 2 and keeps its own error
        assert [row[0] for row in cell] == ["cubature", "gpq-cubature", "dup"]
        assert [row[3:] for row in cell[:2]] == [["", "", "", failure]] * 2
        assert cell[2][-1].startswith("deflated weight system not positive definite")
        assert [row for row in report.rows if row[1:3] != [2, -2]] == [
            row for row in healthy.rows if row[1:3] != [2, -2]]
        assert [(entry["method"], entry["exponent"])
                for entry in report.metadata["relative_error"]] == [
            (name, p) for p in (1, -3) for name in ("cubature", "gpq-cubature")]
        # a study whose every row is an error still exits 2
        path = write_config(tmp_path, {**config, "dimensions": [2], "exponents": [-2]})
        assert main(["moments", "--config", path]) == 2
        assert capsys.readouterr().err == "every method failed; see the error column\n"

    def test_report_complete(self):
        report = run_moments(self.config())
        assert len(report.rows) == 2
        error_col = report.columns.index("error")
        kl_col = report.columns.index("kl")
        for row in report.rows:
            assert row[error_col] != "" or np.isfinite(row[kl_col])


# a method that fails numerically on the growth model: the 7-point
# Hammersley set's SE weights drive the predicted covariance negative
BROKEN_METHOD = {"name": "broken", "points": {"type": "hammersley", "count": 7},
                 "kernel": {"type": "se", "output_scale": 1.0, "length_scale": 3.0},
                 "jitter": 1e-8}


class TestRunUngm:
    def smoke_config(self):
        return json.loads((CONFIG_DIR / "ungm_smoke.json").read_text())

    def test_smoke_run_finite(self):
        report = run_ungm(self.smoke_config())
        assert len(report.rows) == 2
        for row in report.rows:
            assert row[5] == ""
            assert all(np.isfinite(row[i]) for i in range(1, 5))

    def test_csv_determinism(self):
        a = run_ungm(self.smoke_config()).to_csv()
        b = run_ungm(self.smoke_config()).to_csv()
        assert a == b

    def test_method_failure_recorded_and_run_continues(self):
        config = self.smoke_config()
        config["methods"].append(BROKEN_METHOD)
        report = run_ungm(config)
        broken = next(r for r in report.rows if r[0] == "broken")
        assert broken[5].startswith("filter failed at time index ")
        assert "matrix is not PSD" in broken[5]
        healthy = next(r for r in report.rows if r[0] == "ukf")
        assert healthy[5] == ""

    def test_missing_methods_rejected(self):
        with pytest.raises(ConfigError):
            run_ungm({"experiment": "ungm", "seeds": [0], "steps": 5})

    def test_json_report_round_trips(self):
        report = run_ungm(self.smoke_config())
        payload = json.loads(report.to_json())
        assert payload["experiment"] == "ungm"
        assert payload["columns"][0] == "method"
        assert "wall_time_s" in payload["metadata"]
        assert payload["metadata"]["version"]

    def test_filter_shape_bug_is_a_traceback_not_an_error_cell(self, tmp_path,
                                                                monkeypatch):
        # the growth model with a bug only the filter meets: its measurement
        # returns two columns for more states than the smoke config's two
        # seeds, which simulate_many steps at once
        model = ungm_model()

        def measurement(x, k):
            y = model.measurement(x, k)
            return np.column_stack([y, y]) if len(x) > 2 else y

        monkeypatch.setattr(experiments, "ungm_model",
                            lambda: dataclasses.replace(model, measurement=measurement))
        shape_bug = r"noise covariance of shape \(1, 1\); expected a scalar or \(2, 2\)"
        with pytest.raises(ValueError, match=shape_bug) as info:
            run_ungm(self.smoke_config())
        assert not isinstance(info.value, NumericalError)
        out = tmp_path / "report.csv"
        with pytest.raises(ValueError, match=shape_bug) as info:
            main(["ungm", "--config", str(CONFIG_DIR / "ungm_smoke.json"), "--out", str(out)])
        assert not isinstance(info.value, NumericalError)
        assert not out.exists()


class TestRunBot:
    def test_smoke_run_finite(self):
        config = {
            "experiment": "bot",
            "seeds": [0, 1],
            "steps": 25,
            "model": {},
            "methods": [
                {"name": "ukf", "points": {"type": "ut", "kappa": 2.0},
                 "kernel": "classical"},
                {"name": "gpq-ut", "points": {"type": "ut", "kappa": 2.0},
                 "kernel": {"type": "se", "output_scale": 1.0,
                            "length_scale": 10.0},
                 "jitter": 1e-8},
            ],
        }
        report = run_bot(config)
        for row in report.rows:
            assert row[5] == ""
            assert all(np.isfinite(row[i]) for i in range(1, 5))

    def test_steps_default_from_model_config(self):
        config = {
            "experiment": "bot",
            "seeds": [0],
            "model": {},  # no "steps": falls back to the model default
            "methods": [{"name": "ukf", "points": {"type": "ut", "kappa": 2.0},
                         "kernel": "classical"}],
        }
        report = run_bot(config)
        assert report.metadata["steps"] == 100

    def test_near_noiseless_bearings_pin_position(self):
        # four near-noiseless bearing sensors triangulate a slow target:
        # position RMSE collapses far below the prior position std of 100
        config = {
            "experiment": "bot",
            "seeds": [0, 1],
            "steps": 40,
            "model": {"bearing_noise_std": 1e-6, "q1": 1e-6, "q2": 1e-12,
                      "prior_mean": [0.0, 0.0, 0.0, 0.0, 0.0],
                      "prior_cov": [[10000.0, 0, 0, 0, 0],
                                    [0, 1.0, 0, 0, 0],
                                    [0, 0, 10000.0, 0, 0],
                                    [0, 0, 0, 1.0, 0],
                                    [0, 0, 0, 0, 1e-6]]},
            "methods": [{"name": "ukf", "points": {"type": "ut", "kappa": 2.0},
                         "kernel": "classical"}],
        }
        report = run_bot(config)
        row = report.rows[0]
        assert row[5] == ""
        assert row[1] < 0.1 * 100.0


def _method(name, points, length_scale=None):
    if length_scale is None:
        return {"name": name, "points": points, "kernel": "classical"}
    return {"name": name, "points": points, "jitter": 1e-8,
            "kernel": {"type": "se", "output_scale": 1.0, "length_scale": length_scale}}


UT, CUBATURE = {"type": "ut", "kappa": 2.0}, {"type": "cubature"}
# 3 (five methods), 2 and 7 points, one group padded to 7 points;
# gpq-hammersley-7 fails at time index 2 and stops alone, while the
# others run through
UNGM_METHODS = [
    _method("ukf", UT), _method("ckf", CUBATURE),
    _method("ghkf-3", {"type": "gauss-hermite", "order": 3}),
    _method("ghkf-7", {"type": "gauss-hermite", "order": 7}),
    _method("gpq-ut", UT, 3.0),
    _method("gpq-hammersley-3", {"type": "hammersley", "count": 3}, 3.0),
    _method("gpq-hammersley-7", {"type": "hammersley", "count": 7}, 3.0),
    _method("gpq-optimized-3", {"type": "optimized", "count": 3, "seed": 0,
                                "kernel": {"type": "se", "length_scale": 1.0}}, 3.0),
]
# configs/bot.json: groups of 11, 10 and 243 points
BOT_METHODS = [
    _method("ukf", UT), _method("ckf", CUBATURE),
    _method("ghkf-3", {"type": "gauss-hermite", "order": 3}),
    _method("gpq-ut", UT, 10.0), _method("gpq-cubature", CUBATURE, 10.0),
]


def assert_rows_match(rows, single_rows):
    # numbers with the convention of test_ungm_batch_matches_single_calls,
    # names and error cells exactly
    assert [row[0] for row in rows] == [row[0] for row in single_rows]
    for row, single in zip(rows, single_rows):
        assert row[5] == single[5]
        if row[5] == "":
            np.testing.assert_allclose(row[1:5], single[1:5], rtol=0, atol=1e-7)


class TestMethodGroups:
    @pytest.mark.parametrize("study,methods,steps", [
        (run_ungm, UNGM_METHODS, 60), (run_bot, BOT_METHODS, 30)], ids=["ungm", "bot"])
    def test_rows_equal_one_method_studies(self, study, methods, steps):
        config = {"seeds": [0, 1, 2], "steps": steps, "methods": methods}
        rows = study(config).rows
        single_rows = [study({**config, "methods": [method]}).rows[0] for method in methods]
        assert_rows_match(rows, single_rows)
        if study is run_ungm:
            failed = [row[0] for row in rows if row[5]]
            assert failed == ["gpq-hammersley-7"]

    @staticmethod
    def group_calls(monkeypatch, study, methods):
        # the point counts of each run_filter and run_smoother call, and
        # the names of the methods that failed
        calls = {"run_filter": [], "run_smoother": []}

        def counted(name):
            def wrapper(model, rules, *args):
                calls[name].append([rule.points.count for rule in rules])
                return getattr(filtering, name)(model, rules, *args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(experiments, name, counted(name))
        rows = study({"seeds": [0, 1], "steps": 10, "methods": methods}).rows
        assert calls["run_filter"] == calls["run_smoother"]
        return calls["run_filter"], [row[0] for row in rows if row[5]]

    def test_each_group_is_filtered_and_smoothed_once(self, monkeypatch):
        # 4 rules padded to 7 points are 28 <= 2 * 19 sigma points: one
        # group, also with gpq-hammersley-7 failing, and nothing runs again
        methods = [UNGM_METHODS[i] for i in (0, 1, 3, 6)]
        assert self.group_calls(monkeypatch, run_ungm, methods) == (
            [[3, 2, 7, 7]], ["gpq-hammersley-7"])

    def test_rules_padded_beyond_double_keep_one_group_per_point_count(self, monkeypatch):
        # 5 rules padded to 243 points would be 1215 > 2 * 285 sigma points
        assert self.group_calls(monkeypatch, run_bot, BOT_METHODS) == (
            [[11, 11], [10, 10], [243]], [])

    def test_failing_method_does_not_disturb_its_group(self):
        # x_k = x_{k-1}^2 from a prior mean of 0: the UT with kappa = -1/2
        # predicts the variance P (8 m^2 - P) / 2 = -1/2 at time index 1 on
        # every trajectory, while 3-point Gauss-Hermite runs through; the
        # UT's first member in the group is member 2, alone it is member 0
        model = AdditiveStateSpaceModel(
            transition=lambda x, k: x**2,
            measurement=lambda x, k: x,
            process_cov=np.zeros((1, 1)),
            measurement_cov=np.eye(1),
            prior=GaussianState(np.zeros(1), np.eye(1)),
        )
        methods = [_method("ghkf-3", {"type": "gauss-hermite", "order": 3}),
                   _method("ut-negative", {"type": "ut", "kappa": -0.5})]
        config = {"seeds": [0, 1], "steps": 3, "methods": methods}

        def study(config):
            return experiments._filtering_study("squared", config, 0, lambda fields: model,
                                                components=[0])

        rows = study(config).rows
        single_rows = [study({**config, "methods": [method]}).rows[0] for method in methods]
        assert rows == single_rows
        assert rows[0][5] == ""
        assert rows[1][5] == ("filter failed at time index 1: matrix is not PSD "
                              "for batch member 0: smallest eigenvalue -5.000e-01")


class TestBuildRule:
    def test_classical_random_points_get_uniform_weights(self):
        rule = build_rule({"name": "mc", "points": {"type": "random",
                                                    "count": 8, "seed": 3},
                           "kernel": "classical"}, n=2)
        np.testing.assert_allclose(rule.weights, 1 / 8)

    def test_csv_points_round_trip(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("xi1,xi2\n0.5,-1.0\n1.5,2.0\n")
        rule = build_rule({
            "name": "fromfile",
            "points": {"type": "csv", "path": str(path)},
            "kernel": {"type": "se", "output_scale": 1.0, "length_scale": 1.0},
            "jitter": 1e-10,
        }, n=2)
        assert rule.points.count == 2
        assert rule.posterior_variance >= 0.0

    def test_csv_points_column_count_must_match_dimension(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("xi1,xi2,xi3\n0.5,-1.0,0.5\n1.5,2.0,0.5\n")
        with pytest.raises(ConfigError, match="3 columns"):
            build_rule({"name": "fromfile", "points": {"type": "csv", "path": str(path)},
                        "kernel": "classical"}, n=2)

    @pytest.mark.parametrize("spec", [
        {"type": "hammersley", "count": 7},
        {"type": "hammersley", "count": 3.0},
        {"type": "ut", "kappa": 1.0},
    ], ids=["hammersley", "hammersley-count-float", "ut"])
    def test_csv_points_read_back_what_points_writes(self, tmp_path, spec):
        config = write_config(tmp_path, {"experiment": "points", "dimension": 2,
                                         "points": spec})
        path = tmp_path / "pts.csv"
        assert main(["points", "--config", config, "--out", str(path)]) == 0

        def digits(values):  # 12 significant digits, as the CSV holds them
            return [FLOAT_FORMAT % v for v in np.ravel(values)]

        from_file = {"type": "csv", "path": str(path)}
        written = build_rule({"name": "gen", "points": spec, "kernel": "classical"}, n=2)
        read = build_rule({"name": "file", "points": from_file, "kernel": "classical"}, n=2)
        assert digits(read.points.points) == digits(written.points.points)
        assert digits(read.weights) == digits(written.weights)
        # a kernel spec ignores the file's weights and solves for its own
        se = {"kernel": {"type": "se"}, "jitter": 1e-8}
        np.testing.assert_allclose(
            build_rule({"name": "file", "points": from_file, **se}, n=2).weights,
            build_rule({"name": "gen", "points": spec, **se}, n=2).weights, rtol=1e-6)

    def test_csv_weight_column_needs_its_header(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("xi1,xi2,w\n0.5,-1.0,0.5\n1.5,2.0,0.5\n")
        with pytest.raises(ConfigError, match="3 columns"):
            build_rule({"name": "fromfile", "points": {"type": "csv", "path": str(path)},
                        "kernel": "classical"}, n=2)

    def test_boolean_count_rejected(self):
        with pytest.raises(ConfigError, match="count must be an integer >= 1, got True"):
            build_rule({"name": "x", "points": {"type": "hammersley", "count": True},
                        "kernel": "classical"}, n=2)

    def test_config_error_is_not_a_numerical_error(self):
        assert not issubclass(ConfigError, NumericalError)

    def test_weight_solve_failure_is_not_a_config_error(self, tmp_path):
        # a duplicated point makes the SE Gram matrix singular at zero jitter
        path = tmp_path / "pts.csv"
        path.write_text("xi1\n0.5\n0.5\n-1.0\n")
        with pytest.raises(NumericalError, match="raise the jitter"):
            build_rule({"name": "dup", "points": {"type": "csv", "path": str(path)},
                        "kernel": {"type": "se"}}, n=1)

    def test_unknown_point_type(self):
        with pytest.raises(ConfigError, match="unknown point set type"):
            build_rule({"name": "x", "points": {"type": "sobol"},
                        "kernel": "classical"}, n=2)


UKF = {"name": "ukf", "points": {"type": "ut"}, "kernel": "classical"}


def duplicated_point_method(tmp_path, n):
    """An SE method on a CSV holding the point 0.5 twice: its Gram matrix is
    flat and singular at zero jitter, so its build fails numerically."""
    path = tmp_path / "dup.csv"
    row = ",".join(["0.5"] * n)
    path.write_text(",".join(f"xi{d + 1}" for d in range(n)) + f"\n{row}\n{row}\n")
    return {"name": "dup", **csv_points(str(path)), "kernel": {"type": "se"}}


@pytest.mark.parametrize("study,n,config", [
    (run_moments, 1, {"dimensions": [1], "exponents": [1, 2]}),
    (run_ungm, 1, {"seeds": [0, 1], "steps": 10}),
    (run_bot, 5, {"seeds": [0], "steps": 10}),
], ids=["moments", "ungm", "bot"])
def test_numerical_build_failure_is_an_error_cell(tmp_path, study, n, config):
    healthy = study({**config, "methods": [UKF]})
    report = study({**config, "methods": [UKF, duplicated_point_method(tmp_path, n)]})
    failed = [row for row in report.rows if row[0] == "dup"]
    assert len(failed) == len(healthy.rows)
    for row in failed:
        assert row[-1].startswith("deflated weight system not positive definite")
        assert row[-1].endswith("raise the jitter to regularize")
        assert row[-4:-1] == ["", "", ""]
    assert [row for row in report.rows if row[0] != "dup"] == healthy.rows


def next_to_ukf(method):
    """A study's methods: a good one, then ``method`` named 'bad'."""
    return {"methods": [UKF, {"name": "bad", **method}]}


def csv_points(path):
    return {"points": {"type": "csv", "path": path}}


def _numerics(*args, **kwargs):
    """Stands in for a numerical step a config error must come before."""
    raise AssertionError("numerics ran before the config was checked")


class TestCliCommands:
    def test_points_command_emits_weights_column(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "experiment": "points",
            "dimension": 2,
            "points": {"type": "ut", "kappa": 1.0},
        })
        assert main(["points", "--config", config]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "xi1,xi2,weight"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[2]) == pytest.approx(1 / 3)

    def test_points_command_gives_unweighted_sets_uniform_weights(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "experiment": "points",
            "dimension": 2,
            "points": {"type": "hammersley", "count": 8},
        })
        assert main(["points", "--config", config]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "xi1,xi2,weight"
        assert [line.split(",")[2] for line in lines[1:]] == ["0.125"] * 8

    def test_points_command_json_holds_the_csv_values(self, tmp_path, capsys):
        spec = {"type": "hammersley", "count": 5}
        config = write_config(tmp_path, {"experiment": "points", "dimension": 2,
                                         "points": spec})
        assert main(["points", "--config", config, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        rule = build_rule({"name": "h", "points": spec}, n=2)
        assert payload == {"points": rule.points.points.tolist(),
                           "weights": rule.weights.tolist()}
        assert main(["points", "--config", config]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert rows == [[FLOAT_FORMAT % v for v in [*point, weight]]
                        for point, weight in zip(payload["points"], payload["weights"])]

    def test_weights_command_recovers_ut_weights(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "experiment": "weights",
            "dimension": 2,
            "points": {"type": "ut", "kappa": 1.0},
            "kernel": {"type": "ut-hermite", "order": 3},
            "jitter": 0.0,
        })
        assert main(["weights", "--config", config, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(payload["weights"],
                                   [1 / 3, 1 / 6, 1 / 6, 1 / 6, 1 / 6], atol=1e-8)
        assert payload["posterior_variance"] <= 1e-8

    def test_weights_command_csv_carries_variance(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "experiment": "weights",
            "dimension": 1,
            "points": {"type": "gauss-hermite", "order": 3},
            "kernel": {"type": "gh-hermite", "order": 3},
        })
        assert main(["weights", "--config", config]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# posterior_variance = ")
        assert out.count("\n") == 5  # comment + header + 3 weights

    def test_transform_command_linear_prior(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "experiment": "transform",
            "dimension": 2,
            "method": {"name": "ut", "points": {"type": "ut", "kappa": 1.0},
                       "kernel": "classical"},
            "function": "identity",
            "mean": [1.0, -2.0],
            "cov": [[2.0, 0.0], [0.0, 1.0]],
            "noise_cov": [[0.5, 0.0], [0.0, 0.5]],
        })
        assert main(["transform", "--config", config, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(payload["mean"], [1.0, -2.0], atol=1e-12)
        np.testing.assert_allclose(payload["cov"],
                                   [[2.5, 0.0], [0.0, 1.5]], atol=1e-10)

    def test_transform_command_scalar_noise_is_a_multiple_of_the_identity(
            self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "experiment": "transform",
            "dimension": 2,
            "method": {"name": "cubature", "points": {"type": "cubature"},
                       "kernel": "classical"},
            "function": "identity",
            "noise_cov": 0.1,
        })
        assert main(["transform", "--config", config, "--format", "json"]) == 0
        cov = json.loads(capsys.readouterr().out)["cov"]
        assert cov[0][1] == 0.0 and cov[1][0] == 0.0
        np.testing.assert_allclose(np.diag(cov), [1.1, 1.1], rtol=0, atol=1e-15)

    def test_transform_command_defaults_for_a_scalar_function(self, tmp_path, capsys):
        # y = 1 + |x|^2 under N(0, I) in 2-D: mean 3, variance 4, both exact
        # for the GH-3 rule; with mean, cov and noise_cov left to default
        config = write_config(tmp_path, {
            "experiment": "transform",
            "dimension": 2,
            "method": {"name": "gh3", "points": {"type": "gauss-hermite", "order": 3},
                       "kernel": "classical"},
            "function": {"name": "radial-power", "exponent": 2},
        })
        assert main(["transform", "--config", config, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(payload["mean"], [3.0], rtol=0, atol=1e-13)
        np.testing.assert_allclose(payload["cov"], [[4.0]], rtol=0, atol=1e-13)
        np.testing.assert_allclose(payload["cross_cov"], [[0.0], [0.0]], rtol=0, atol=1e-13)

    def test_ungm_study_writes_csv_file(self, tmp_path):
        out_file = tmp_path / "report.csv"
        assert main(["ungm", "--config", str(CONFIG_DIR / "ungm_smoke.json"),
                     "--out", str(out_file)]) == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == ("method,filter_rmse_mean,filter_rmse_std,"
                            "smoother_rmse_mean,smoother_rmse_std,error")
        assert len(lines) == 3

    def test_seed_offset_changes_report(self, tmp_path, capsys):
        config = str(CONFIG_DIR / "ungm_smoke.json")
        main(["ungm", "--config", config])
        base = capsys.readouterr().out
        main(["ungm", "--config", config, "--seed-offset", "100"])
        shifted = capsys.readouterr().out
        assert base != shifted

    def test_missing_config_is_exit_1(self, capsys):
        assert main(["ungm", "--config", "/nonexistent.json"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_invalid_json_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["ungm", "--config", str(bad)]) == 1

    def test_usage_error_is_exit_1_and_help_exit_0(self, capsys):
        # argparse exits 2 on a usage error, the code of a numerical failure
        assert main(["points"]) == 1
        assert "the following arguments are required: --config" in capsys.readouterr().err
        assert main(["points", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: gpq points")

    def test_missing_out_directory_is_exit_1_before_the_study(self, tmp_path, capsys,
                                                              monkeypatch):
        def no_study(*args):
            raise AssertionError("the study ran")

        monkeypatch.setitem(cli._SEEDED, "ungm", no_study)
        out = tmp_path / "missing" / "report.csv"
        assert main(["ungm", "--config", str(CONFIG_DIR / "ungm_smoke.json"),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"usage error: --out {out}: no such directory\n"

    def test_failed_write_is_one_line_and_exit_1(self, tmp_path, capsys):
        # the directory exists and the write fails anyway: --out is a directory
        assert main(["points", "--config", str(CONFIG_DIR / "points_example.json"),
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: --out {tmp_path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command,name", [
        ("points", "points_example"), ("weights", "weights_example"),
        ("transform", "transform_example"), ("moments", "moments")])
    def test_seed_offset_is_a_usage_error_outside_the_seeded_studies(self, capsys,
                                                                     command, name):
        # only ungm and bot draw trajectories; the flag was read by no other
        assert main([command, "--config", str(CONFIG_DIR / f"{name}.json"),
                     "--seed-offset", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --seed-offset 3" in captured.err

    WEIGHTS = {"experiment": "weights", "dimension": 2,
               "points": {"type": "ut", "kappa": 1.0},
               "kernel": {"type": "se", "output_scale": 1.0, "length_scale": 1.0}}
    UNGM = {"experiment": "ungm", "seeds": [0], "steps": 5, "methods": [UKF]}
    POINTS = {"experiment": "points", "dimension": 1,
              "points": {"type": "gauss-hermite", "order": 3}}
    TRANSFORM = {"experiment": "transform", "dimension": 2,
                 "method": {"name": "ut", "points": {"type": "ut"}, "kernel": "classical"},
                 "function": "identity"}
    BOT = {"experiment": "bot", "seeds": [0], "steps": 5, "model": {}, "methods": [UKF]}
    MOMENTS = {"experiment": "moments", "dimensions": [1], "exponents": [1],
               "methods": [UKF]}

    @pytest.mark.parametrize("base,change,offset", [
        (WEIGHTS, {"dimension": "two"}, "0"),
        (WEIGHTS, {"dimension": 2.7}, "0"),
        (WEIGHTS, {"dimension": True}, "0"),
        (WEIGHTS, {"points": {"type": "ut", "kappa": "big"}}, "0"),
        (WEIGHTS, {"kernel": {"type": "se", "length_scale": -1}}, "0"),
        (WEIGHTS, {"kernel": {"type": "se", "length_scale": "long"}}, "0"),
        (WEIGHTS, {"kernel": {"type": "ut-hermite", "order": 4}}, "0"),
        (WEIGHTS, {"jitter": "none"}, "0"),
        (UNGM, {"steps": "ten"}, "0"),
        (UNGM, {"steps": 0}, "0"),
        (UNGM, {"seeds": ["a"]}, "0"),
        (UNGM, {"seeds": ["a"]}, "3"),
        (UNGM, {"seeds": [1.5]}, "0"),
        (UNGM, {"seeds": [-1]}, "0"),
        (POINTS, {"points": {"type": "gauss-hermite", "order": 0}}, "0"),
        (POINTS, {"points": {"type": "gauss-hermite", "order": 51}}, "0"),
        (POINTS, {"dimension": 5, "points": {"type": "gauss-hermite", "order": 20}}, "0"),
        (POINTS, {"points": {"type": "optimized", "count": 3, "restarts": 0}}, "0"),
        (TRANSFORM, {"mean": "zero"}, "0"),
        (TRANSFORM, {"cov": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]}, "0"),
        (TRANSFORM, {"cov": [[1.0, 0.0], [0.0]]}, "0"),
        (TRANSFORM, {"noise_cov": [[True, False], [False, True]]}, "0"),
        (TRANSFORM, {"function": {"name": "radial-power"}, "noise_cov": np.eye(2).tolist()},
         "0"),
        # a method spec that cannot be resolved is exit 1 in a study too
        (UNGM, next_to_ukf({"points": {"type": "ut"}, "kernel": {"type": "sqexp"}}), "0"),
        (UNGM, next_to_ukf({"points": {"type": "hamersley", "count": 3}}), "0"),
        (UNGM, next_to_ukf({"points": {"type": "csv", "path": "missing.csv"}}), "0"),
        (MOMENTS, next_to_ukf({"points": {"type": "symmetric5"}}), "0"),
        # values a generator rejects
        (POINTS, {"dimension": 2, "points": {"type": "ut", "kappa": -5}}, "0"),
        (POINTS, {"points": {"type": "symmetric5"}}, "0"),
        (POINTS, csv_points("abc.csv"), "0"),
        (POINTS, csv_points("missing.csv"), "0"),
        (POINTS, csv_points(5), "0"),
        (POINTS, {"points": {"type": "optimized", "count": 2001}}, "0"),
        # the bearings-only model
        (BOT, {"model": {"sensors": "abc"}}, "0"),
        (BOT, {"model": {"prior_cov": [[1.0]]}}, "0"),
        (BOT, {"model": {"prior_mean": [[0.0, 10.0], [0.0, -10.0, 0.05]]}}, "0"),
        (BOT, {"model": {"q1": -1}}, "0"),
        (BOT, {"model": {"prior_cov": (np.eye(5) + np.eye(5, k=1)).tolist()}}, "0"),
        # covariances that are symmetric but indefinite
        (BOT, {"model": {"prior_cov": np.diag([-1.0, 1, 1, 1, 1]).tolist()}}, "0"),
        (TRANSFORM, {"dimension": 1, "cov": [[-1.0]]}, "0"),
        (TRANSFORM, {"dimension": 1, "noise_cov": -5.0}, "0"),
        # lists and their items
        (UNGM, {"methods": [1]}, "0"),
        (MOMENTS, {"dimensions": 2}, "0"),
        (MOMENTS, {"exponents": 1}, "0"),
        (MOMENTS, {"exponents": [1, 0]}, "0"),
        (WEIGHTS, {"jitter": -1e-8}, "0"),
        (POINTS, {"points": {"type": "optimized", "count": 3, "jitter": -1.0}}, "0"),
        (TRANSFORM, {"function": 5}, "0"),
        (TRANSFORM, {"function": {"name": ["identity"]}}, "0"),
        (POINTS, {"points": {"type": "hammersley", "count": 0}}, "0"),
        (POINTS, {"points": {"type": "hammersley", "count": 2.5}}, "0"),
        # a key no table holds, at every level, and a config of another command
        (UNGM, {"step": 10}, "0"),
        (UNGM, next_to_ukf({"points": {"type": "ut"}, "kernal": {"type": "se"}}), "0"),
        (POINTS, {"points": {"type": "ut", "kapa": 1.0}}, "0"),
        (WEIGHTS, {"kernel": {"type": "se", "lengthscale": 1.0}}, "0"),
        (BOT, {"model": {"steps": 10}}, "0"),
        (TRANSFORM, {"function": {"name": "radial-power", "exp": 2}}, "0"),
        (POINTS, {"kernel": {"type": "se"}}, "0"),
        (MOMENTS, {"seeds": [0]}, "0"),
        (UNGM, {"experiment": "bot"}, "0"),
        (MOMENTS, {"experiment": ["moments"]}, "0"),
        (POINTS, {"points": {"count": 3}}, "0"),
        (WEIGHTS, {"kernel": "classical"}, "0"),
        (POINTS, {"points": {"type": "optimized", "count": 3, "kernel": "classical"}}, "0"),
    ], ids=["dimension-string", "dimension-fraction", "dimension-bool", "kappa-string",
            "length-scale-negative", "length-scale-string", "ut-order-even",
            "jitter-string", "steps-string", "steps-zero", "seed-string",
            "seed-string-offset", "seed-fraction", "seed-negative", "gh-order-zero",
            "gh-order-above-max", "gh-grid-above-cap", "restarts-zero", "mean-string", "cov-3x2", "cov-ragged",
            "noise-cov-bool", "noise-cov-not-output-shape",
            "study-kernel-type-unknown", "study-point-type-unknown", "study-csv-missing",
            "study-generator-rejects", "ut-kappa-below-minus-n", "symmetric5-in-1d",
            "csv-not-numbers", "csv-missing", "csv-path-number", "optimizer-above-cap",
            "bot-sensors-string", "bot-prior-cov-shape", "bot-prior-mean-ragged",
            "bot-q1-negative", "bot-prior-cov-asymmetric", "bot-prior-cov-indefinite",
            "cov-indefinite", "noise-cov-negative", "method-not-object",
            "dimensions-not-list", "exponents-not-list", "exponent-zero",
            "jitter-negative", "optimizer-jitter-negative", "function-number",
            "function-name-list", "count-zero", "count-fraction", "steps-misspelt",
            "kernel-misspelt", "point-key-unknown", "kernel-key-unknown",
            "bot-model-key-unknown", "function-key-unknown", "points-kernel-unknown",
            "moments-seeds-unknown", "experiment-other", "experiment-list",
            "point-type-missing", "weights-kernel-classical", "optimizer-kernel-classical"])
    def test_bad_config_number_is_exit_1(self, tmp_path, capsys, monkeypatch,
                                         base, change, offset):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "abc.csv").write_text("xi1\nabc\n")
        config = write_config(tmp_path, {**base, **change})
        out = tmp_path / "out.csv"
        # only the studies that draw trajectories take a seed offset
        seeded = ["--seed-offset", offset] if base["experiment"] in ("ungm", "bot") else []
        assert main([base["experiment"], "--config", config, "--out", str(out),
                     *seeded]) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    @pytest.mark.parametrize("text", ["xi1\n", "xi1\n\n# no rows\n", ""],
                             ids=["header-only", "blank-and-comment", "empty"])
    def test_csv_file_without_point_rows_is_exit_1(self, tmp_path, capsys, monkeypatch,
                                                   text):
        # np.loadtxt would warn "input contained no data" before the error
        monkeypatch.chdir(tmp_path)
        (tmp_path / "rows.csv").write_text(text)
        config = write_config(tmp_path, {**self.POINTS, **csv_points("rows.csv")})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["points", "--config", config]) == 1
        assert capsys.readouterr().err == (
            "config error: config: rows.csv has no point rows under its header line\n")

    @pytest.mark.parametrize("key,value,message", [
        ("restarts", 0, "restarts must be an integer >= 1, got 0"),
        ("jitter", -1.0, "jitter must be a finite number >= 0.0, got -1.0"),
    ], ids=["restarts-zero", "jitter-negative"])
    def test_optimizer_setting_error_names_its_key(self, tmp_path, capsys, key, value,
                                                   message):
        config = write_config(tmp_path, {**self.POINTS, "points": {
            "type": "optimized", "count": 3, key: value}})
        assert main(["points", "--config", config]) == 1
        assert capsys.readouterr().err == f"config error: config: points: {message}\n"

    def test_unknown_key_names_it_and_the_keys_allowed(self, tmp_path, capsys):
        config = write_config(tmp_path, {**self.UNGM, "step": 10})
        assert main(["ungm", "--config", config]) == 1
        assert capsys.readouterr().err == (
            "config error: config: unknown key 'step'; "
            "allowed keys: experiment, methods, seeds, steps\n")

    @pytest.mark.parametrize("name", sorted(path.stem for path in CONFIG_DIR.glob("*.json")))
    def test_config_of_another_command_is_exit_1(self, tmp_path, capsys, monkeypatch, name):
        # configs/bot_smoke.json through `gpq ungm` ran the growth model
        # before 'experiment' and 'model' were read
        monkeypatch.setattr(experiments, "simulate_many", _numerics)
        config = str(CONFIG_DIR / f"{name}.json")
        own = json.loads(Path(config).read_text())["experiment"]
        for command in {"points", "weights", "transform", "moments", "ungm", "bot"} - {own}:
            assert main([command, "--config", config]) == 1, command
            assert capsys.readouterr().err.startswith("config error: config: ")

    @pytest.mark.parametrize("base,change", [
        (BOT, {"model": {"prior_cov": np.diag([0.0, 1, 1, 1, 1]).tolist()}}),
        (TRANSFORM, {"cov": [[1.0, 0.0], [0.0, 0.0]]}),
    ], ids=["bot-prior-cov-singular", "cov-singular"])
    def test_singular_covariance_is_accepted(self, tmp_path, capsys, base, change):
        config = write_config(tmp_path, {**base, **change})
        assert main([base["experiment"], "--config", config]) == 0
        assert capsys.readouterr().err == ""

    def test_duplicate_method_names_are_exit_1(self, tmp_path, capsys):
        config = write_config(tmp_path, {**self.UNGM,
                                         "methods": [UKF, {**UKF, "points": CUBATURE}]})
        assert main(["ungm", "--config", config]) == 1
        assert capsys.readouterr().err == (
            "config error: config: methods: method names must be unique\n")

    def test_config_error_names_the_method(self, tmp_path, capsys):
        config = write_config(tmp_path, {**self.UNGM, **next_to_ukf(
            {"points": {"type": "ut"}, "kernel": {"type": "se", "length_scale": -1}})})
        assert main(["ungm", "--config", config]) == 1
        assert capsys.readouterr().err == (
            "config error: method 'bad': output_scale and length_scale must be positive\n")

    def test_study_resolves_every_method_before_any_numerics(self, tmp_path, capsys,
                                                            monkeypatch):
        # configs/ungm.json with its last method misspelt: the Hammersley and
        # optimized sets before it are never generated and no trajectory is
        # simulated
        config = json.loads((CONFIG_DIR / "ungm.json").read_text())
        config["methods"][-1]["points"]["type"] = "optimised"
        for name in ("hammersley_points", "optimize_points", "simulate_many"):
            monkeypatch.setattr(experiments, name, _numerics)
        assert main(["ungm", "--config", write_config(tmp_path, config)]) == 1
        assert "unknown point set type 'optimised'" in capsys.readouterr().err

    def test_moments_resolves_every_dimension_before_any_numerics(self, tmp_path, capsys,
                                                                   monkeypatch):
        # symmetric5 resolves in 2-D and not in 1-D, the second dimension
        monkeypatch.setattr(experiments, "gpq_weights", _numerics)
        monkeypatch.setattr(experiments, "moments_ground_truth", _numerics)
        config = write_config(tmp_path, {
            **self.MOMENTS, "dimensions": [2, 1],
            "methods": [{"name": "gpq", "points": {"type": "symmetric5"},
                         "kernel": {"type": "se"}}]})
        assert main(["moments", "--config", config]) == 1
        assert capsys.readouterr().err.startswith("config error: method 'gpq'")

    @pytest.mark.parametrize("dimension,order", [(1, 100), (2, 50)])
    def test_hermite_factorial_overflow_is_exit_1(self, tmp_path, capsys, dimension, order):
        config = write_config(tmp_path, {
            **self.WEIGHTS, "dimension": dimension,
            "kernel": {"type": "gh-hermite", "order": order}})
        assert main(["weights", "--config", config]) == 1
        assert "beyond the float range" in capsys.readouterr().err

    def test_all_methods_failing_is_exit_2(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "experiment": "ungm",
            "seeds": [0],
            "steps": 5,
            "methods": [BROKEN_METHOD],
        })
        out = tmp_path / "report.csv"
        assert main(["ungm", "--config", config, "--out", str(out)]) == 2
        assert "every method failed; see the error column" in capsys.readouterr().err
        assert out.read_text().splitlines()[1] == (
            "broken,,,,,filter failed at time index 2: matrix is not PSD: "
            "smallest eigenvalue -4.120e+01")

    def test_optimizer_failure_is_exit_2(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "dimension": 1,
            "points": {"type": "optimized", "count": 8, "restarts": 2,
                       "kernel": {"type": "ut-hermite", "order": 3}},
        })
        assert main(["points", "--config", config]) == 2
        assert "numerical failure: all 2 optimizer restarts" in capsys.readouterr().err

    def test_error_cell_holding_a_comma_stays_one_cell(self, tmp_path):
        # "...; numerically singular, raise the jitter to regularize"
        config = write_config(tmp_path, {"experiment": "moments", "dimensions": [2],
                                         "exponents": [1],
                                         "methods": [duplicated_point_method(tmp_path, 2)]})
        out = tmp_path / "report.csv"
        assert main(["moments", "--config", config, "--out", str(out)]) == 2
        header, row = csv.reader(out.read_text().splitlines())
        assert len(row) == len(header) == 7
        assert "," in row[-1] and row[-1].endswith("raise the jitter to regularize")

    def test_config_too_large_for_memory_is_one_line_and_exit_1(self, tmp_path):
        # the UT set in 10^6 dimensions needs a (10^6, 10^6) array, 7.28 TiB,
        # which the address-space limit refuses at once; never run without it
        resource = pytest.importorskip("resource")
        config = write_config(tmp_path, {"experiment": "points", "dimension": 10**6,
                                         "points": {"type": "ut", "kappa": 2.0}})

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (4 * 2**30, 4 * 2**30))

        src = Path(gpquad.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "gpquad.cli", "points", "--config", config],
            capture_output=True, text=True, preexec_fn=limit,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith(
            "config error: not enough memory for this config: Unable to allocate")

    def test_console_module_entry_point(self, tmp_path):
        config = write_config(tmp_path, {
            "experiment": "points",
            "dimension": 1,
            "points": {"type": "cubature"},
        })
        proc = subprocess.run(
            [sys.executable, "-m", "gpquad.cli", "points", "--config", config],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "xi1,weight"

    def test_moments_command_writes_no_cache(self, tmp_path):
        src = Path(gpquad.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "gpquad.cli", "moments",
             "--config", str(CONFIG_DIR / "moments.json")],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.splitlines()) == 1 + 36
        assert not (tmp_path / ".gpq_cache").exists()

    def test_import_loads_no_scipy(self):
        # scipy is imported only inside hammersley_points and
        # moments_ground_truth (scipy.special)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, gpquad, gpquad.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_no_scipy_optimize_after_every_deferred_import(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "from gpquad import SquaredExponentialKernel, hammersley_points, optimize_points\n"
             "from gpquad.experiments import moments_ground_truth\n"
             "optimize_points(SquaredExponentialKernel(1.0, 1.0), 1, 3, 0)\n"
             "hammersley_points(2, 5)\n"
             "moments_ground_truth(2, 1, 10, 0)\n"
             "print('scipy.special' in sys.modules, "
             "sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True []"

    def test_shipped_configs_parse(self):
        for name in ("ungm.json", "moments.json", "bot.json", "ungm_smoke.json",
                     "bot_smoke.json"):
            payload = json.loads((CONFIG_DIR / name).read_text())
            assert payload["methods"]


# a config with one value replaced by each of these, or deleted
DELETE = object()
MUTATIONS = [DELETE, None, "x", True, -1, 0, 0.5, [], {}, float("nan"), float("inf")]


def key_paths(node, path=()):
    """The path of every object key and list item in a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from key_paths(child, path + (key,))


def mutated(document, path, value):
    """A copy of ``document`` with the item at ``path`` set to ``value``,
    or deleted for DELETE."""
    document = json.loads(json.dumps(document))
    *parents, last = path
    node = document
    for key in parents:
        node = node[key]
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    return document


def test_every_mutated_shipped_config_exits_0_1_or_2(tmp_path, capsys, monkeypatch):
    # the smoke-scale configs, every value replaced or deleted in turn: a
    # bad value is a config error (1) or a numerical failure (2), never a
    # traceback; configs/ungm.json and bot.json are the smoke ones at scale
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    out = tmp_path / "out"
    names = sorted({path.stem for path in CONFIG_DIR.glob("*.json")} - {"ungm", "bot"})
    assert len(names) == 9
    cases = 0
    for name in names:
        document = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        for path in key_paths(document):
            for value in MUTATIONS:
                config.write_text(json.dumps(mutated(document, path, value)))
                case = f"{name}.json {list(path)} = {value!r}"
                try:
                    code = main([document["experiment"], "--config", str(config),
                                 "--out", str(out)])
                except Exception as exc:  # noqa: BLE001
                    pytest.fail(f"{case}: {exc!r} escaped main")
                assert code in (0, 1, 2), case
                capsys.readouterr()
                cases += 1
    assert cases == 11 * 138


class TestGoldenOutput:
    """CSV output of every shipped config, byte for byte."""

    @pytest.mark.parametrize("name", ["points_example", "weights_example",
                                      "weights_gh_hermite", "weights_ut5_hermite",
                                      "weights_hammersley_se",
                                      "transform_example", "ungm_smoke", "bot_smoke",
                                      "moments", "bot", "ungm"])
    def test_matches_golden_file(self, name, tmp_path):
        config = CONFIG_DIR / f"{name}.json"
        command = json.loads(config.read_text())["experiment"]
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / f"{name}.csv").read_bytes()
