"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the pass/fail lines
as they complete.  Every tolerance is pinned here; the heavy studies
(criteria 6-8) run at their stated reduced scales and stay within their
stated runtime budgets.
"""

import json
import math
import time
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from gpquad.filtering import gp_transform, run_filter, run_smoother
from gpquad.hermite import (
    enumerate_indices,
    gh_roots_weights,
    hermite_design_matrix,
    hermite_multi,
)
from gpquad.kernels import SquaredExponentialKernel, make_gh_kernel, make_ut_kernel
from gpquad.points import (
    cubature_points,
    gauss_hermite_points,
    hammersley_points,
    optimize_points,
    random_points,
    symmetric5_points,
    ut_points,
)
from gpquad.quadrature import UnitPointSet, gpq_variance, gpq_weights
from gpquad.experiments import run_bot, run_moments, run_ungm

from test_filtering import (
    kalman_filter_oracle,
    random_linear_model,
    rts_smoother_oracle,
    simulate_linear,
)
from test_points import gaussian_monomial_moment, rule_monomial

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class Criterion:
    """Times a criterion and prints its pass/fail line."""

    def __init__(self, number, description, budget_s):
        self.number = number
        self.description = description
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number}: {status} ({elapsed:.2f}s) "
              f"- {self.description}")
        if exc_type is None and elapsed >= self.budget_s:
            raise AssertionError(
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.2f}s >= {self.budget_s}s")
        return False


def test_criterion_1_ut_weight_recovery():
    with Criterion(1, "UT weight recovery from the degree-3 Hermite kernel", 1.0):
        classical = ut_points(2, 1.0)
        kernel = make_ut_kernel(2, 3)
        rule = gpq_weights(kernel, classical.points, jitter=0.0)
        np.testing.assert_allclose(
            rule.weights, [1 / 3, 1 / 6, 1 / 6, 1 / 6, 1 / 6], atol=1e-8)
        gram = kernel.gram(classical.points.points)
        assert gram[0, 0] == pytest.approx(1.5, abs=1e-10)
        for j in range(1, 5):
            assert gram[0, j] == pytest.approx(0.75, abs=1e-10)  # 1 - kappa/4
        # every entry against an independent term-by-term Hermite-sum oracle
        oracle = np.empty((5, 5))
        pts = classical.points.points
        for i in range(5):
            for j in range(5):
                oracle[i, j] = sum(
                    hermite_multi(ix, pts[i]) * hermite_multi(ix, pts[j])
                    / math.prod(map(math.factorial, ix)) ** 2
                    for ix in kernel.index_set)
        np.testing.assert_allclose(gram, oracle, atol=1e-10)
        assert rule.posterior_variance <= 1e-8


def test_criterion_2_gh_weight_recovery():
    with Criterion(2, "Gauss-Hermite weight recovery from matched kernels", 5.0):
        for n, order in ((1, 3), (2, 2), (2, 3)):
            classical = gauss_hermite_points(n, order)
            rule = gpq_weights(make_gh_kernel(n, order), classical.points,
                               jitter=0.0)
            np.testing.assert_allclose(rule.weights, classical.weights,
                                       atol=1e-8)
            assert rule.posterior_variance <= 1e-8


def test_criterion_3_flat_limit_of_se_weights():
    with Criterion(3, "SE-kernel weights converge to UT weights as the "
                      "length scale grows", 1.0):
        ladder = (10.0, 1e2, 1e3, 1e4)
        # kappa = 1: UT weights are exactly the stated (1/2, 1/4, 1/4)
        pts = ut_points(1, 1.0).points
        target = np.array([0.5, 0.25, 0.25])
        errors = []
        for ell in ladder:
            rule = gpq_weights(SquaredExponentialKernel(1.0, ell), pts, 0.0)
            errors.append(np.abs(rule.weights - target).max())
        assert all(errors[i] > errors[i + 1] for i in range(3)), errors
        assert errors[-1] < 1e-3
        # kappa = 2 converges to its own UT weights (2/3, 1/6, 1/6);
        # its true errors pass below the float64 noise floor (~1.3e-8,
        # measured) already at ell = 100, so monotonicity is asserted
        # down to that floor only
        pts = ut_points(1, 2.0).points
        target = np.array([2 / 3, 1 / 6, 1 / 6])
        errors = []
        for ell in ladder:
            rule = gpq_weights(SquaredExponentialKernel(1.0, ell), pts, 0.0)
            errors.append(np.abs(rule.weights - target).max())
        assert all(errors[i] > errors[i + 1] - 3e-8 for i in range(3)), errors
        assert errors[-1] < 1e-3


def test_criterion_4_polynomial_exactness_suites():
    with Criterion(4, "classical rules hit their polynomial exactness "
                      "classes", 10.0):
        for n in (1, 2, 3):
            for rule, tol in ((ut_points(n, 2.0), 1e-12),
                              (cubature_points(n), 1e-12)):
                for ix in enumerate_indices(n, total_degree=3):
                    got = rule_monomial(rule, ix)
                    expected = gaussian_monomial_moment(ix)
                    assert abs(got - expected) <= tol
        for n in (2, 3):
            rule = symmetric5_points(n)
            for ix in enumerate_indices(n, total_degree=5):
                got = rule_monomial(rule, ix)
                expected = gaussian_monomial_moment(ix)
                assert abs(got - expected) <= 1e-10
        for n, order in ((1, 4), (2, 4), (3, 4)):
            rule = gauss_hermite_points(n, order)
            for ix in enumerate_indices(n, per_dim_degree=2 * order - 1):
                got = rule_monomial(rule, ix)
                expected = gaussian_monomial_moment(ix)
                assert abs(got - expected) <= 1e-9


def test_criterion_5_linear_model_oracle_equivalence():
    with Criterion(5, "filters and smoothers match the closed-form "
                      "Kalman/RTS oracle on a linear model", 10.0):
        model, a, h, q, r = random_linear_model(seed=42)
        ys = simulate_linear(a, h, q, r, model.prior, steps=50, seed=7)
        oracle = kalman_filter_oracle(a, h, q, r, model.prior.mean,
                                      model.prior.cov, ys)
        sm_means, sm_covs = rts_smoother_oracle(a, q, oracle)
        rules = {
            "ut": ut_points(2, 1.0),
            "cubature": cubature_points(2),
            "gh3": gauss_hermite_points(2, 3),
            "gpq-se": gpq_weights(SquaredExponentialKernel(1.0, 1e3),
                                  ut_points(2, 2.0).points, jitter=0.0),
        }
        for name, rule in rules.items():
            out = run_filter(model, rule, ys)
            means, covs = run_smoother(model, rule, out)
            for k, (pm, pp, fm, fp) in enumerate(oracle):
                assert np.abs(out.filtered_means[k] - fm).max() < 1e-7, name
                assert np.abs(out.filtered_covs[k] - fp).max() < 1e-7, name
            assert np.abs(means - sm_means).max() < 1e-7, name
            assert np.abs(covs - sm_covs).max() < 1e-7, name


def test_criterion_6_moments_study():
    with Criterion(6, "GPQ-SE beats classical cubature on the radial "
                      "moment integrals in >= 8 of 12 cells", 300.0):
        config = json.loads((CONFIG_DIR / "moments.json").read_text())
        config["cache_dir"] = str(Path(".gpq_cache"))
        report = run_moments(config)
        cols = report.columns
        kl = {}
        for row in report.rows:
            cell = (row[cols.index("dimension")], row[cols.index("exponent")])
            value = (row[cols.index("kl")] if row[cols.index("error")] == ""
                     else np.inf)
            kl[(row[0], *cell)] = value
        wins = sum(
            kl[("gpq-cubature", n, p)] <= kl[("cubature", n, p)]
            for n, p in product((2, 5, 10), (1, -2, -3, -5)))
        assert wins >= 8, f"GPQ won only {wins} of 12 cells"


def test_criterion_7_ungm_study():
    with Criterion(7, "UNGM: smoothers beat filters, 10-point GPQ beats "
                      "the UKF, everything finite", 600.0):
        config = {
            "experiment": "ungm",
            "seeds": list(range(20)),
            "steps": 500,
            "methods": [
                {"name": "ukf", "points": {"type": "ut", "kappa": 2.0},
                 "kernel": "classical"},
                {"name": "gpq-optimized-10",
                 "points": {"type": "optimized", "count": 10, "seed": 0,
                            "kernel": {"type": "se", "output_scale": 1.0,
                                       "length_scale": 1.0}},
                 "kernel": {"type": "se", "output_scale": 1.0,
                            "length_scale": 3.0},
                 "jitter": 1e-8},
            ],
        }
        report = run_ungm(config)
        cols = report.columns
        rows = {row[0]: row for row in report.rows}
        for name, row in rows.items():
            assert row[cols.index("error")] == "", f"{name}: {row[-1]}"
            for key in ("filter_rmse_mean", "filter_rmse_std",
                        "smoother_rmse_mean", "smoother_rmse_std"):
                assert np.isfinite(row[cols.index(key)]), name
        for name, row in rows.items():
            assert (row[cols.index("smoother_rmse_mean")]
                    <= row[cols.index("filter_rmse_mean")]), name
        assert (rows["gpq-optimized-10"][cols.index("filter_rmse_mean")]
                <= rows["ukf"][cols.index("filter_rmse_mean")])


def test_criterion_8_bot_study():
    with Criterion(8, "bearings-only tracking: all sigma-point methods "
                      "within a factor-2 band", 600.0):
        config = json.loads((CONFIG_DIR / "bot.json").read_text())
        report = run_bot(config)
        cols = report.columns
        errors = {r[0]: r[cols.index("error")] for r in report.rows}
        assert all(e == "" for e in errors.values()), errors
        rmses = {r[0]: r[cols.index("filter_rmse_mean")] for r in report.rows}
        best = min(rmses.values())
        for name, rmse in rmses.items():
            assert rmse <= 2.0 * best, (name, rmse, best)


def test_criterion_9_minimum_variance_optimizer():
    with Criterion(9, "optimized point sets beat 50 random sets and the "
                      "Hammersley set of equal size", 120.0):
        kernel = SquaredExponentialKernel(1.0, 1.0)
        for count in (5, 10):
            optimized = optimize_points(kernel, 2, count, seed=0)
            opt_var = gpq_variance(kernel, optimized, 0.0)
            best_random = min(
                gpq_variance(kernel, random_points(2, count, seed=s), 0.0)
                for s in range(50))
            ham_var = gpq_variance(kernel, hammersley_points(2, count), 0.0)
            assert opt_var < best_random, (count, opt_var, best_random)
            assert opt_var < ham_var, (count, opt_var, ham_var)


def test_criterion_10_invariant_suites():
    with Criterion(10, "orthogonality, embedding, residual, affine "
                       "invariance and covariance hygiene", 60.0):
        # Hermite orthogonality under the order-6 tensor rule
        roots, w1 = gh_roots_weights(6)
        for n in (1, 2, 3):
            indices = enumerate_indices(n, total_degree=4)
            pts = np.array(list(product(roots, repeat=n)))
            weights = np.prod(np.array(list(product(w1, repeat=n))), axis=1)
            design = hermite_design_matrix(indices, pts)
            gram = design.T @ (weights[:, None] * design)
            expected = np.diag([math.prod(map(math.factorial, ix)) for ix in indices])
            np.testing.assert_allclose(gram, expected, atol=1e-10)

        # kernel mean embedding against tensor quadrature
        roots20, w20 = gh_roots_weights(20)
        for n in (1, 2):
            pts = np.array(list(product(roots20, repeat=n)))
            weights = np.prod(np.array(list(product(w20, repeat=n))), axis=1)
            probes = np.random.default_rng(4).normal(size=(3, n))
            for kernel in (SquaredExponentialKernel(1.0, 1.3),
                           make_ut_kernel(n, 3)):
                for probe in probes:
                    oracle = float(
                        weights @ kernel.eval(pts, probe[None, :])[:, 0])
                    assert kernel.mean_embedding(probe[None, :])[0] == (
                        pytest.approx(oracle, abs=1e-8))

        # weight-system residual
        rng = np.random.default_rng(6)
        kernel = SquaredExponentialKernel(1.0, 1.5)
        for _ in range(5):
            pts = UnitPointSet(rng.normal(size=(6, 2)))
            rule = gpq_weights(kernel, pts, jitter=0.0)
            gram = kernel.gram(pts.points)
            q = kernel.mean_embedding(pts.points)
            assert np.abs(gram @ rule.weights - q).max() <= 1e-9 * np.abs(q).max()

        # affine invariance of the transform (exact rule, affine integrand)
        a = rng.normal(size=(2, 2)) + 2 * np.eye(2)
        g_mat = rng.normal(size=(2, 2))
        m = rng.normal(size=2)
        p = np.array([[1.3, 0.2], [0.2, 0.9]])
        rule = ut_points(2, 1.0)
        direct = gp_transform(rule, lambda x: x @ g_mat.T + 0.5, m, p,
                              0.1 * np.eye(2))
        a_inv = np.linalg.inv(a)
        mapped = gp_transform(rule, lambda z: z @ (g_mat @ a).T + 0.5,
                              a_inv @ m, a_inv @ p @ a_inv.T, 0.1 * np.eye(2))
        np.testing.assert_allclose(mapped.mean, direct.mean, atol=1e-9)
        np.testing.assert_allclose(mapped.cov, direct.cov, atol=1e-9)

        # covariance symmetry / near-PSD through a filter run
        from gpquad.models import simulate, ungm_model

        model = ungm_model()
        rule = ut_points(1, 2.0)
        trajectory = simulate(model, 150, seed=8)
        out = run_filter(model, rule, trajectory.measurements)
        for covs in (out.predicted_covs, out.filtered_covs):
            assert np.abs(covs - covs.transpose(0, 2, 1)).max() <= 1e-10
            for cov in covs:
                assert np.linalg.eigvalsh(cov).min() >= -1e-8 * np.trace(cov)
