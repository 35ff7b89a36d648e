import dataclasses
import re
from dataclasses import fields

import numpy as np
import pytest

from gpquad import filtering
from gpquad.filtering import (
    AdditiveStateSpaceModel,
    FilterOutput,
    GaussianState,
    gp_transform,
    predict,
    run_filter,
    run_smoother,
    update,
)
from gpquad.kernels import SquaredExponentialKernel, make_gh_kernel, make_ut_kernel
from gpquad.models import bot_model, simulate, ungm_model
from gpquad.points import (
    cubature_points,
    gauss_hermite_points,
    hammersley_points,
    optimize_points,
    symmetric5_points,
    ut_points,
)
from gpquad.quadrature import NumericalError, gpq_weights, matrix_sqrt


# --- independent closed-form oracle -----------------------------------------


def kalman_filter_oracle(a, h, q, r, prior_mean, prior_cov, observations):
    """Textbook linear Kalman recursion, no shared code with the package."""
    m, p = prior_mean.copy(), prior_cov.copy()
    out = []
    for y in observations:
        m = a @ m
        p = a @ p @ a.T + q
        pred_m, pred_p = m.copy(), p.copy()
        s = h @ p @ h.T + r
        gain = p @ h.T @ np.linalg.inv(s)
        m = m + gain @ (y - h @ m)
        p = p - gain @ s @ gain.T
        out.append((pred_m, pred_p, m.copy(), p.copy()))
    return out


def rts_smoother_oracle(a, q, kalman_out):
    means = [step[2] for step in kalman_out]
    covs = [step[3] for step in kalman_out]
    sm_means, sm_covs = [means[-1]], [covs[-1]]
    for k in range(len(kalman_out) - 2, -1, -1):
        pred_m = a @ means[k]
        pred_p = a @ covs[k] @ a.T + q
        gain = covs[k] @ a.T @ np.linalg.inv(pred_p)
        sm_means.insert(0, means[k] + gain @ (sm_means[0] - pred_m))
        sm_covs.insert(0, covs[k] + gain @ (sm_covs[0] - pred_p) @ gain.T)
    return np.array(sm_means), np.array(sm_covs)


def random_linear_model(seed=42, n=2, d=1, spectral_radius=0.85):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    a *= spectral_radius / np.abs(np.linalg.eigvals(a)).max()
    h = rng.normal(size=(d, n))
    q = 0.1 * np.eye(n)
    r = 0.1 * np.eye(d)
    prior = GaussianState(np.zeros(n), np.eye(n))
    model = AdditiveStateSpaceModel(
        transition=lambda x, k: x @ a.T,
        measurement=lambda x, k: x @ h.T,
        process_cov=q,
        measurement_cov=r,
        prior=prior,
    )
    return model, a, h, q, r


def simulate_linear(a, h, q, r, prior, steps, seed):
    rng = np.random.default_rng(seed)
    x = rng.multivariate_normal(prior.mean, prior.cov)
    ys = []
    for _ in range(steps):
        x = a @ x + rng.multivariate_normal(np.zeros(a.shape[0]), q)
        ys.append(h @ x + rng.multivariate_normal(np.zeros(h.shape[0]), r))
    return np.array(ys)


# --- predict -----------------------------------------------------------------


class TestPredict:
    def test_identity_no_noise(self):
        state = GaussianState(np.array([1.0, -0.5]),
                              np.array([[1.2, 0.1], [0.1, 0.9]]))
        rule = ut_points(2, 1.0)
        out = predict(state, rule, lambda x, k: x, np.zeros((2, 2)))
        np.testing.assert_allclose(out.mean, state.mean, atol=1e-10)
        np.testing.assert_allclose(out.cov, state.cov, atol=1e-10)

    def test_linear_map(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(2, 2))
        q = np.array([[0.4, 0.0], [0.0, 0.2]])
        state = GaussianState(rng.normal(size=2), np.array([[1.5, 0.3], [0.3, 1.0]]))
        rule = ut_points(2, 1.0)
        out = predict(state, rule, lambda x, k: x @ a.T, q)
        np.testing.assert_allclose(out.mean, a @ state.mean, atol=1e-10)
        np.testing.assert_allclose(out.cov, a @ state.cov @ a.T + q, atol=1e-10)

    def test_square_through_gh3(self):
        # x ~ N(0,1): E[x^2] = 1, Var[x^2] = 2; GH-3 resolves the 4th moment
        state = GaussianState(np.zeros(1), np.eye(1))
        rule = gauss_hermite_points(1, 3)
        out = predict(state, rule, lambda x, k: x**2, np.zeros((1, 1)))
        assert out.mean[0] == pytest.approx(1.0, abs=1e-12)
        assert out.cov[0, 0] == pytest.approx(2.0, abs=1e-12)


class TestUpdate:
    def test_linear_update_matches_kalman(self):
        model, a, h, q, r = random_linear_model()
        pred = GaussianState(np.array([0.7, -0.3]),
                             np.array([[1.1, 0.2], [0.2, 0.8]]))
        rule = ut_points(2, 1.0)
        y = np.array([0.25])
        filtered, mu, s, c, gain = update(
            pred, rule, model.measurement, r, y)
        s_expected = h @ pred.cov @ h.T + r
        k_expected = pred.cov @ h.T @ np.linalg.inv(s_expected)
        m_expected = pred.mean + k_expected @ (y - h @ pred.mean)
        p_expected = pred.cov - k_expected @ s_expected @ k_expected.T
        np.testing.assert_allclose(mu, h @ pred.mean, atol=1e-9)
        np.testing.assert_allclose(s, s_expected, atol=1e-9)
        np.testing.assert_allclose(filtered.mean, m_expected, atol=1e-9)
        np.testing.assert_allclose(filtered.cov, p_expected, atol=1e-9)

    def test_zero_innovation_keeps_mean(self):
        pred = GaussianState(np.array([2.0]), np.array([[3.0]]))
        rule = ut_points(1, 2.0)
        y_at_prediction = np.array([2.0])
        filtered, *_ = update(pred, rule, lambda x, k: x, np.eye(1),
                              y_at_prediction)
        np.testing.assert_allclose(filtered.mean, pred.mean, atol=1e-12)

    def test_huge_measurement_noise_ignores_observation(self):
        pred = GaussianState(np.array([2.0, 1.0]), np.eye(2))
        rule = ut_points(2, 1.0)
        filtered, *_ = update(pred, rule, lambda x, k: x[:, :1], 1e12 * np.eye(1),
                              np.array([500.0]))
        assert np.abs(filtered.mean - pred.mean).max() < 1e-6 * np.linalg.norm(pred.mean)

    def test_degenerate_innovation_raises(self):
        pred = GaussianState(np.zeros(1), np.eye(1))
        rule = ut_points(1, 2.0)
        with pytest.raises(NumericalError, match="positive definite"):
            update(pred, rule, lambda x, k: 0.0 * x, np.zeros((1, 1)),
                   np.array([0.0]))


class TestRunFilter:
    def test_empty_measurements(self):
        model, *_ = random_linear_model()
        rule = ut_points(2, 1.0)
        out = run_filter(model, rule, np.empty((0, 1)))
        assert len(out) == 0

    @pytest.mark.parametrize("make_rule", [
        lambda n: ut_points(n, 1.0),
        lambda n: cubature_points(n),
        lambda n: gauss_hermite_points(n, 3),
        lambda n: symmetric5_points(n),
    ])
    def test_linear_model_matches_kalman_oracle(self, make_rule):
        model, a, h, q, r = random_linear_model()
        ys = simulate_linear(a, h, q, r, model.prior, steps=50, seed=7)
        out = run_filter(model, make_rule(2), ys)
        oracle = kalman_filter_oracle(a, h, q, r, model.prior.mean,
                                      model.prior.cov, ys)
        for k, (pm, pp, fm, fp) in enumerate(oracle):
            np.testing.assert_allclose(out.predicted_means[k], pm, atol=1e-8)
            np.testing.assert_allclose(out.predicted_covs[k], pp, atol=1e-8)
            np.testing.assert_allclose(out.filtered_means[k], fm, atol=1e-8)
            np.testing.assert_allclose(out.filtered_covs[k], fp, atol=1e-8)

    @pytest.mark.parametrize("ys", [np.zeros((10, 2)), np.zeros(5), np.zeros(()),
                                    np.zeros((2, 3, 5, 1))],
                             ids=["dimension-2", "vector", "scalar", "4-d"])
    def test_observations_of_the_wrong_dimension_raise(self, ys):
        # (T, d) and (S, T, d) only: a length-T vector is not read as (T, 1)
        with pytest.raises(ValueError, match=re.escape(
                f"observations of shape {ys.shape}, model expects (T, 1) or (S, T, 1)")):
            run_filter(ungm_model(), ut_points(1, 2.0), ys)

    @pytest.mark.parametrize("call,message", [
        (lambda rule: run_filter(ungm_model(), [ut_points(1, 2.0), rule], np.zeros((3, 1))),
         "rule 1 of dimension 2, model.state_dim is 1"),
        (lambda rule: run_filter(ungm_model(), rule, np.zeros((3, 1))),
         "rule 0 of dimension 2, model.state_dim is 1"),
        (lambda rule: gp_transform(rule, lambda x: x, np.zeros(3), np.eye(3), 0.0),
         "rule of dimension 2, mean of length 3"),
        (lambda rule: predict(GaussianState(np.zeros(3), np.eye(3)), rule,
                              lambda x, k: x, 1.0),
         "rule of dimension 2, mean of length 3"),
        (lambda rule: update(GaussianState(np.zeros(1), np.eye(1)), rule,
                             lambda x, k: x, 1.0, 0.0),
         "rule of dimension 2, mean of length 1"),
    ], ids=["group", "single", "gp_transform", "predict", "update"])
    def test_a_rule_of_the_wrong_dimension_raises(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(ut_points(2, 2.0))

    def test_output_covariances_well_formed(self):
        model = ungm_model()
        rule = ut_points(1, 2.0)
        trajectory = simulate(model, 100, seed=3)
        out = run_filter(model, rule, trajectory.measurements)
        for covs in (out.predicted_covs, out.filtered_covs):
            asym = np.abs(covs - covs.transpose(0, 2, 1)).max()
            assert asym <= 1e-10
            for cov in covs:
                eigs = np.linalg.eigvalsh(cov)
                assert eigs.min() >= -1e-8 * np.trace(cov)

    def test_ungm_regression_rmse(self):
        # self-regression baseline recorded at first build
        model = ungm_model()
        rule = ut_points(1, 2.0)
        trajectory = simulate(model, 200, seed=0)
        out = run_filter(model, rule, trajectory.measurements)
        rmse = float(np.sqrt(np.mean(
            (out.filtered_means[:, 0] - trajectory.states[1:, 0]) ** 2)))
        assert rmse == pytest.approx(11.503059167216021, rel=1e-9)


class TestRuleEquivalenceInFilter:
    def test_classical_ut_equals_gpq_ut_kernel(self):
        model = ungm_model()
        classical = ut_points(1, 2.0)
        gpq = gpq_weights(make_ut_kernel(1, 3), ut_points(1, 2.0).points, 0.0)
        trajectory = simulate(model, 60, seed=11)
        out_a = run_filter(model, classical, trajectory.measurements)
        out_b = run_filter(model, gpq, trajectory.measurements)
        np.testing.assert_allclose(out_a.filtered_means, out_b.filtered_means,
                                   atol=1e-8)
        np.testing.assert_allclose(out_a.filtered_covs, out_b.filtered_covs,
                                   atol=1e-8)

    def test_classical_gh_equals_gpq_gh_kernel(self):
        model = ungm_model()
        classical = gauss_hermite_points(1, 3)
        gpq = gpq_weights(make_gh_kernel(1, 3), classical.points, 0.0)
        trajectory = simulate(model, 60, seed=13)
        out_a = run_filter(model, classical, trajectory.measurements)
        out_b = run_filter(model, gpq, trajectory.measurements)
        np.testing.assert_allclose(out_a.filtered_means, out_b.filtered_means,
                                   atol=1e-8)
        np.testing.assert_allclose(out_a.filtered_covs, out_b.filtered_covs,
                                   atol=1e-8)


class TestRunSmoother:
    def test_last_step_equals_filter(self):
        model, a, h, q, r = random_linear_model()
        ys = simulate_linear(a, h, q, r, model.prior, steps=20, seed=5)
        rule = ut_points(2, 1.0)
        out = run_filter(model, rule, ys)
        means, covs = run_smoother(model, rule, out)
        np.testing.assert_array_equal(means[-1], out.filtered_means[-1])
        np.testing.assert_array_equal(covs[-1], out.filtered_covs[-1])

    def test_linear_model_matches_rts_oracle(self):
        model, a, h, q, r = random_linear_model()
        ys = simulate_linear(a, h, q, r, model.prior, steps=50, seed=9)
        rule = ut_points(2, 1.0)
        out = run_filter(model, rule, ys)
        means, covs = run_smoother(model, rule, out)
        oracle = kalman_filter_oracle(a, h, q, r, model.prior.mean,
                                      model.prior.cov, ys)
        sm_means, sm_covs = rts_smoother_oracle(a, q, oracle)
        np.testing.assert_allclose(means, sm_means, atol=1e-8)
        np.testing.assert_allclose(covs, sm_covs, atol=1e-8)

    def test_static_state_smoothing_shrinks_covariance(self):
        # f identity, Q = 0: future measurements only add information
        prior = GaussianState(np.zeros(1), np.eye(1))
        model = AdditiveStateSpaceModel(
            transition=lambda x, k: x,
            measurement=lambda x, k: x,
            process_cov=np.zeros((1, 1)),
            measurement_cov=np.eye(1),
            prior=prior,
        )
        rng = np.random.default_rng(1)
        ys = (0.7 + rng.normal(size=(15, 1)))
        rule = ut_points(1, 2.0)
        out = run_filter(model, rule, ys)
        _, covs = run_smoother(model, rule, out)
        for k in range(15):
            assert np.trace(covs[k]) <= np.trace(out.filtered_covs[k]) + 1e-12

    def test_smoothing_reduces_ungm_rmse_on_average(self):
        model = ungm_model()
        rule = ut_points(1, 2.0)
        filter_rmses, smoother_rmses = [], []
        for seed in range(20):
            trajectory = simulate(model, 200, seed=seed)
            out = run_filter(model, rule, trajectory.measurements)
            means, _ = run_smoother(model, rule, out)
            truth = trajectory.states[1:, 0]
            filter_rmses.append(np.sqrt(np.mean((out.filtered_means[:, 0] - truth) ** 2)))
            smoother_rmses.append(np.sqrt(np.mean((means[:, 0] - truth) ** 2)))
        assert np.mean(smoother_rmses) <= np.mean(filter_rmses)


class TestGpqSeFilterMatchesKalman:
    def test_se_kernel_large_length_scale(self):
        model, a, h, q, r = random_linear_model()
        ys = simulate_linear(a, h, q, r, model.prior, steps=50, seed=7)
        pts = ut_points(2, 2.0).points
        rule = gpq_weights(SquaredExponentialKernel(1.0, 1e3), pts, jitter=0.0)
        out = run_filter(model, rule, ys)
        oracle = kalman_filter_oracle(a, h, q, r, model.prior.mean,
                                      model.prior.cov, ys)
        worst = max(
            max(np.abs(out.filtered_means[k] - fm).max(),
                np.abs(out.filtered_covs[k] - fp).max())
            for k, (_, _, fm, fp) in enumerate(oracle)
        )
        assert worst < 1e-7


class TestBatchedRecursion:
    def test_linear_batch_matches_kalman_and_rts_oracles(self):
        model, a, h, q, r = random_linear_model()
        ys = np.stack([simulate_linear(a, h, q, r, model.prior, steps=40, seed=s)
                       for s in range(5)])
        rule = cubature_points(2)
        out = run_filter(model, rule, ys)
        means, covs = run_smoother(model, rule, out)
        assert len(out) == 40
        assert out.filtered_means.shape == (5, 40, 2)
        assert means.shape == (5, 40, 2) and covs.shape == (5, 40, 2, 2)
        for member, y in enumerate(ys):
            oracle = kalman_filter_oracle(a, h, q, r, model.prior.mean,
                                          model.prior.cov, y)
            sm_means, sm_covs = rts_smoother_oracle(a, q, oracle)
            for k, (pm, pp, fm, fp) in enumerate(oracle):
                np.testing.assert_allclose(out.predicted_means[member, k], pm, atol=1e-8)
                np.testing.assert_allclose(out.predicted_covs[member, k], pp, atol=1e-8)
                np.testing.assert_allclose(out.filtered_means[member, k], fm, atol=1e-8)
                np.testing.assert_allclose(out.filtered_covs[member, k], fp, atol=1e-8)
            np.testing.assert_allclose(means[member], sm_means, atol=1e-8)
            np.testing.assert_allclose(covs[member], sm_covs, atol=1e-8)

    def test_ungm_batch_matches_single_calls(self):
        # the same arithmetic per member: bit-identical with numpy 2.4 and
        # OpenBLAS; the bound leaves room for a BLAS that sums in another
        # order, which the model's chaos amplifies to ~1e-8 over 200 steps
        model = ungm_model()
        rule = gauss_hermite_points(1, 7)
        ys = np.stack([simulate(model, 200, seed=s).measurements for s in range(4)])
        out = run_filter(model, rule, ys)
        means, covs = run_smoother(model, rule, out)
        for member, y in enumerate(ys):
            single = run_filter(model, rule, y)
            single_means, single_covs = run_smoother(model, rule, single)
            for name in ("filtered_means", "filtered_covs", "predicted_means",
                         "predicted_covs", "cross_covs"):
                np.testing.assert_allclose(getattr(out, name)[member],
                                           getattr(single, name), rtol=0, atol=1e-7)
            np.testing.assert_allclose(means[member], single_means, rtol=0, atol=1e-7)
            np.testing.assert_allclose(covs[member], single_covs, rtol=0, atol=1e-7)

    def test_member_going_non_psd_raises_with_time_index_and_member(self):
        # the UT with kappa = -1/2 puts weight -1 on the centre point; for
        # f(x) = x^2 the predicted variance is P (8 m^2 - P) / 2, negative
        # once the filtered mean m is near 0, which an observation of 0
        # brings about for member 1 after the first update
        model = AdditiveStateSpaceModel(
            transition=lambda x, k: x**2,
            measurement=lambda x, k: x,
            process_cov=np.zeros((1, 1)),
            measurement_cov=np.eye(1),
            prior=GaussianState(np.array([3.0]), np.eye(1)),
        )
        rule = ut_points(1, -0.5)
        healthy = np.array([[[3.0]], [[5.0]]])
        run_filter(model, rule, healthy)
        ys = np.array([[[3.0], [1.0]], [[0.0], [1.0]], [[5.0], [1.0]]])
        with pytest.raises(NumericalError, match="time index 2: matrix is not PSD "
                                                 "for batch member 1") as alone:
            run_filter(model, rule, ys)
        # in a group the UT stops alone, with the error it raises alone,
        # and Gauss-Hermite runs through
        out = run_filter(model, [gauss_hermite_points(1, 3), rule], ys)
        assert out.errors == (None, str(alone.value))
        assert np.isfinite(out.filtered_means[0]).all()
        assert np.isnan(out.filtered_means[1, :, 1:]).all()

    def test_smoother_makes_no_model_call_and_no_square_root(self, monkeypatch):
        calls = {"transition": 0, "measurement": 0, "matrix_sqrt": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        model, a, h, q, r = random_linear_model()
        model = AdditiveStateSpaceModel(
            transition=counted("transition", model.transition),
            measurement=counted("measurement", model.measurement),
            process_cov=q, measurement_cov=r, prior=model.prior,
        )
        monkeypatch.setattr(filtering, "matrix_sqrt",
                            counted("matrix_sqrt", filtering.matrix_sqrt))
        ys = np.stack([simulate_linear(a, h, q, r, model.prior, steps=12, seed=s)
                       for s in range(3)])
        rule = ut_points(2, 1.0)
        out = run_filter(model, rule, ys)
        # one call per step for the whole batch
        assert calls == {"transition": 12, "measurement": 12, "matrix_sqrt": 24}
        run_smoother(model, rule, out)
        assert calls == {"transition": 12, "measurement": 12, "matrix_sqrt": 24}

    def test_matrix_sqrt_falls_back_for_the_singular_member_only(self):
        stack = np.array([np.eye(2), [[1.0, 1.0], [1.0, 1.0]], np.diag([4.0, 9.0])])
        res = matrix_sqrt(stack)
        assert res.spd_fallback == 1
        np.testing.assert_array_equal(res.factor[0], np.linalg.cholesky(stack[0]))
        np.testing.assert_array_equal(res.factor[2], np.linalg.cholesky(stack[2]))
        np.testing.assert_allclose(res.factor[1] @ res.factor[1].T, stack[1], atol=1e-12)
        definite = stack[[0, 2, 2, 0]].reshape(2, 2, 2, 2) + [[0.0, 0.3], [0.3, 0.0]]
        res = matrix_sqrt(definite)
        assert res.spd_fallback == 0
        assert np.array_equal(res.factor, np.linalg.cholesky(definite))

    def test_matrix_sqrt_names_the_failing_member(self):
        stack = np.array([np.eye(2), np.eye(2), np.diag([1.0, -1.0])])
        with pytest.raises(NumericalError, match="not PSD for batch member 2"):
            matrix_sqrt(stack)
        stack[1, 0, 1] = 0.5
        with pytest.raises(ValueError, match="asymmetric .* for batch member 1"):
            matrix_sqrt(stack)

    def test_innovation_failure_names_member_and_min_eigenvalue(self):
        rule = ut_points(1, 2.0)
        covs = np.array([[[1.0]], [[0.0]]])
        with pytest.raises(NumericalError,
                           match=r"^innovation covariance at step 3 not positive definite "
                                 r"for batch member 1 \(min eigenvalue 0\.000e\+00\)$"):
            filtering._update(rule.points.points, rule.weights, np.zeros((2, 1)), covs,
                              lambda x, k: x, np.zeros((1, 1)), np.zeros((2, 1)), 3)


def ungm_group():
    # three points each, classical and GP-quadrature weights
    ut = ut_points(1, 2.0)
    se = SquaredExponentialKernel(output_scale=1.0, length_scale=3.0)
    return ungm_model(), [ut, gpq_weights(se, ut.points, 1e-8), gauss_hermite_points(1, 3),
                          gpq_weights(se, hammersley_points(1, 3), 1e-8)]


def bot_group():
    # eleven points each in 5-D
    ut = ut_points(5, 2.0)
    se = SquaredExponentialKernel(output_scale=1.0, length_scale=10.0)
    return bot_model(), [ut, gpq_weights(se, ut.points, 1e-8), ut_points(5, 1.0)]


class TestRuleGroups:
    @pytest.mark.parametrize("make_group", [ungm_group, bot_group], ids=["ungm", "bot"])
    def test_group_equals_its_members_run_alone(self, make_group):
        # each member's slice bit for bit against its solo run: batching
        # changes no member's arithmetic, 1x1 or not
        model, rules = make_group()
        ys = np.stack([simulate(model, 60, seed=s).measurements for s in range(3)])
        out = run_filter(model, rules, ys)
        means, covs = run_smoother(model, rules, out)
        n = model.state_dim
        assert len(out) == 60
        assert out.filtered_means.shape == (len(rules), 3, 60, n)
        assert covs.shape == (len(rules), 3, 60, n, n)
        for index, rule in enumerate(rules):
            single = run_filter(model, rule, ys)
            single_means, single_covs = run_smoother(model, rule, single)
            for field in fields(FilterOutput)[:-1]:  # the seven arrays, not errors
                assert np.array_equal(getattr(out, field.name)[index],
                                      getattr(single, field.name))
            assert np.array_equal(means[index], single_means)
            assert np.array_equal(covs[index], single_covs)

    def test_sequence_of_rules_on_one_trajectory_adds_only_the_method_axis(self):
        model, rules = ungm_group()
        y = simulate(model, 30, seed=3).measurements
        out = run_filter(model, rules, y)
        means, covs = run_smoother(model, rules, out)
        assert out.innovation_covs.shape == (len(rules), 30, 1, 1)
        assert means.shape == (len(rules), 30, 1) and covs.shape == (len(rules), 30, 1, 1)
        single = run_filter(model, rules[1], y)
        one = run_filter(model, rules[1:2], y)
        assert one.filtered_means.shape == (1, 30, 1)
        for group, index in ((out, 1), (one, 0)):
            assert np.array_equal(group.filtered_means[index], single.filtered_means)

    def test_no_rule_is_rejected(self):
        y = simulate(ungm_model(), 5, seed=0).measurements
        with pytest.raises(ValueError, match="at least one rule"):
            run_filter(ungm_model(), [], y)


def assert_rule_equals_solo(model, out, smoothed, index, rule, ys):
    # rule ``index`` of a group, bit for bit against its solo run
    single = run_filter(model, rule, ys)
    for name in ARRAY_FIELDS:
        assert np.array_equal(getattr(out, name)[index], getattr(single, name))
    single_smoothed = run_smoother(model, rule, single)
    for array, solo in zip(smoothed, single_smoothed):
        assert np.array_equal(array[index], solo)


def ungm_mixed_rules():
    # the 1-D benchmark's methods, 2, 3, 7 and 10 points, and the
    # 7-point GPQ-Hammersley rule, which fails on this model
    se = SquaredExponentialKernel(output_scale=1.0, length_scale=3.0)
    optimized = [gpq_weights(se, optimize_points(SquaredExponentialKernel(1.0, 1.0),
                                                 1, count, 0), 1e-8)
                 for count in (3, 7, 10)]
    ut = ut_points(1, 2.0)
    return [ut, cubature_points(1), *(gauss_hermite_points(1, order) for order in (3, 7, 10)),
            gpq_weights(se, ut.points, 1e-8),
            gpq_weights(se, hammersley_points(1, 3), 1e-8), *optimized,
            gpq_weights(se, hammersley_points(1, 7), 1e-8)]


class TestMixedPointCounts:
    """Rules of different point counts in one recursion, each padded with
    zero-weight points at the origin to the largest count."""

    def test_1d_benchmark_rules_equal_their_solo_runs(self):
        model, rules = ungm_model(), ungm_mixed_rules()
        assert sorted({rule.points.count for rule in rules}) == [2, 3, 7, 10]
        ys = np.stack([simulate(model, 60, seed=s).measurements for s in range(3)])
        out = run_filter(model, rules, ys)
        smoothed = run_smoother(model, rules, out)
        failing = len(rules) - 1
        error = solo_error(model, rules[failing], ys)
        assert out.errors == (None,) * failing + (error,)
        for index, rule in enumerate(rules[:failing]):
            assert_rule_equals_solo(model, out, smoothed, index, rule, ys)
        # the failing rule's arrays up to its failure are those of a solo
        # run that stops just before it, NaN from there on
        stop = int(error.split("time index ")[1].split(":")[0]) - 1
        before = run_filter(model, rules[failing], ys[:, :stop])
        for name in ARRAY_FIELDS:
            array = getattr(out, name)[failing]
            assert np.array_equal(array[:, :stop], getattr(before, name))
            assert np.isnan(array[:, stop:]).all()

    def test_5d_cubature_and_ut_equal_their_solo_runs(self):
        # 10 and 11 points on the LAPACK path
        model, rules = bot_model(), [cubature_points(5), ut_points(5, 2.0)]
        ys = np.stack([simulate(model, 40, seed=s).measurements for s in range(8)])
        out = run_filter(model, rules, ys)
        smoothed = run_smoother(model, rules, out)
        assert out.errors == (None, None)
        for index, rule in enumerate(rules):
            assert_rule_equals_solo(model, out, smoothed, index, rule, ys)

    def test_padding_non_finite_only_at_the_mean_runs_through(self):
        # f = 0 puts every predicted mean at 0, where h is NaN: the padded
        # cubature rule evaluates h there at every step and runs through,
        # while the UT, whose own centre point lies there, fails as alone
        model = AdditiveStateSpaceModel(
            transition=lambda x, k: np.zeros_like(x),
            measurement=lambda x, k: np.where(x == 0.0, np.nan, x),
            process_cov=0.5, measurement_cov=0.1,
            prior=GaussianState(np.zeros(1), np.eye(1)))
        rules = [cubature_points(1), ut_points(1, 2.0), gauss_hermite_points(1, 4)]
        ys = np.array([[0.3, -0.2, 0.5], [1.0, 0.4, -0.1]])[..., None]
        out = run_filter(model, rules, ys)
        smoothed = run_smoother(model, rules, out)
        error = solo_error(model, rules[1], ys)
        assert error == ("filter failed at time index 1: function returned non-finite "
                         "values at the sigma-points for batch member 0")
        assert out.errors == (None, error, None)
        for index in (0, 2):
            assert_rule_equals_solo(model, out, smoothed, index, rules[index], ys)
        assert np.isfinite(out.filtered_means[0]).all()


def squares_model(n, mean):
    # x_k = x_{k-1}^2 componentwise, observed directly: a UT with
    # kappa < 1 - n weighs the centre point so negatively that the
    # predicted variance 4 m^2 P + (n + kappa - 1) P^2 goes negative once
    # the filtered mean m is near 0
    return AdditiveStateSpaceModel(
        transition=lambda x, k: x**2, measurement=lambda x, k: x,
        process_cov=np.zeros((n, n)), measurement_cov=np.eye(n),
        prior=GaussianState(np.full(n, mean), np.eye(n)))


def solo_error(model, rule, ys):
    with pytest.raises(NumericalError) as failure:
        run_filter(model, rule, ys)
    return str(failure.value)


ARRAY_FIELDS = [field.name for field in fields(FilterOutput)[:-1]]


def failing_5d_group():
    # 5x5 covariances take the LAPACK Cholesky path; an observation of 0
    # at time index 1 sends trajectory 1's filtered mean near 0, and the
    # middle rule, the UT with kappa = -4.5, fails at time index 2
    ys = np.ones((3, 6, 5))
    ys[:, 0] = np.array([3.0, 0.0, 5.0])[:, None]
    rules = [ut_points(5, 2.0), ut_points(5, -4.5), ut_points(5, 1.0)]
    return squares_model(5, 3.0), rules, ys


class TestFailingRules:
    def test_failing_rule_stops_alone_in_a_5d_group(self):
        model, rules, ys = failing_5d_group()
        out = run_filter(model, rules, ys)
        error = solo_error(model, rules[1], ys)
        assert error.startswith("filter failed at time index 2: matrix is not PSD "
                                "for batch member 1")
        assert out.errors == (None, error, None)
        for index in (0, 2):
            single = run_filter(model, rules[index], ys)
            for name in ARRAY_FIELDS:
                assert np.array_equal(getattr(out, name)[index], getattr(single, name))
        for name in ARRAY_FIELDS:
            failed = getattr(out, name)[1]
            assert np.isfinite(failed[:, 0]).all() and np.isnan(failed[:, 1:]).all()

    def test_rules_failing_in_different_phases_at_one_step(self):
        # f(x) = x, h(x) = c x^2: the UT with kappa = -1/2 updates to a
        # negative filtered variance at time index 1, whose square root the
        # prediction at time index 2 cannot take; with kappa = -1/5 the
        # filtered variance stays positive, but once c grows from 1 to 100
        # the innovation variance c^2 (4 m^2 P - P^2 / 5) + 0.3 at time
        # index 2 goes negative for the trajectory whose filtered mean is
        # near 0
        model = AdditiveStateSpaceModel(
            transition=lambda x, k: x, measurement=lambda x, k: (1.0 if k == 1 else 100.0) * x**2,
            process_cov=0.0, measurement_cov=[[0.3]],
            prior=GaussianState(np.ones(1), np.eye(1)))
        ys = np.array([[-0.05, 1.0, 1.0, 1.0], [2.0, 1.0, 1.0, 1.0]])[..., None]
        rules = [gauss_hermite_points(1, 3), ut_points(1, -0.5), ut_points(1, -0.2)]
        out = run_filter(model, rules, ys)
        errors = [solo_error(model, rule, ys) for rule in rules[1:]]
        assert errors[0].startswith("filter failed at time index 2: matrix is not PSD")
        assert errors[1].startswith("filter failed at time index 2: innovation covariance "
                                    "at step 2 not positive definite for batch member 0")
        assert out.errors == (None, *errors)
        assert (out.filtered_covs[1, :, 0] < 0).all()
        single = run_filter(model, rules[0], ys)
        for name in ARRAY_FIELDS:
            assert np.array_equal(getattr(out, name)[0], getattr(single, name))
            assert np.isnan(getattr(out, name)[1:, :, 1:]).all()

    def test_single_rule_raises_the_error_it_stops_with_in_a_sequence(self):
        model, rules, ys = failing_5d_group()
        with pytest.raises(NumericalError) as alone:
            run_filter(model, rules[1], ys)
        assert type(alone.value) is NumericalError
        assert run_filter(model, [rules[1]], ys).errors == (str(alone.value),)
        assert run_filter(model, rules, ys).errors[1] == str(alone.value)

    @pytest.mark.parametrize("bug,error,match", [
        (lambda x: np.column_stack([x, x]), ValueError, r"noise covariance of shape \(1, 1\)"),
        # numpy raises a bare LinAlgError for a shape error too
        (lambda x: np.linalg.cholesky(np.ones((2, 3))), np.linalg.LinAlgError, "square"),
    ], ids=["two-columns", "bare-lin-alg-error"])
    def test_programming_error_raises_from_the_group_step(self, bug, error, match):
        # a shape bug in the measurement of a scalar model propagates from
        # the first update; no rule steps alone
        calls = []

        def measurement(x, k):
            calls.append(k)
            return bug(x)

        model = dataclasses.replace(ungm_model(), measurement=measurement)
        with pytest.raises(error, match=match) as info:
            run_filter(model, [ut_points(1, 2.0), cubature_points(1)], np.zeros((2, 5, 1)))
        assert not isinstance(info.value, NumericalError)
        assert calls == [1]

    def test_every_rule_failing_leaves_all_nan_and_raises_nothing(self):
        # from a prior mean of 0 a UT with kappa < 0 predicts the variance
        # kappa P^2 of x^2 at time index 1 on every trajectory
        model = squares_model(1, 0.0)
        rules = [ut_points(1, -0.5), ut_points(1, -0.2)]
        ys = np.ones((2, 5, 1))
        out = run_filter(model, rules, ys)
        assert out.errors == tuple(solo_error(model, rule, ys) for rule in rules)
        assert all(error.startswith("filter failed at time index 1: ")
                   for error in out.errors)
        means, covs = run_smoother(model, rules, out)
        for array in [getattr(out, name) for name in ARRAY_FIELDS] + [means, covs]:
            assert np.isnan(array).all()

    def test_padded_rule_is_retried_alone_on_the_lapack_path(self):
        # the 10-point cubature rule is padded to 11; when the UT with
        # kappa = -4.5 stops at time index 2, it takes that step alone
        model, _, ys = failing_5d_group()
        rules = [cubature_points(5), ut_points(5, -4.5), ut_points(5, 2.0)]
        out = run_filter(model, rules, ys)
        smoothed = run_smoother(model, rules, out)
        error = solo_error(model, rules[1], ys)
        assert error.startswith("filter failed at time index 2: ")
        assert out.errors == (None, error, None)
        for index in (0, 2):
            assert_rule_equals_solo(model, out, smoothed, index, rules[index], ys)

    def test_smoother_failure_names_time_index_and_member_among_those_smoothed(self):
        # rule 1 stopped, so rules 0 and 2 are smoothed: their six members
        # are (rule, trajectory) (0, 0), (0, 1), (0, 2), (2, 0), (2, 1), (2, 2);
        # array position 3 holds the prediction whose moments give the
        # gain at time index 3
        model, rules, ys = failing_5d_group()
        out = run_filter(model, rules, ys)
        assert out.errors[1] is not None
        predicted_covs = out.predicted_covs.copy()
        predicted_covs[2, 1, 3] = -np.eye(5)
        broken = dataclasses.replace(out, predicted_covs=predicted_covs)
        with pytest.raises(NumericalError, match=r"^smoother predicted covariance at time "
                                                 r"index 3 not positive definite for batch "
                                                 r"member 4 \(min eigenvalue -1\.000e\+00\)$"):
            run_smoother(model, rules, broken)

    def test_smoother_smooths_the_rules_that_ran_through(self):
        model, rules, ys = failing_5d_group()
        means, covs = run_smoother(model, rules, run_filter(model, rules, ys))
        for index in (0, 2):
            single_means, single_covs = run_smoother(
                model, rules[index], run_filter(model, rules[index], ys))
            assert np.array_equal(means[index], single_means)
            assert np.array_equal(covs[index], single_covs)
        assert np.isnan(means[1]).all() and np.isnan(covs[1]).all()


class TestNoiseCovariances:
    def test_model_holds_float_matrices_and_a_scalar_is_1x1(self):
        model, *_ = random_linear_model()
        assert model.process_cov.dtype == model.measurement_cov.dtype == float
        np.testing.assert_array_equal(model.process_cov, 0.1 * np.eye(2))
        np.testing.assert_array_equal(model.measurement_cov, [[0.1]])
        scalar = dataclasses.replace(model, measurement_cov=2)
        assert scalar.measurement_cov.dtype == float
        np.testing.assert_array_equal(scalar.measurement_cov, [[2.0]])
        assert scalar.measurement_dim == 1

    @pytest.mark.parametrize("field,cov,match", [
        ("process_cov", lambda k: np.eye(2), "not a float matrix"),
        ("measurement_cov", lambda k: 0.1, "not a float matrix"),
        ("process_cov", 0.1, r"noise covariance of shape \(1, 1\); expected \(2, 2\)"),
        ("measurement_cov", np.ones((1, 2)),
         r"noise covariance of shape \(1, 2\); expected a square matrix"),
        ("measurement_cov", np.ones((2, 1, 1)),
         r"noise covariance of shape \(2, 1, 1\); expected a square matrix"),
    ], ids=["callable-process", "callable-measurement", "scalar-for-2d", "non-square",
            "stack"])
    def test_other_noise_is_a_value_error_naming_the_field(self, field, cov, match):
        with pytest.raises(ValueError, match=f"^{field}: {match}"):
            dataclasses.replace(random_linear_model()[0], **{field: cov})

    def test_callable_negative_noise_raises_at_construction(self):
        # read at every step, this noise filtered 50 steps without an error
        # or a warning, to a predicted variance of 2.865
        with pytest.raises(ValueError, match="^process_cov: not a float matrix"):
            AdditiveStateSpaceModel(
                transition=lambda x, k: 2 * x, measurement=lambda x, k: x,
                process_cov=lambda k: np.array([[-0.1]]), measurement_cov=np.eye(1),
                prior=GaussianState(np.zeros(1), 5 * np.eye(1)))

    def test_scalar_is_a_multiple_of_the_identity(self):
        rule = cubature_points(2)
        state = GaussianState(np.zeros(2), np.eye(2))
        predicted = predict(state, rule, lambda x, k: x, 0.1).cov
        _, _, innovation_cov, *_ = update(state, rule, lambda x, k: x, 0.5, np.zeros(2))
        for cov, diagonal in ((predicted, 1.1), (innovation_cov, 1.5)):
            assert cov[0, 1] == 0.0 and cov[1, 0] == 0.0
            np.testing.assert_allclose(np.diag(cov), diagonal, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("cov", [np.ones(2), np.eye(3), np.ones((1, 1))])
    def test_other_shapes_are_rejected(self, cov):
        with pytest.raises(ValueError, match="noise covariance of shape"):
            predict(GaussianState(np.zeros(2), np.eye(2)), cubature_points(2),
                    lambda x, k: x, cov)

    @pytest.mark.parametrize("call,what", [
        (lambda: gp_transform(ut_points(1, 2.0), lambda x: x, 0.0, 1.0, -5.0), "noise_cov"),
        (lambda: predict(GaussianState(np.zeros(1), np.eye(1)), ut_points(1, 2.0),
                         lambda x, k: x, -5.0), "process_cov"),
        (lambda: update(GaussianState(np.zeros(1), np.eye(1)), ut_points(1, 2.0),
                        lambda x, k: x, -0.5, np.zeros(1)), "measurement_cov"),
        (lambda: run_filter(dataclasses.replace(ungm_model(), process_cov=-5.0),
                            ut_points(1, 2.0), np.zeros(5)), "process_cov"),
        # the input covariances, which GaussianState itself does not check
        (lambda: gp_transform(ut_points(1, 2.0), lambda x: x, 0.0, -1.0, 0.0), "cov"),
        (lambda: predict(GaussianState(np.zeros(1), -np.eye(1)), ut_points(1, 2.0),
                         lambda x, k: x, 0.0), "state.cov"),
        (lambda: update(GaussianState(np.zeros(1), -np.eye(1)), ut_points(1, 2.0),
                        lambda x, k: x, 1.0, np.zeros(1)), "pred.cov"),
        (lambda: run_filter(dataclasses.replace(
            ungm_model(), prior=GaussianState(np.zeros(1), -np.eye(1))),
            ut_points(1, 2.0), np.zeros(5)), "prior.cov"),
    ], ids=["gp_transform", "predict", "update", "run_filter", "gp_transform-input",
            "predict-input", "update-input", "run_filter-prior"])
    def test_negative_noise_is_rejected(self, call, what):
        # unchecked, the first three give the variances -4, -4 and -1, the
        # fourth filters five steps without an error and the inputs raise
        # a NumericalError
        with pytest.raises(ValueError, match=f"^{what}: matrix is not PSD: smallest "
                                             r"eigenvalue -\d") as info:
            call()
        assert not isinstance(info.value, NumericalError)

    def test_asymmetric_noise_is_rejected(self):
        # unchecked, the off-diagonal would be symmetrized to 0.4
        with pytest.raises(ValueError, match="^noise_cov: matrix is asymmetric") as info:
            gp_transform(cubature_points(2), lambda x: x, np.zeros(2), np.eye(2),
                         np.array([[1.0, 0.8], [0.0, 1.0]]))
        assert not isinstance(info.value, NumericalError)


class TestOverflow:
    @pytest.mark.parametrize("call,what", [
        (lambda: predict(GaussianState(np.zeros(1), [[1.0]]), ut_points(1, 2.0),
                         lambda x, k: 1e200 * (1 + x), 1.0), "predicted"),
        # a gain near 1e10 on an innovation near 1e308
        (lambda: update(GaussianState(np.zeros(1), [[1.0]]), ut_points(1, 2.0),
                        lambda x, k: 1e-10 * x, 1e-300, [1e308]), "filtered"),
    ], ids=["predict", "update"])
    def test_overflowing_moments_are_a_numerical_error(self, call, what):
        # finite model values whose moments overflow are a numerical
        # failure, as in run_filter, not an invalid input; numpy's own
        # overflow warning is not what is tested
        with np.errstate(over="ignore"), pytest.raises(
                NumericalError, match=f"^{what} mean or covariance is not finite$"):
            call()


class TestOverflowInEveryPath:
    # no np.errstate here: pytest's error filter fails any
    # test from which numpy's overflow or invalid-value warning escapes
    OVERFLOWING = staticmethod(lambda x, k: 1e200 * (1 + x))

    def test_group_filter_gives_each_rule_an_error_cell(self):
        model = dataclasses.replace(ungm_model(), transition=self.OVERFLOWING)
        out = run_filter(model, [ut_points(1, 2.0), cubature_points(1)], np.zeros((5, 1)))
        assert out.errors == ("filter failed at time index 1: predicted mean or "
                              "covariance is not finite",) * 2
        assert np.isnan(out.filtered_means).all()

    def test_gp_transform_raises(self):
        with pytest.raises(NumericalError, match="^transformed mean or covariance is not finite$"):
            gp_transform(ut_points(1, 2.0), lambda x: 1e200 * (1 + x), np.zeros(1),
                         np.eye(1), 0.0)

    def test_predict_and_update_raise_without_a_warning(self):
        prior = GaussianState(np.zeros(1), [[1.0]])
        with pytest.raises(NumericalError, match="^predicted"):
            predict(prior, ut_points(1, 2.0), self.OVERFLOWING, 1.0)
        with pytest.raises(NumericalError, match="^filtered"):
            update(prior, ut_points(1, 2.0), lambda x, k: 1e-10 * x, 1e-300, [1e308])

    def test_batch_error_names_the_member(self):
        # a gain near 1e10 on an innovation near 1e308 overflows on the
        # second trajectory only
        model = dataclasses.replace(
            ungm_model(), transition=lambda x, k: x, measurement=lambda x, k: 1e-10 * x,
            measurement_cov=1e-300)
        ys = np.array([[[0.0]], [[1e308]]])
        with pytest.raises(NumericalError, match="^filter failed at time index 1: filtered "
                           "mean or covariance is not finite for batch member 1$"):
            run_filter(model, ut_points(1, 2.0), ys)


class TestGaussianStateValidation:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="asymmetric"):
            GaussianState(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            GaussianState(np.zeros(3), np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("call,what", [
        (lambda bad: GaussianState(np.zeros(1), [[bad]]), "^mean and covariance"),
        (lambda bad: GaussianState(np.array([bad]), np.eye(1)), "^mean and covariance"),
        (lambda bad: gp_transform(ut_points(1, 2.0), lambda x: x, 0.0, 1.0, bad),
         "^noise_cov: matrix"),
        (lambda bad: gp_transform(ut_points(1, 2.0), lambda x: x, bad, 1.0, 0.0),
         "^mean and covariance"),
        (lambda bad: predict(GaussianState(np.zeros(1), np.eye(1)), ut_points(1, 2.0),
                             lambda x, k: x, bad), "^process_cov: matrix"),
        (lambda bad: update(GaussianState(np.zeros(1), np.eye(1)), ut_points(1, 2.0),
                            lambda x, k: x, bad, np.zeros(1)), "^measurement_cov: matrix"),
        (lambda bad: run_filter(dataclasses.replace(
            ungm_model(), prior=GaussianState(np.zeros(1), [[bad]])),
            ut_points(1, 2.0), np.zeros(5)), "^mean and covariance"),
        (lambda bad: predict(GaussianState(np.zeros(2), np.eye(2)), cubature_points(2),
                             lambda x, k: x, bad), "^process_cov: matrix"),
        (lambda bad: update(GaussianState(np.zeros(2), np.eye(2)), cubature_points(2),
                            lambda x, k: x, bad, np.zeros(2)), "^measurement_cov: matrix"),
        (lambda bad: run_filter(dataclasses.replace(random_linear_model()[0],
                                                    process_cov=np.full((2, 2), bad)),
                                cubature_points(2), np.zeros(5)), "^process_cov: matrix"),
        (lambda bad: update(GaussianState(np.zeros(1), np.eye(1)), ut_points(1, 2.0),
                            lambda x, k: x, 1.0, [bad]), "^observation is not"),
    ], ids=["state-cov", "state-mean", "gp_transform-noise", "gp_transform-mean",
            "predict", "update", "run_filter-prior", "predict-2d", "update-2d",
            "run_filter-noise-2d", "update-observation"])
    def test_non_finite_input_is_a_value_error(self, call, what, bad):
        # unchecked, a NaN covariance reached the sigma points and raised
        # "function returned non-finite values", a NumericalError, and a
        # non-finite observation "filtered mean or covariance is not
        # finite"; a scalar inf noise in 2-D must not be built as
        # inf * eye(2), whose NaN off the diagonal comes with numpy's
        # invalid-value RuntimeWarning
        with pytest.raises(ValueError, match=f"{what} .*finite") as info:
            call(bad)
        assert not isinstance(info.value, NumericalError)

    @pytest.mark.parametrize("ys,message", [
        (np.array([[0.0], [1.0], [np.inf], [np.nan]]),
         "^observation at time index 3 is not finite$"),
        # the earliest time index, then the first trajectory at it
        (np.array([[[0.0], [1.0], [2.0]], [[0.0], [np.nan], [np.inf]],
                   [[0.0], [-np.inf], [0.0]]]),
         "^observation at time index 2 of trajectory 1 is not finite$"),
    ], ids=["one-trajectory", "batch"])
    def test_non_finite_observation_in_run_filter_is_a_value_error(self, ys, message):
        # unchecked, every rule of the group got the error cell "filter
        # failed at time index ...: filtered mean or covariance is not
        # finite"; now the input is rejected before any model call
        calls = []

        def measurement(x, k):
            calls.append(k)
            return x

        model = dataclasses.replace(ungm_model(), measurement=measurement)
        with pytest.raises(ValueError, match=message) as info:
            run_filter(model, [ut_points(1, 2.0), cubature_points(1)], ys)
        assert not isinstance(info.value, NumericalError)
        assert calls == []

    @pytest.mark.parametrize("call", [
        lambda: GaussianState(np.zeros((1, 2)), [[1.0]]),
        # unchecked, numpy's "cannot reshape array of size 6 into shape
        # (3,1)" from inside the transform
        lambda: gp_transform(ut_points(1, 2.0), lambda x: x, [[0.0, 5.0]], [[1.0]], 0.0),
    ], ids=["state", "gp_transform"])
    def test_mean_that_is_not_a_vector_is_rejected(self, call):
        with pytest.raises(ValueError, match=r"^mean must be a vector, got shape \(1, 2\)$"):
            call()
