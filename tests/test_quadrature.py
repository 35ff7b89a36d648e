import warnings

import numpy as np
import pytest

import gpquad
from gpquad.hermite import enumerate_indices
from gpquad.kernels import SquaredExponentialKernel, make_gh_kernel, make_ut_kernel
from gpquad.points import (
    UnitPointSet,
    cubature_points,
    gauss_hermite_points,
    ut_points,
)
from gpquad.filtering import gp_transform
from gpquad.quadrature import (
    NumericalError,
    _cholesky_solve,
    _positive_definite,
    _spd_solve,
    _spd_solve_members,
    gp_regression_mean,
    gpq_variance,
    gpq_weights,
    matrix_sqrt,
)


def well_conditioned_spd(rng, *shape):
    """SPD matrices (*shape, m) with eigenvalues in about [1.3, 2.7]."""
    m = shape[-1]
    r = rng.normal(size=shape + (m,))
    return 2.0 * np.eye(m) + (r + np.swapaxes(r, -1, -2)) / (4.0 * np.sqrt(m))


def duplicate_point_set(seed):
    """Six 2-D points with point 3 equal to point 1: the SE Gram matrix at
    l = 1 passes Cholesky and meets an exactly zero pivot in LU for seeds
    0 and 7."""
    pts = np.random.default_rng(seed).normal(size=(4, 6, 2))[2]
    pts[3] = pts[1]
    return pts


class TestGpqWeights:
    def test_ut_weight_recovery(self):
        pts = ut_points(2, 1.0).points
        rule = gpq_weights(make_ut_kernel(2, 3), pts, jitter=0.0)
        np.testing.assert_allclose(rule.weights, [1 / 3, 1 / 6, 1 / 6, 1 / 6, 1 / 6],
                                   atol=1e-10)

    def test_se_large_length_scale_approaches_ut_weights(self):
        # n=1, kappa=2: UT weights are (2/3, 1/6, 1/6)
        pts = ut_points(1, 2.0).points
        rule = gpq_weights(SquaredExponentialKernel(1.0, 1e4), pts, jitter=0.0)
        np.testing.assert_allclose(rule.weights, [2 / 3, 1 / 6, 1 / 6], atol=1e-3)

    def test_se_large_length_scale_kappa1(self):
        pts = ut_points(1, 1.0).points
        rule = gpq_weights(SquaredExponentialKernel(1.0, 1e4), pts, jitter=0.0)
        np.testing.assert_allclose(rule.weights, [1 / 2, 1 / 4, 1 / 4], atol=1e-3)

    def test_gh_weight_recovery(self):
        classical = gauss_hermite_points(1, 3)
        rule = gpq_weights(make_gh_kernel(1, 3), classical.points, jitter=0.0)
        np.testing.assert_allclose(rule.weights, classical.weights, atol=1e-10)

    def test_residual_invariant(self):
        rng = np.random.default_rng(17)
        kernel = SquaredExponentialKernel(1.0, 1.5)
        for _ in range(5):
            pts = UnitPointSet(rng.normal(size=(6, 2)), "random")
            rule = gpq_weights(kernel, pts, jitter=0.0)
            gram = kernel.gram(pts.points)
            q = kernel.mean_embedding(pts.points)
            residual = np.abs(gram @ rule.weights - q).max()
            assert residual <= 1e-9 * np.abs(q).max()

    def test_singular_gram_advises_jitter(self):
        pts = UnitPointSet(np.zeros((2, 1)), "coincident")
        with pytest.raises(NumericalError, match="jitter"):
            gpq_weights(make_ut_kernel(1, 3), pts, jitter=0.0)
        rule = gpq_weights(make_ut_kernel(1, 3), pts, jitter=1e-8)
        assert np.all(np.isfinite(rule.weights))

    def test_singular_gram_names_the_minimum_eigenvalue(self):
        pts = UnitPointSet(np.zeros((2, 1)), "coincident")
        with pytest.raises(NumericalError,
                           match=r"^quadrature weight system not positive definite "
                                 r"\(min eigenvalue .*\); numerically singular"):
            gpq_weights(make_ut_kernel(1, 3), pts, jitter=0.0)

    def test_flat_path_matches_high_precision_oracle(self):
        import mpmath as mp

        mp.mp.dps = 50
        pts = ut_points(1, 1.0).points
        for ell in (10.0, 1e2, 1e3, 1e4):
            rule = gpq_weights(SquaredExponentialKernel(1.0, ell), pts, jitter=0.0)
            ell_mp = mp.mpf(ell)
            coords = [mp.mpf(p) for p in pts.points[:, 0]]
            gram = mp.matrix(3, 3)
            for i in range(3):
                for j in range(3):
                    gram[i, j] = mp.e ** (-((coords[i] - coords[j]) ** 2)
                                          / (2 * ell_mp**2))
            emb = mp.matrix([
                mp.sqrt(ell_mp**2 / (1 + ell_mp**2))
                * mp.e ** (-(c**2) / (2 * (1 + ell_mp**2)))
                for c in coords
            ])
            oracle = mp.lu_solve(gram, emb)
            err = max(abs(float(oracle[i]) - rule.weights[i]) for i in range(3))
            assert err < 1e-7

    def test_negative_weights_allowed(self):
        # tight SE kernel on clustered points produces some negative weights
        pts = UnitPointSet(np.array([[0.0], [0.1], [1.8]]), "clustered")
        rule = gpq_weights(SquaredExponentialKernel(1.0, 0.4), pts, jitter=0.0)
        assert np.all(np.isfinite(rule.weights))


class TestCholeskySolve:
    @pytest.mark.parametrize("m,batch", [(1, ()), (1, (3,)), (128, ()), (128, (3,)),
                                         (129, ()), (129, (3,)), (300, ()), (300, (2,)),
                                         (2000, ())])
    @pytest.mark.parametrize("columns,spd", [(None, False), (3, False), (3, True),
                                             (1, False), (1, True)],
                             ids=["None", "3", "spd-solve", "1", "spd-solve-1"])
    def test_matches_linalg_solve(self, m, batch, columns, spd):
        rng = np.random.default_rng(m)
        matrices = well_conditioned_spd(rng, *batch, m)
        rhs = rng.normal(size=(m,) if columns is None else batch + (m, columns))
        if spd:  # the stack as (B, m, m) with rhs (B, m, k)
            x = _spd_solve(matrices.reshape(-1, m, m), rhs.reshape(-1, m, columns),
                           "system").reshape(rhs.shape)
        else:
            x = _cholesky_solve(matrices, np.linalg.cholesky(matrices), rhs)
        expected = np.linalg.solve(matrices, rhs)
        assert x.shape == expected.shape
        if m <= 128:
            assert np.array_equal(x, expected)
        else:
            b = rhs if columns is not None else np.broadcast_to(rhs, batch + (m,))[..., None]
            xs = x if columns is not None else x[..., None]
            assert np.abs(matrices @ xs - b).max() <= 1e-12 * np.abs(b).max()
            np.testing.assert_allclose(x, expected, rtol=1e-12, atol=1e-12)

    def test_one_unknown_divides_as_lapack_does(self):
        # LAPACK solves a 1x1 system with one right-hand side by a division,
        # so the quotient matches np.linalg.solve bit for bit; with more
        # columns OpenBLAS multiplies by the reciprocal instead
        rng = np.random.default_rng(11)
        a = 10.0 ** rng.uniform(-100, 100, size=(10**5, 1, 1))
        b = rng.normal(size=a.shape) * 10.0 ** rng.uniform(-100, 100, size=a.shape)
        assert np.array_equal(_cholesky_solve(a, np.sqrt(a), b), np.linalg.solve(a, b))
        vector = b[0, 0]  # (1,), broadcast over the stack
        assert np.array_equal(_cholesky_solve(a, np.sqrt(a), vector), np.linalg.solve(a, vector))
        for matrix, vector in zip(a[:1000], b[:1000, 0]):
            assert np.array_equal(_cholesky_solve(matrix, np.sqrt(matrix), vector),
                                  np.linalg.solve(matrix, vector))
        wide = rng.normal(size=(10**5, 1, 3))
        assert np.array_equal(_cholesky_solve(a, np.sqrt(a), wide), np.linalg.solve(a, wide))

    def test_non_positive_definite_member_of_a_large_batch(self):
        rng = np.random.default_rng(3)
        stack = well_conditioned_spd(rng, 3, 300)
        rhs = rng.normal(size=(3, 300))
        x_good, solved, failure = _spd_solve_members(stack, rhs, "big system", "")
        assert solved.all() and failure is None
        broken = stack.copy()
        broken[1] -= 3.0 * np.eye(300)
        x, solved, failure = _spd_solve_members(broken, rhs, "big system", "")
        assert solved.tolist() == [True, False, True]
        assert np.isnan(x[1]).all()
        assert np.array_equal(x[[0, 2]], x_good[[0, 2]])
        message = (r"^big system not positive definite for batch member 1 "
                   r"\(min eigenvalue -\d\.\d{3}e[-+]\d+\)$")
        with pytest.raises(NumericalError, match=message):
            raise failure()
        with pytest.raises(NumericalError, match=message):
            _spd_solve(broken, rhs[..., None], "big system")

    @pytest.mark.parametrize("seed", [0, 7])
    def test_zero_pivot_names_the_weight_system(self, seed):
        pts = UnitPointSet(duplicate_point_set(seed), "duplicate")
        with pytest.raises(NumericalError,
                           match=r"^quadrature weight system has an exactly zero pivot "
                                 r"after passing the Cholesky check; numerically "
                                 r"singular, raise the jitter to regularize$"):
            gpq_weights(SquaredExponentialKernel(1.0, 1.0), pts)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_zero_pivot_names_the_batch_member(self, seed):
        kernel = SquaredExponentialKernel(1.0, 1.0)
        good = np.random.default_rng(1).normal(size=(6, 2))
        grams = kernel.gram(np.stack([good, duplicate_point_set(seed)]))
        message = (r"^some system has an exactly zero pivot for batch member 1 "
                   r"after passing the Cholesky check; numerically singular")
        with pytest.raises(NumericalError, match=message):
            _spd_solve(grams, np.ones((2, 6, 1)), "some system")
        x, solved, failure = _spd_solve_members(grams, np.ones((2, 6)), "some system", "")
        assert solved.tolist() == [True, False]
        assert np.array_equal(x[0], np.linalg.solve(grams[0], np.ones(6)))
        with pytest.raises(NumericalError, match=message):
            raise failure()


class TestNumericalError:
    def test_is_an_exported_lin_alg_error(self):
        assert issubclass(NumericalError, np.linalg.LinAlgError)
        assert gpquad.NumericalError is NumericalError

    def test_numpy_shape_error_is_not_numerical(self):
        with pytest.raises(np.linalg.LinAlgError) as info:
            np.linalg.cholesky(np.ones((2, 3)))
        assert not isinstance(info.value, NumericalError)


class TestGpqVariance:
    def test_ut_kernel_on_ut_points_is_zero(self):
        pts = ut_points(2, 1.0).points
        assert gpq_variance(make_ut_kernel(2, 3), pts, 0.0) <= 1e-8

    def test_gh_kernel_on_gh_points_is_zero(self):
        pts = gauss_hermite_points(2, 2).points
        assert gpq_variance(make_gh_kernel(2, 2), pts, 0.0) <= 1e-8

    def test_single_point_closed_form(self):
        pts = UnitPointSet(np.zeros((1, 1)), "single")
        got = gpq_variance(SquaredExponentialKernel(1.0, 1.0), pts, 0.0)
        assert got == pytest.approx(np.sqrt(1 / 3) - 0.5, abs=1e-9)

    def test_monotone_under_point_addition(self):
        rng = np.random.default_rng(31)
        kernel = SquaredExponentialKernel(1.0, 1.0)
        pts = rng.normal(size=(6, 2))
        previous = np.inf
        for count in range(1, 7):
            var = gpq_variance(kernel, UnitPointSet(pts[:count], "nested"), 0.0)
            assert var <= previous + 1e-10
            previous = var


class TestApplyRule:
    """A rule applied to an integrand: the mean of its transform."""

    def test_identity_returns_mean(self):
        rule = ut_points(2, 1.0)
        m = np.array([1.5, -2.0])
        p = np.array([[2.0, 0.3], [0.3, 1.0]])
        np.testing.assert_allclose(gp_transform(rule, lambda x: x, m, p, 0.0).mean, m,
                                   atol=1e-12)

    def test_square_unit_gaussian(self):
        rule = ut_points(1, 2.0)
        got = gp_transform(rule, lambda x: x**2, np.zeros(1), np.eye(1), 0.0).mean
        assert got[0] == pytest.approx(1.0, abs=1e-12)

    def test_odd_symmetry(self):
        rule = cubature_points(2)
        got = gp_transform(rule, lambda x: x[:, 0] * x[:, 1], np.zeros(2), np.eye(2),
                           0.0).mean
        assert got[0] == pytest.approx(0.0, abs=1e-13)

    def test_non_finite_integrand_reports_point(self):
        rule = ut_points(1, 2.0)
        with np.errstate(divide="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match="sigma-point"):
            gp_transform(rule, lambda x: np.log(x), np.zeros(1), np.eye(1), 0.0)


class TestGpTransform:
    def test_calls_integrand_once_on_the_batch(self):
        rule = gauss_hermite_points(2, 3)
        shapes = []

        def g(x):
            shapes.append(np.shape(x))
            return x

        gp_transform(rule, g, np.ones(2), np.eye(2), np.zeros((2, 2)))
        assert shapes == [(9, 2)]

    def test_vector_of_values_is_one_output(self):
        # UT with n + kappa = 3: E[x1^2] = 1 and Var[x1^2] = 2 exactly
        rule = ut_points(2, 1.0)
        res = gp_transform(rule, lambda x: x[:, 0] ** 2, np.zeros(2), np.eye(2),
                           0.5 * np.eye(1))
        assert (res.mean.shape, res.cov.shape, res.cross_cov.shape) == ((1,), (1, 1), (2, 1))
        assert res.mean[0] == pytest.approx(1.0, abs=1e-12)
        assert res.cov[0, 0] == pytest.approx(2.5, abs=1e-12)
        np.testing.assert_allclose(res.cross_cov, 0.0, atol=1e-12)

    def test_affine_exactness(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=2)
        m = rng.normal(size=2)
        p = np.array([[1.5, 0.2], [0.2, 0.8]])
        rule = ut_points(2, 1.0)
        res = gp_transform(rule, lambda x: x @ a.T + b, m, p, np.zeros((2, 2)))
        np.testing.assert_allclose(res.mean, a @ m + b, atol=1e-10)
        np.testing.assert_allclose(res.cov, a @ p @ a.T, atol=1e-10)
        np.testing.assert_allclose(res.cross_cov, p @ a.T, atol=1e-10)

    def test_square_through_cubature(self):
        rule = cubature_points(1)
        res = gp_transform(rule, lambda x: x**2, np.zeros(1), np.eye(1),
                           np.zeros((1, 1)))
        assert res.mean[0] == pytest.approx(1.0, abs=1e-13)
        assert res.cross_cov[0, 0] == pytest.approx(0.0, abs=1e-13)

    def test_constant_function(self):
        rule = ut_points(2, 1.0)
        noise = np.array([[0.7]])
        res = gp_transform(rule, lambda x: np.full(len(x), 4.2), np.zeros(2),
                           np.eye(2), noise)
        assert res.mean[0] == pytest.approx(4.2)
        np.testing.assert_allclose(res.cov, noise, atol=1e-14)
        np.testing.assert_allclose(res.cross_cov, 0.0, atol=1e-14)

    def test_scalar_noise_is_a_multiple_of_the_identity(self):
        res = gp_transform(cubature_points(2), lambda x: x, np.zeros(2), np.eye(2), 0.1)
        assert res.cov[0, 1] == 0.0 and res.cov[1, 0] == 0.0
        np.testing.assert_allclose(np.diag(res.cov), [1.1, 1.1], rtol=0, atol=1e-15)

    def test_output_cov_dominates_noise_for_nonneg_weights(self):
        rule = gauss_hermite_points(2, 3)
        noise = 0.3 * np.eye(1)
        res = gp_transform(rule, lambda x: np.sin(x[:, 0]) + x[:, 1] ** 2,
                           np.zeros(2), np.eye(2), noise)
        eigs = np.linalg.eigvalsh(res.cov - noise)
        assert eigs.min() >= -1e-9

    def test_affine_invariance_affine_integrand(self):
        # exact rules make the moments invariant to invertible input maps
        rng = np.random.default_rng(9)
        a = rng.normal(size=(2, 2)) + 2 * np.eye(2)
        b = rng.normal(size=2)
        g_mat = rng.normal(size=(2, 2))
        m = rng.normal(size=2)
        p = np.array([[1.2, 0.4], [0.4, 2.0]])
        q = 0.1 * np.eye(2)
        rule = ut_points(2, 1.0)

        def g(x):
            return x @ g_mat.T + 1.0

        direct = gp_transform(rule, g, m, p, q)
        a_inv = np.linalg.inv(a)
        mapped = gp_transform(rule, lambda z: g(z @ a.T + b),
                              a_inv @ (m - b), a_inv @ p @ a_inv.T, q)
        np.testing.assert_allclose(mapped.mean, direct.mean, atol=1e-9)
        np.testing.assert_allclose(mapped.cov, direct.cov, atol=1e-9)
        np.testing.assert_allclose(mapped.cross_cov, a_inv @ direct.cross_cov,
                                   atol=1e-9)

    def test_affine_invariance_quadratic_integrand(self):
        rng = np.random.default_rng(21)
        a = rng.normal(size=(2, 2)) + 2 * np.eye(2)
        m = rng.normal(size=2)
        p = np.array([[1.0, -0.2], [-0.2, 0.6]])
        rule = gauss_hermite_points(2, 3)

        def g(x):
            return np.column_stack([x[:, 0] ** 2 - x[:, 1], x[:, 0] * x[:, 1]])

        direct = gp_transform(rule, g, m, p, np.zeros((2, 2)))
        a_inv = np.linalg.inv(a)
        mapped = gp_transform(rule, lambda z: g(z @ a.T),
                              a_inv @ m, a_inv @ p @ a_inv.T, np.zeros((2, 2)))
        np.testing.assert_allclose(mapped.mean, direct.mean, atol=1e-9)
        np.testing.assert_allclose(mapped.cov, direct.cov, atol=1e-9)

    @pytest.mark.parametrize("n,order", [(1, 2), (1, 3), (2, 2), (2, 3)])
    def test_gh_gpq_per_dimension_exactness(self, n, order):
        import math

        rule = gpq_weights(make_gh_kernel(n, order),
                           gauss_hermite_points(n, order).points, 0.0)
        for ix in enumerate_indices(n, per_dim_degree=2 * order - 1):
            vals = np.prod(rule.points.points ** np.asarray(ix), axis=1)
            expected = 1.0
            for e in ix:
                expected *= (math.prod(range(e - 1, 0, -2)) if e and e % 2 == 0
                             else (0.0 if e % 2 else 1.0))
            assert rule.weights @ vals == pytest.approx(expected, abs=1e-8)


class TestPositiveDefinite:
    EDGES = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e308, -1e308,
             1e-308, -1e-308]

    @staticmethod
    def member_by_member(stack):
        factors = np.full_like(stack, np.nan)
        passed = np.ones(len(stack), dtype=bool)
        for index, matrix in enumerate(stack):
            try:
                factors[index] = np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError:
                passed[index] = False
        return factors, passed

    def test_one_by_one_stack_matches_lapack_on_edge_values(self):
        rng = np.random.default_rng(5)
        spread = rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-150, 150, 2000)
        stack = np.concatenate([self.EDGES, spread])[:, None, None]
        expected, expected_passed = self.member_by_member(stack)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            factors, passed = _positive_definite(stack)
        assert np.array_equal(factors, expected, equal_nan=True)
        assert np.array_equal(passed, expected_passed)
        # 0.0, -0.0, the negatives and -inf fail; NaN and +inf pass
        assert passed[:len(self.EDGES)].tolist() == [False, False, True, True, False, True,
                                                     False, True, False, True, False]

    def test_one_by_one_stack_that_passes_builds_no_mask(self):
        stack = np.array([2.0, np.nan, np.inf, 5e-324, 1e308])[:, None, None]
        factors, passed = _positive_definite(stack)
        assert passed is None
        assert np.array_equal(factors, np.linalg.cholesky(stack), equal_nan=True)


class TestMatrixSqrt:
    def test_identity(self):
        res = matrix_sqrt(np.eye(3))
        np.testing.assert_allclose(res.factor, np.eye(3))
        assert not res.spd_fallback

    def test_diagonal(self):
        res = matrix_sqrt(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(res.factor, np.diag([2.0, 3.0]))

    def test_hand_cholesky(self):
        res = matrix_sqrt(np.array([[2.0, 1.0], [1.0, 2.0]]))
        expected = np.array([[np.sqrt(2), 0.0], [1 / np.sqrt(2), np.sqrt(1.5)]])
        np.testing.assert_allclose(res.factor, expected, atol=1e-14)

    def test_psd_fallback_flagged(self):
        singular = np.array([[1.0, 1.0], [1.0, 1.0]])
        res = matrix_sqrt(singular)
        assert res.spd_fallback
        np.testing.assert_allclose(res.factor @ res.factor.T, singular, atol=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="asymmetric"):
            matrix_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_asymmetry_within_tolerance_accepted(self):
        # not exactly symmetric, so the tolerance check decides
        res = matrix_sqrt(np.array([[2.0, 1.0 + 1e-12], [1.0, 2.0]]))
        np.testing.assert_array_equal(res.factor,
                                      matrix_sqrt(np.array([[2.0, 1.0], [1.0, 2.0]])).factor)

    def test_nan_reaches_cholesky_not_symmetry_error(self):
        res = matrix_sqrt(np.array([[1.0, np.nan], [np.nan, 1.0]]))
        assert np.isnan(res.factor[1]).all()

    def test_indefinite_rejected(self):
        with pytest.raises(NumericalError, match="not PSD"):
            matrix_sqrt(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_one_by_one_zero_member_falls_back(self):
        stack = np.array([4.0, 0.0, 9.0])[:, None, None]
        res = matrix_sqrt(stack)
        assert res.spd_fallback == 1
        assert res.factor.ravel().tolist() == [2.0, 0.0, 3.0]

    def test_one_by_one_negative_member_rejected(self):
        stack = np.array([4.0, 1.0, -2.0])[:, None, None]
        with pytest.raises(NumericalError, match=r"^matrix is not PSD for batch member 2: "
                                                 r"smallest eigenvalue -2\.000e\+00$"):
            matrix_sqrt(stack)


class TestGpRegressionMean:
    def setup_method(self):
        self.kernel = SquaredExponentialKernel(1.0, 1.0)
        rng = np.random.default_rng(2)
        self.train = rng.normal(size=(3, 1))
        self.obs = rng.normal(size=3)

    def test_noise_free_interpolation(self):
        for x, o in zip(self.train, self.obs):
            got = gp_regression_mean(self.kernel, self.train, self.obs, 0.0, x)
            assert got == pytest.approx(o, abs=1e-8)

    def test_zero_observations(self):
        got = gp_regression_mean(self.kernel, self.train, np.zeros(3), 0.0,
                                 np.array([0.37]))
        assert got == 0.0

    def test_jitter_is_added_to_the_gram_diagonal(self):
        # one training point: k(x, x) o / (k(x, x) + jitter) = 1 / (1 + 1)
        got = gp_regression_mean(self.kernel, np.zeros((1, 1)), np.ones(1), 1.0,
                                 np.zeros(1))
        assert got == 0.5

    def test_integral_of_posterior_mean_equals_weighted_sum(self):
        from gpquad.hermite import gh_roots_weights

        rule = gpq_weights(self.kernel,
                           UnitPointSet(self.train, "train"), jitter=0.0)
        # order 24: the posterior mean is a sum of shifted Gaussian bumps,
        # which order 10 only integrates to ~1e-5
        roots, weights = gh_roots_weights(24)
        integral = sum(
            w * gp_regression_mean(self.kernel, self.train, self.obs, 0.0,
                                   np.array([r]))
            for r, w in zip(roots, weights)
        )
        assert integral == pytest.approx(float(rule.weights @ self.obs), abs=1e-6)


class TestRuleEquivalence:
    def test_zero_variance_iff_classical_weights(self):
        # polynomial kernel + matching points: variance ~ 0 AND classical weights
        classical = ut_points(3, 2.0)
        rule = gpq_weights(make_ut_kernel(3, 3), classical.points, 0.0)
        assert rule.posterior_variance <= 1e-8
        np.testing.assert_allclose(rule.weights, classical.weights, atol=1e-8)

        gh = gauss_hermite_points(2, 3)
        rule_gh = gpq_weights(make_gh_kernel(2, 3), gh.points, 0.0)
        assert rule_gh.posterior_variance <= 1e-8
        np.testing.assert_allclose(rule_gh.weights, gh.weights, atol=1e-8)
