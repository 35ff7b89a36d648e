import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import gpquad
from gpquad.hermite import enumerate_indices
from gpquad.kernels import (
    HermitePolynomialKernel,
    SquaredExponentialKernel,
    make_gh_kernel,
    make_ut_kernel,
)
from gpquad.points import (
    cubature_points,
    gauss_hermite_points,
    hammersley_points,
    ut_points,
)
from gpquad.filtering import GaussianState, gp_transform
from gpquad.quadrature import (
    _BLOCK,
    NumericalError,
    UnitPointSet,
    _cholesky_solve,
    _positive_definite,
    _spd_solve,
    _spd_solve_members,
    _solve_weight_system,
    _WeightSystem,
    gp_regression_mean,
    gpq_variance,
    gpq_variance_and_gradient,
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
            pts = UnitPointSet(rng.normal(size=(6, 2)))
            rule = gpq_weights(kernel, pts, jitter=0.0)
            gram = kernel.gram(pts.points)
            q = kernel.mean_embedding(pts.points)
            residual = np.abs(gram @ rule.weights - q).max()
            assert residual <= 1e-9 * np.abs(q).max()

    def test_singular_gram_advises_jitter(self):
        pts = UnitPointSet(np.zeros((2, 1)))
        with pytest.raises(NumericalError, match="jitter"):
            gpq_weights(make_ut_kernel(1, 3), pts, jitter=0.0)
        rule = gpq_weights(make_ut_kernel(1, 3), pts, jitter=1e-8)
        assert np.all(np.isfinite(rule.weights))

    def test_singular_gram_names_the_minimum_eigenvalue(self):
        pts = UnitPointSet(np.zeros((2, 1)))
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
        pts = UnitPointSet(np.array([[0.0], [0.1], [1.8]]))
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
        x_good, failure = _spd_solve_members(stack, rhs, "big system", "")
        assert np.isfinite(x_good).all() and failure is None
        broken = stack.copy()
        broken[1] -= 3.0 * np.eye(300)
        x, failure = _spd_solve_members(broken, rhs, "big system", "")
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
        pts = UnitPointSet(duplicate_point_set(seed))
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
        x, failure = _spd_solve_members(grams, np.ones((2, 6)), "some system", "")
        assert np.isnan(x[1]).all()
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
        pts = UnitPointSet(np.zeros((1, 1)))
        got = gpq_variance(SquaredExponentialKernel(1.0, 1.0), pts, 0.0)
        assert got == pytest.approx(np.sqrt(1 / 3) - 0.5, abs=1e-9)

    def test_monotone_under_point_addition(self):
        rng = np.random.default_rng(31)
        kernel = SquaredExponentialKernel(1.0, 1.0)
        pts = rng.normal(size=(6, 2))
        previous = np.inf
        for count in range(1, 7):
            var = gpq_variance(kernel, UnitPointSet(pts[:count]), 0.0)
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


class TestBlockedCholesky:
    """Above ``_BLOCK`` unknowns ``_positive_definite`` factors by blocks."""

    @pytest.mark.parametrize("m", [129, 256, 257, 300, 2000])
    @pytest.mark.parametrize("count", [1, 3])
    def test_matches_numpy_cholesky(self, m, count):
        if m == 2000 and count == 3:
            count = 2
        stack = well_conditioned_spd(np.random.default_rng(m + count), count, m)
        factors, passed = _positive_definite(stack)
        expected = np.linalg.cholesky(stack)
        assert passed is None
        assert np.abs(factors - expected).max() <= 1e-12 * np.abs(expected).max()
        assert not np.triu(factors, 1).any()

    @pytest.mark.parametrize("entry", [0, -1], ids=["first-block", "last-block"])
    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_failing_member_fails_alone(self, entry, scale):
        # at 1e200 a failed member that went on computing would overflow
        stack = well_conditioned_spd(np.random.default_rng(8), 3, 300)
        stack[1] *= scale
        stack[1, entry, entry] = -5.0 * scale  # indefinite from that block on
        factors, passed = _positive_definite(stack)
        assert passed.tolist() == [True, False, True]
        assert np.isnan(factors[1]).all()
        for index in (0, 2):
            solo, solo_passed = _positive_definite(stack[index:index + 1])
            assert solo_passed is None
            assert np.array_equal(factors[index], solo[0])
        smallest = np.linalg.eigvalsh(stack[1]).min()
        with pytest.raises(NumericalError) as raised:
            _spd_solve(stack, np.ones((3, 300)), "big system", "; advice")
        assert str(raised.value) == (f"big system not positive definite for batch member 1 "
                                     f"(min eigenvalue {smallest:.3e}); advice")

    def test_matrix_sqrt_falls_back_on_a_singular_member(self):
        stack = well_conditioned_spd(np.random.default_rng(9), 3, _BLOCK + 72)
        stack[2, -1, :] = stack[2, :, -1] = 0.0  # PSD with one zero eigenvalue
        res = matrix_sqrt(stack)
        assert res.spd_fallback == 1
        np.testing.assert_allclose(res.factor[2] @ res.factor[2].T, stack[2], atol=1e-12)
        np.testing.assert_allclose(res.factor[:2], np.linalg.cholesky(stack[:2]),
                                   rtol=1e-12, atol=1e-12)

    def test_in_place_factors_match_the_new_array(self):
        stack = well_conditioned_spd(np.random.default_rng(12), 2, 300)
        expected, _ = _positive_definite(stack)
        own = stack.copy()
        factors, passed = _positive_definite(own, overwrite=True)
        assert passed is None and factors is own
        assert np.array_equal(np.tril(factors), expected)

    def test_callers_that_do_not_grant_overwriting_keep_their_input(self):
        rng = np.random.default_rng(13)
        stack = well_conditioned_spd(rng, 3, _BLOCK + 72)
        before = stack.copy()
        matrix_sqrt(stack)
        assert np.array_equal(stack, before)
        _spd_solve(stack, rng.normal(size=(3, _BLOCK + 72)), "big system")
        assert np.array_equal(stack, before)
        stack[1, 0, 0] = -5.0  # a failing member is not overwritten either
        before = stack.copy()
        with pytest.raises(NumericalError):
            _spd_solve(stack, np.ones((3, _BLOCK + 72)), "big system")
        assert np.array_equal(stack, before)

    def test_failing_member_factored_in_place_keeps_the_message(self):
        stack = well_conditioned_spd(np.random.default_rng(14), 3, 300)
        stack[1, -1, -1] = -5.0
        expected, expected_failure = _spd_solve_members(
            stack, np.ones((3, 300)), "big system", "; advice")
        message = str(expected_failure())  # built before the stack is overwritten
        original = stack.copy()
        x, failure = _spd_solve_members(stack, np.ones((3, 300)), "big system", "; advice",
                                        lambda index: original[index])
        assert np.array_equal(x, expected, equal_nan=True)
        assert np.isnan(stack[1]).all()  # the stack now holds the factors
        assert str(failure()) == message

    def test_singular_weight_system_keeps_the_message(self):
        # the factors overwrite the Gram matrix; the error rebuilds it to
        # name its minimum eigenvalue
        pts = hammersley_points(2, 299).points
        duplicated = UnitPointSet(np.vstack([pts, pts[:1]]))
        with pytest.raises(NumericalError) as raised:
            gpq_weights(SquaredExponentialKernel(1.0, 0.5), duplicated, 0.0)
        assert str(raised.value) == (
            "quadrature weight system not positive definite (min eigenvalue -1.974e-16); "
            "numerically singular, raise the jitter to regularize")

    def test_singular_regression_system_names_the_original_matrix(self):
        kernel = SquaredExponentialKernel(1.0, 1.0)
        train = np.random.default_rng(15).normal(size=(300, 2))
        train[-1] = train[0]
        smallest = np.linalg.eigvalsh(kernel.gram(train)).min()
        with pytest.raises(NumericalError) as raised:
            gp_regression_mean(kernel, train, np.ones(300), 0.0, np.zeros(2))
        assert str(raised.value) == (
            f"regression system not positive definite (min eigenvalue {smallest:.3e}); "
            "numerically singular, raise the jitter to regularize")

    def test_large_regression_mean_solves_the_jittered_system(self):
        kernel = SquaredExponentialKernel(1.0, 1.0)
        rng = np.random.default_rng(16)
        train, obs, query = rng.normal(size=(300, 2)), rng.normal(size=300), rng.normal(size=2)
        gram = kernel.gram(train) + 1e-2 * np.eye(300)
        expected = kernel.eval(query, train)[0] @ np.linalg.solve(gram, obs)
        got = gp_regression_mean(kernel, train, obs, 1e-2, query)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_gradient_keeps_its_gram_matrix(self):
        # the weight solve of a gradient does not overwrite the Gram
        # matrix the derivative reads: the same bits as from a fresh one
        kernel, jitter = SquaredExponentialKernel(1.0, 0.5), 1e-8
        pts = hammersley_points(2, 200)
        variance, gradient = gpq_variance_and_gradient(kernel, pts, jitter)
        rule = gpq_weights(kernel, pts, jitter)
        gram = kernel.gram(pts.points)
        gram[np.diag_indices_from(gram)] += jitter
        embedding = kernel.mean_embedding(pts.points)
        w = rule.weights
        expected = 2.0 * w[:, None] * kernel.weighted_derivative(pts.points, gram, embedding, w)
        assert variance == rule.posterior_variance
        assert np.array_equal(gradient, expected)

    @staticmethod
    def peak_rise_bytes(n, count, call):
        """How far ``call`` raises VmHWM, in a fresh interpreter, on
        ``count`` n-D Hammersley points ``pts``.  VmHWM is the child's own
        peak, where ru_maxrss would start from the peak of the process
        that forked it."""
        script = (
            "from gpquad import SquaredExponentialKernel, gpq_weights, hammersley_points\n"
            "from gpquad.quadrature import gpq_variance_and_gradient\n"
            "def peak_kib():\n"
            "    with open('/proc/self/status') as status:\n"
            "        return next(int(line.split()[1]) for line in status\n"
            "                    if line.startswith('VmHWM:'))\n"
            f"pts = hammersley_points({n}, {count})\n"
            "before = peak_kib()\n"
            f"{call}\n"
            "print(peak_kib() - before)\n")
        src = os.path.dirname(os.path.dirname(gpquad.__file__))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout) * 1024

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_large_weight_solve_holds_one_matrix(self):
        # the Gram matrix, built in row blocks and factored in place, and
        # blocks of a few rows; np.linalg.cholesky holds three N x N arrays
        count = 2000
        rise = self.peak_rise_bytes(
            2, count, "gpq_weights(SquaredExponentialKernel(1, 0.5), pts, 1e-6)")
        assert rise < 1.5 * count**2 * 8

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_large_gradient_builds_no_derivative_array(self):
        # the Gram matrix the derivative reads, its factors during the
        # solve and then one N x N buffer per dimension in turn; an
        # (N, N, n) derivative array would add n N^2 doubles
        count = 1000
        rise = self.peak_rise_bytes(
            5, count,
            "gpq_variance_and_gradient(SquaredExponentialKernel(1, 0.5), pts, 1e-6)")
        assert rise < 3 * count**2 * 8


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


# powers of two scale every floating-point operation exactly, so each scale
# is the same computation in other units and must get the same verdict
SCALES = pytest.mark.parametrize("c", [2.0**-40, 1.0, 2.0**40], ids=["2^-40", "1", "2^40"])


class TestScaleFreeVerdicts:
    @SCALES
    def test_indefinite_matrix_raises_at_every_scale(self, c):
        # the floor max(||A||, 1) let it pass with a fallback at 2^-40
        with pytest.raises(NumericalError, match=r"^matrix is not PSD: smallest eigenvalue -"):
            matrix_sqrt(c * np.diag([1.0, -0.5]))

    @SCALES
    @pytest.mark.parametrize("matrix", [np.ones((2, 2)), np.diag([1.0, -1e-11])],
                             ids=["singular", "within-tolerance"])
    def test_fallback_count_is_the_same_at_every_scale(self, c, matrix):
        res = matrix_sqrt(c * matrix)
        assert res.spd_fallback == 1
        np.testing.assert_allclose(res.factor @ res.factor.T, c * np.maximum(matrix, 0.0),
                                   rtol=0, atol=1e-12 * c)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 3)])
    def test_all_zero_matrix_passes_with_one_fallback(self, shape):
        res = matrix_sqrt(np.zeros(shape))
        assert res.spd_fallback == 1
        assert not res.factor.any()

    @SCALES
    def test_asymmetry_verdict_is_the_same_at_every_scale(self, c):
        # GaussianState and matrix_sqrt share the test: 1e-6 relative is
        # rejected, 1e-10 accepted; GaussianState accepted 1e-6 at 2^-40
        asymmetric, nearly = (c * (np.eye(2) + eps * np.eye(2, k=1)) for eps in (1e-6, 1e-10))
        message = "^matrix is asymmetric beyond 1e-9 relative tolerance$"
        with pytest.raises(ValueError, match=message):
            GaussianState(np.zeros(2), asymmetric)
        with pytest.raises(ValueError, match=message):
            matrix_sqrt(asymmetric)
        GaussianState(np.zeros(2), nearly)
        assert matrix_sqrt(nearly).spd_fallback == 0

    @SCALES
    def test_ut_kernel_variance_scales_with_the_kernel(self, c):
        indices = enumerate_indices(2, total_degree=3)
        kernel = HermitePolynomialKernel(indices, c * np.eye(len(indices)))
        pts = ut_points(2, 1.0).points
        # the computed V is c times a rounding error (-2^-52 with OpenBLAS),
        # so it reads 0 at every scale; the absolute -1e-9 clamp raised at 2^40
        unit = _solve_weight_system(HermitePolynomialKernel(indices, np.eye(len(indices))),
                                    pts.points, 0.0).variance
        assert _solve_weight_system(kernel, pts.points, 0.0).variance == c * unit
        assert gpq_weights(kernel, pts).posterior_variance == 0.0
        variance, gradient = gpq_variance_and_gradient(kernel, pts.points[None])
        assert variance.tolist() == [0.0] and not gradient.any()

    @SCALES
    def test_variance_clamp_is_relative_to_the_prior_variance(self, c):
        def system(variance):
            return _WeightSystem(np.ones(1), None, np.ones(1), c * np.asarray(variance), c, None)

        assert system(-0.5e-9).checked_variance() == 0.0
        with pytest.raises(NumericalError, match=r"^posterior variance -\S+ below the clamp, "
                                                 r"-1e-9 of the prior variance "):
            system(-2e-9).checked_variance()
        assert system([-0.5e-9, -2e-9, 0.0]).below_clamp().tolist() == [False, True, False]


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
                           UnitPointSet(self.train), jitter=0.0)
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
