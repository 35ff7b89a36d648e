import math
import re
import tracemalloc
from itertools import product

import numpy as np
import pytest
from scipy.integrate import quad

from gpquad.hermite import enumerate_indices, gh_roots_weights, hermite_design_matrix
from gpquad.kernels import (
    HermitePolynomialKernel,
    SquaredExponentialKernel,
    _squared_distances,
    make_gh_kernel,
    make_ut_kernel,
)
from gpquad.points import ut_points


def tensor_rule(n, order):
    roots, w1 = gh_roots_weights(order)
    pts = np.array(list(product(roots, repeat=n)))
    weights = np.prod(np.array(list(product(w1, repeat=n))), axis=1)
    return pts, weights


def quad_mean_embedding(kernel, point, n, order=20):
    """Gauss-Hermite tensor quadrature oracle for the mean embedding."""
    pts, weights = tensor_rule(n, order)
    return float(weights @ kernel.eval(pts, point[None, :])[:, 0])


class TestSquaredExponential:
    def test_diagonal_is_output_scale_squared(self):
        k = SquaredExponentialKernel(1.0, 2.0)
        x = np.array([0.3, -1.0])
        assert k.eval(x, x)[0, 0] == pytest.approx(1.0)

    def test_closed_form_eval(self):
        k = SquaredExponentialKernel(1.5, 0.7)
        x, y = np.array([1.0, 2.0]), np.array([-0.5, 0.25])
        d2 = ((x - y) ** 2).sum()
        assert k.eval(x, y)[0, 0] == pytest.approx(1.5**2 * np.exp(-d2 / (2 * 0.7**2)))

    def test_embedding_huge_length_scale_tends_to_s2(self):
        k = SquaredExponentialKernel(1.0, 1e8)
        emb = k.mean_embedding(np.array([[2.0, 2.0]]))
        assert emb[0] == pytest.approx(1.0, abs=1e-6)

    def test_embedding_unit_scales_at_origin(self):
        k = SquaredExponentialKernel(1.0, 1.0)
        assert k.mean_embedding(np.zeros((1, 1)))[0] == pytest.approx(
            math.sqrt(0.5), abs=1e-12)

    def test_embedding_against_1d_quadrature_oracle(self):
        k = SquaredExponentialKernel(1.0, 1.0)
        oracle, _ = quad(
            lambda x: np.exp(-x**2 / 2) * np.exp(-x**2 / 2) / np.sqrt(2 * np.pi),
            -np.inf, np.inf)
        assert k.mean_embedding(np.zeros((1, 1)))[0] == pytest.approx(oracle, abs=1e-10)

    def test_double_integral_1d(self):
        k = SquaredExponentialKernel(1.0, 1.0)
        assert k.double_integral(1) == pytest.approx(math.sqrt(1 / 3), abs=1e-14)

    def test_double_integral_tensor_oracle(self):
        k = SquaredExponentialKernel(1.0, 1.0)
        pts, weights = tensor_rule(2, 20)  # pairs (x, x') for n=1
        vals = np.exp(-((pts[:, 0] - pts[:, 1]) ** 2) / 2)
        assert k.double_integral(1) == pytest.approx(float(weights @ vals), abs=1e-8)

    def test_double_integral_monte_carlo_oracle(self):
        k = SquaredExponentialKernel(2.0, 1.0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((10**7, 2))
        y = rng.standard_normal((10**7, 2))
        mc = np.mean(4.0 * np.exp(-((x - y) ** 2).sum(axis=1) / 2.0))
        assert k.double_integral(2) == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert mc == pytest.approx(4.0 / 3.0, abs=1e-3)

    def test_dimension_mismatch(self):
        k = SquaredExponentialKernel()
        with pytest.raises(ValueError):
            k.eval(np.zeros((1, 2)), np.zeros((1, 3)))

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            SquaredExponentialKernel(0.0, 1.0)
        with pytest.raises(ValueError):
            SquaredExponentialKernel(1.0, -2.0)


class TestSquaredDistances:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_rounds_as_the_broadcast_form(self, n):
        rng = np.random.default_rng(n)
        # the last two fill more than one row block of _BLOCK rows
        for x, y in [(rng.normal(size=(3, 40, n)), rng.normal(size=(3, 30, n))),
                     (rng.normal(size=(1, n)), rng.normal(size=(40, n))),
                     (rng.normal(size=(2, 1, n)), rng.normal(size=(2, 25, n))),
                     (rng.normal(size=(2, 300, n)), rng.normal(size=(2, 70, n))),
                     (rng.normal(size=(257, n)), rng.normal(size=(3, 20, n)))]:
            broadcast = ((x[..., :, None, :] - y[..., None, :, :]) ** 2).sum(axis=-1)
            d2 = _squared_distances(x, y)
            assert d2.shape == broadcast.shape
            assert np.array_equal(d2, broadcast)

    def test_kernel_and_increments_per_block_round_as_on_the_whole(self):
        pts = np.random.default_rng(8).normal(size=(2, 300, 3))
        kernel = SquaredExponentialKernel(1.3, 0.7)
        exponent = _squared_distances(pts, pts) / (-2.0 * 0.7**2)
        assert np.array_equal(kernel.gram(pts), 1.3**2 * np.exp(exponent))
        assert np.array_equal(kernel.flat_increments(pts), np.expm1(exponent))

    @pytest.mark.parametrize("n", [2, 5])
    def test_gram_peak_memory_stays_near_one_matrix(self, n):
        # the distances and a buffer of _BLOCK rows: no second (N, N) array
        count = 500
        pts = np.random.default_rng(0).normal(size=(count, n))
        kernel = SquaredExponentialKernel(1.0, 1.0)
        tracemalloc.start()
        try:
            kernel.gram(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * count**2 * 8


class TestHermitePolynomialKernel:
    def setup_method(self):
        self.kernel = make_ut_kernel(2, 3)

    def test_worked_diagonal_entry(self):
        value = self.kernel.eval(np.zeros(2), np.zeros(2))[0, 0]
        assert value == pytest.approx(1.5, abs=1e-12)

    def test_worked_off_diagonal_entry(self):
        # origin against a UT point of radius sqrt(3) (kappa = 1, n = 2)
        value = self.kernel.eval(np.zeros(2), np.array([np.sqrt(3), 0.0]))[0, 0]
        assert value == pytest.approx(0.75, abs=1e-12)

    def test_embedding_is_ones_on_ut_points(self):
        pts = ut_points(2, 1.0).points.points
        np.testing.assert_allclose(self.kernel.mean_embedding(pts),
                                   np.ones(5), atol=1e-12)

    def test_double_integral_identity_coefficients(self):
        assert self.kernel.double_integral(2) == 1.0

    def test_term_by_term_oracle(self):
        # independent evaluation: explicit sum over H_I(x) H_I(y) / (I!)^2
        from gpquad.hermite import hermite_multi

        rng = np.random.default_rng(3)
        x, y = rng.normal(size=2), rng.normal(size=2)
        expected = sum(
            hermite_multi(ix, x) * hermite_multi(ix, y) / math.prod(map(math.factorial, ix)) ** 2
            for ix in self.kernel.index_set
        )
        assert self.kernel.eval(x, y)[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_non_identity_coefficients(self):
        indices = tuple(enumerate_indices(1, total_degree=2))
        lam = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 3.0]])
        k = HermitePolynomialKernel(indices, lam)
        x, y = np.array([0.7]), np.array([-0.2])
        assert k.eval(x, y)[0, 0] == pytest.approx(k.eval(y, x)[0, 0], rel=1e-14)
        # zero-index row drives the Gaussian integrals
        assert k.double_integral(1) == pytest.approx(2.0)

    def test_rejects_asymmetric_coefficients(self):
        indices = tuple(enumerate_indices(1, total_degree=1))
        with pytest.raises(ValueError):
            HermitePolynomialKernel(indices, np.array([[1.0, 0.2], [0.1, 1.0]]))

    @pytest.mark.parametrize("coefficients,message", [
        # constructed silently before, then failed as a singular weight system
        (np.diag([1.0, -1.0, 1.0, 1.0]), "not PSD: smallest eigenvalue -1.000e+00"),
        # inside np.allclose's default rtol of 1e-5, beyond matrix_sqrt's 1e-9
        (np.eye(4) + 1e-7 * np.eye(4, k=1), "asymmetric beyond 1e-9 relative tolerance"),
    ], ids=["not-psd", "asymmetric-1e-7"])
    def test_coefficients_are_checked_as_a_covariance(self, coefficients, message):
        indices = enumerate_indices(1, total_degree=3)
        expected = "^" + re.escape(f"coefficient matrix: matrix is {message}")
        with pytest.raises(ValueError, match=expected) as info:
            HermitePolynomialKernel(indices, coefficients)
        assert not isinstance(info.value, np.linalg.LinAlgError)

    @pytest.mark.parametrize("index_set,message", [
        ([[0, 0], [1, -1]], "non-negative integers"),
        ([[0, 0], [0.5, 1]], "non-negative integers"),
        ([[0, 0], [1, 0], [1, 0]], "duplicates"),
        ([0, 1, 2], r"\(m, n\) array"),
        (np.zeros((2, 2, 1), dtype=int), r"\(m, n\) array"),
        ([[1, 0], [0, 1]], "zero index"),
    ], ids=["negative", "non-integer", "duplicate", "1-d", "3-d", "no-zero-index"])
    def test_rejects_invalid_index_sets_at_construction(self, index_set, message):
        with pytest.raises(ValueError, match=message):
            HermitePolynomialKernel(index_set)

    def test_stores_the_index_set_read_only(self):
        indices = np.array([[0, 0], [1, 0], [0, 1]])
        kernel = HermitePolynomialKernel(indices)
        indices[1, 0] = 2
        assert kernel.index_set.tolist() == [[0, 0], [1, 0], [0, 1]]
        with pytest.raises(ValueError):
            kernel.index_set[1, 0] = 2

    def test_zero_index_need_not_come_first(self):
        indices = enumerate_indices(2, total_degree=2)
        order = np.roll(np.arange(len(indices)), 2)   # the zero index moves to row 2
        a = np.random.default_rng(4).normal(size=(len(indices),) * 2)
        lam = a @ a.T
        pts = np.random.default_rng(5).normal(size=(5, 2))
        graded = HermitePolynomialKernel(indices, lam)
        moved = HermitePolynomialKernel(indices[order], lam[np.ix_(order, order)])
        np.testing.assert_allclose(moved.mean_embedding(pts), graded.mean_embedding(pts),
                                   rtol=1e-12)
        assert moved.double_integral(2) == pytest.approx(graded.double_integral(2), rel=1e-14)
        np.testing.assert_array_equal(
            HermitePolynomialKernel(indices[order]).mean_embedding(pts), np.ones(5))

    @pytest.mark.parametrize("n,order", [(1, 100), (2, 50)])
    def test_factorial_beyond_float_range_is_rejected(self, n, order):
        # 199! and 99!^2 both exceed the float maximum, where 1 / I! would read 0
        with pytest.raises(ValueError, match="beyond the float range; reduce the order"):
            make_gh_kernel(n, order)


class TestKernelFactories:
    def test_ut_kernel_index_counts(self):
        assert len(make_ut_kernel(2, 3).index_set) == 10
        assert [tuple(ix) for ix in make_ut_kernel(1, 3).index_set] == [
            (0,), (1,), (2,), (3,)]

    def test_ut_kernel_rejects_even_order(self):
        with pytest.raises(ValueError):
            make_ut_kernel(2, 4)

    def test_gh_kernel_index_counts(self):
        assert len(make_gh_kernel(1, 2).index_set) == 4
        assert len(make_gh_kernel(2, 2).index_set) == 16
        assert len(make_gh_kernel(2, 3).index_set) == 36

    def test_gh_kernel_cap(self):
        with pytest.raises(ValueError, match="cap"):
            make_gh_kernel(6, 6)


def feature_values(kernel, x, y, coefficients=None):
    """The Gram matrix at x, ``eval(x, y)`` and the embedding at x, built
    from the N x m feature matrices H_I / I! as the feature path does."""
    inv_factorial = 1.0 / np.array([math.prod(map(math.factorial, ix))
                                    for ix in kernel.index_set.tolist()])
    fx = hermite_design_matrix(kernel.index_set, x) * inv_factorial
    fy = hermite_design_matrix(kernel.index_set, y) * inv_factorial
    zero = int(np.flatnonzero(~kernel.index_set.any(axis=1))[0])
    weighted = fx if coefficients is None else fx @ coefficients
    embedding = fx[..., zero] if coefficients is None else fx @ coefficients[zero]
    gram = weighted @ np.swapaxes(fx, -1, -2)
    return (0.5 * (gram + np.swapaxes(gram, -1, -2)), weighted @ np.swapaxes(fy, -1, -2),
            embedding)


def feature_weighted_derivative(kernel, x, w):
    """``weighted_derivative`` at x for weights w from the full (..., N, N, n)
    derivative array of the feature matrices, d phi_I / dx_d = phi_{I - e_d},
    zero where I_d = 0; identity coefficients."""
    def features(indices):
        inv_factorial = 1.0 / np.array([math.prod(map(math.factorial, ix))
                                        for ix in indices.tolist()])
        return hermite_design_matrix(indices, x) * inv_factorial

    fx = features(kernel.index_set)
    d_features = []
    for d in range(kernel.dimension):
        present = kernel.index_set[:, d] > 0
        lowered = kernel.index_set.copy()
        lowered[:, d] -= present
        d_features.append(features(lowered) * present)
    d_features = np.stack(d_features)
    zero = int(np.flatnonzero(~kernel.index_set.any(axis=1))[0])
    d_gram = np.moveaxis(d_features @ np.swapaxes(fx, -1, -2), 0, -1)
    d_embedding = np.moveaxis(d_features[..., zero], 0, -1)
    return np.einsum("...ikd,...k->...id", d_gram, w) - d_embedding


def central_difference_term(kernel, pts, w, h=1e-6):
    """sum_k w_k d/dx_i K(x_i, x_k) - d/dx_i q(x_i) by central differences,
    x_k held fixed, the diagonal included."""
    dim = pts.shape[-1]
    term = np.empty(pts.shape)
    for d in range(dim):
        step = h * np.eye(dim)[d]
        d_gram = (kernel.eval(pts + step, pts) - kernel.eval(pts - step, pts)) / (2 * h)
        d_embedding = (kernel.mean_embedding(pts + step)
                       - kernel.mean_embedding(pts - step)) / (2 * h)
        term[:, d] = d_gram @ w - d_embedding
    return term


GH_GRIDS = [(n, order) for n in range(1, 6) for order in range(1, 4)]


class TestFullGridProduct:
    """A full grid {0..D}^n with identity coefficients is a product over
    dimensions; every other Hermite kernel keeps the feature path's bits."""

    @staticmethod
    def batch_points(n, seed):
        # leading batch axes (2, 3), sets of 7 and 5 points at GH-like radii
        rng = np.random.default_rng(seed)
        return 1.5 * rng.normal(size=(2, 3, 7, n)), 1.5 * rng.normal(size=(2, 3, 5, n))

    @pytest.mark.parametrize("n,order", GH_GRIDS)
    def test_matches_the_feature_matrix(self, n, order):
        kernel = make_gh_kernel(n, order)
        assert len(kernel.index_set) == (2 * order) ** n
        x, y = self.batch_points(n, 10 * n + order)
        gram, cross, embedding = feature_values(kernel, x, y)
        got_gram, got_embedding = kernel.gram_and_embedding(x)
        for got, want in [(got_gram, gram), (kernel.eval(x, y), cross)]:
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert np.array_equal(got_gram, np.swapaxes(got_gram, -1, -2))
        assert np.array_equal(got_embedding, embedding)
        assert np.array_equal(kernel.mean_embedding(x), embedding)

    @pytest.mark.parametrize("n,order", [g for g in GH_GRIDS if (2 * g[1]) ** g[0] <= 1296])
    def test_explicit_coefficients_keep_the_feature_bits(self, n, order):
        indices = make_gh_kernel(n, order).index_set
        coefficients = np.diag(np.random.default_rng(order).uniform(0.5, 2.0, len(indices)))
        kernel = HermitePolynomialKernel(indices, coefficients)
        x, y = self.batch_points(n, n + order)
        gram, cross, embedding = feature_values(kernel, x, y, coefficients)
        assert np.array_equal(kernel.gram(x), gram)
        assert np.array_equal(kernel.eval(x, y), cross)
        assert np.array_equal(kernel.mean_embedding(x), embedding)

    @pytest.mark.parametrize("n,order", GH_GRIDS)
    def test_derivatives_match_the_feature_path(self, n, order):
        kernel = make_gh_kernel(n, order)
        x, _ = self.batch_points(n, 7 * n + order)
        w = np.random.default_rng(n + order).normal(size=x.shape[:-1])
        want = feature_weighted_derivative(kernel, x, w)
        got = kernel.weighted_derivative(x, *kernel.gram_and_embedding(x), w)
        assert got.shape == want.shape == x.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_grid_derivatives_match_central_differences(self):
        kernel = make_gh_kernel(3, 2)
        rng = np.random.default_rng(41)
        pts, w = rng.normal(size=(6, 3)), rng.normal(size=6)
        got = kernel.weighted_derivative(pts, *kernel.gram_and_embedding(pts), w)
        np.testing.assert_allclose(got, central_difference_term(kernel, pts, w),
                                   rtol=1e-7, atol=1e-7)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("order", [3, 5, 7, 9])
    def test_ut_kernels_keep_the_feature_bits(self, n, order):
        # in one dimension a total-degree set is a full grid too, whose one
        # table is the feature matrix itself
        kernel = make_ut_kernel(n, order)
        x, y = self.batch_points(n, n * order)
        gram, cross, embedding = feature_values(kernel, x, y)
        got_gram, got_embedding = kernel.gram_and_embedding(x)
        assert np.array_equal(got_gram, gram)
        assert np.array_equal(kernel.eval(x, y), cross)
        assert np.array_equal(got_embedding, embedding)
        # the embedding stays the feature matrix's strided zero column,
        # on which BLAS rounds the weight solve's q @ w as before
        assert got_embedding.strides == embedding.strides


ALL_KERNELS = [
    SquaredExponentialKernel(1.0, 1.0),
    SquaredExponentialKernel(0.8, 2.5),
    make_ut_kernel(2, 3),
    make_gh_kernel(2, 2),
]


class TestKernelInvariants:
    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_symmetry_on_random_pairs(self, kernel):
        rng = np.random.default_rng(11)
        dim = getattr(kernel, "dimension", 2)
        for _ in range(100):
            x, y = rng.normal(size=dim), rng.normal(size=dim)
            assert kernel.eval(x, y)[0, 0] == kernel.eval(y, x)[0, 0]

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_gram_psd_on_random_sets(self, kernel):
        rng = np.random.default_rng(23)
        dim = getattr(kernel, "dimension", 2)
        for _ in range(10):
            pts = rng.normal(size=(rng.integers(2, 9), dim))
            eigs = np.linalg.eigvalsh(kernel.gram(pts))
            assert eigs.min() >= -1e-9

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("family", ["se", "hermite"])
    def test_embedding_matches_tensor_quadrature(self, n, family):
        kernel = (SquaredExponentialKernel(1.0, 1.3) if family == "se"
                  else make_ut_kernel(n, 3))
        rng = np.random.default_rng(5)
        pts, weights = tensor_rule(n, 20)
        for _ in range(4):
            point = rng.normal(size=n)
            oracle = float(weights @ kernel.eval(pts, point[None, :])[:, 0])
            assert kernel.mean_embedding(point[None, :])[0] == pytest.approx(
                oracle, abs=1e-8)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("family", ["se", "hermite"])
    def test_double_integral_matches_quadrature_of_embedding(self, n, family):
        kernel = (SquaredExponentialKernel(1.0, 1.3) if family == "se"
                  else make_gh_kernel(n, 2))
        pts, weights = tensor_rule(n, 20)
        oracle = float(weights @ kernel.mean_embedding(pts))
        assert kernel.double_integral(n) == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("kernel", ALL_KERNELS + [HermitePolynomialKernel(
        tuple(enumerate_indices(1, total_degree=2)),
        np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 3.0]]))])
    def test_derivatives_match_central_differences(self, kernel):
        rng = np.random.default_rng(31)
        dim = getattr(kernel, "dimension", 2)
        pts, w = rng.normal(size=(4, dim)), rng.normal(size=4)
        got = kernel.weighted_derivative(pts, kernel.gram(pts), kernel.mean_embedding(pts), w)
        assert got.shape == (4, dim)
        np.testing.assert_allclose(got, central_difference_term(kernel, pts, w), atol=1e-8)
