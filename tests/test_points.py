import math
import warnings
from itertools import product

import numpy as np
import pytest
from scipy.special import erf, ndtri

import gpquad
from gpquad import quadrature
from gpquad.hermite import enumerate_indices
from gpquad.kernels import (
    HermitePolynomialKernel,
    SquaredExponentialKernel,
    make_ut_kernel,
)
from gpquad.points import (
    OptimizerSettings,
    QuadratureRule,
    UnitPointSet,
    cubature_points,
    gauss_hermite_points,
    hammersley_points,
    optimize_points,
    radical_inverse,
    random_points,
    symmetric5_points,
    ut_points,
)
from gpquad.quadrature import (
    FLAT_INCREMENT_THRESHOLD,
    NumericalError,
    gpq_variance,
    gpq_variance_and_gradient,
    gpq_weights,
)


def gaussian_monomial_moment(exponents) -> float:
    out = 1.0
    for a in exponents:
        if a % 2 == 1:
            return 0.0
        out *= math.prod(range(a - 1, 0, -2)) if a else 1.0
    return out


def rule_monomial(rule, exponents) -> float:
    pts = rule.points.points
    vals = np.prod(pts ** np.asarray(exponents), axis=1)
    return float(rule.weights @ vals)


class TestUnscentedPoints:
    def test_canonical_n2(self):
        rule = ut_points(2, 1.0)
        r = np.sqrt(3)
        expected = np.array([[0, 0], [r, 0], [0, r], [-r, 0], [0, -r]], dtype=float)
        np.testing.assert_allclose(rule.points.points, expected)
        np.testing.assert_allclose(rule.weights, [1 / 3, 1 / 6, 1 / 6, 1 / 6, 1 / 6])

    def test_weights_n1_kappa2(self):
        # W0 = kappa/(n+kappa) = 2/3, others 1/(2(n+kappa)) = 1/6
        rule = ut_points(1, 2.0)
        np.testing.assert_allclose(rule.weights, [2 / 3, 1 / 6, 1 / 6])

    def test_weights_n1_kappa1(self):
        rule = ut_points(1, 1.0)
        np.testing.assert_allclose(rule.weights, [1 / 2, 1 / 4, 1 / 4])

    def test_zero_kappa_n3(self):
        rule = ut_points(3, 0.0)
        assert rule.weights[0] == 0.0
        radii = np.linalg.norm(rule.points.points[1:], axis=1)
        np.testing.assert_allclose(radii, np.sqrt(3))

    def test_invalid_kappa(self):
        with pytest.raises(ValueError):
            ut_points(2, -2.0)

    def test_weights_sum_to_one(self):
        for n, kappa in product((1, 2, 3), (0.5, 1.0, 2.0)):
            assert ut_points(n, kappa).weights.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
    def test_degree_three_exactness(self, n, kappa):
        rule = ut_points(n, kappa)
        for ix in enumerate_indices(n, total_degree=3):
            got = rule_monomial(rule, ix)
            assert got == pytest.approx(
                gaussian_monomial_moment(ix), abs=1e-12)

    def test_sign_flip_closure(self):
        pts = ut_points(3, 1.0).points.points
        rows = {tuple(r) for r in pts.round(12)}
        for row in pts:
            if np.any(row):
                assert tuple((-row).round(12)) in rows


class TestCubaturePoints:
    def test_n1(self):
        rule = cubature_points(1)
        np.testing.assert_allclose(sorted(rule.points.points[:, 0]), [-1, 1])
        np.testing.assert_allclose(rule.weights, [0.5, 0.5])

    def test_n2(self):
        rule = cubature_points(2)
        np.testing.assert_allclose(np.linalg.norm(rule.points.points, axis=1),
                                   np.sqrt(2))
        np.testing.assert_allclose(rule.weights, 0.25)

    def test_second_moment(self):
        assert rule_monomial(cubature_points(2), (2, 0)) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_degree_three_exactness_and_fourth_moment_bias(self, n):
        rule = cubature_points(n)
        for ix in enumerate_indices(n, total_degree=3):
            got = rule_monomial(rule, ix)
            assert got == pytest.approx(
                gaussian_monomial_moment(ix), abs=1e-12)
        # the known 3rd-order bias: rule gives E[x_i^4] = n instead of 3
        assert rule_monomial(rule, (4,) + (0,) * (n - 1)) == pytest.approx(float(n))

    def test_sign_flip_closure(self):
        pts = cubature_points(2).points.points
        rows = {tuple(r) for r in pts.round(12)}
        for row in pts:
            assert tuple((-row).round(12)) in rows


class TestSymmetric5Points:
    def test_counts(self):
        assert symmetric5_points(2).points.count == 9
        assert symmetric5_points(3).points.count == 19

    def test_fourth_moment(self):
        assert rule_monomial(symmetric5_points(2), (4, 0)) == pytest.approx(3.0)

    def test_mixed_moment(self):
        assert rule_monomial(symmetric5_points(2), (2, 2)) == pytest.approx(1.0)

    def test_rejects_n1(self):
        with pytest.raises(ValueError):
            symmetric5_points(1)

    @pytest.mark.parametrize("n", [2, 3])
    def test_degree_five_exactness(self, n):
        rule = symmetric5_points(n)
        for ix in enumerate_indices(n, total_degree=5):
            got = rule_monomial(rule, ix)
            assert got == pytest.approx(
                gaussian_monomial_moment(ix), abs=1e-10)

    def test_weights_sum_to_one(self):
        assert symmetric5_points(3).weights.sum() == pytest.approx(1.0, abs=1e-12)


class TestGaussHermitePoints:
    def test_n1_order3(self):
        rule = gauss_hermite_points(1, 3)
        np.testing.assert_allclose(rule.points.points[:, 0],
                                   [-np.sqrt(3), 0, np.sqrt(3)], atol=1e-14)
        np.testing.assert_allclose(rule.weights, [1 / 6, 2 / 3, 1 / 6], atol=1e-14)

    def test_n2_order3_center_weight(self):
        rule = gauss_hermite_points(2, 3)
        assert rule.points.count == 9
        center = np.flatnonzero(~rule.points.points.any(axis=1))
        assert rule.weights[center[0]] == pytest.approx(4 / 9)

    def test_n2_order2(self):
        rule = gauss_hermite_points(2, 2)
        assert rule.points.count == 4
        np.testing.assert_allclose(np.abs(rule.points.points), 1.0, atol=1e-14)
        np.testing.assert_allclose(rule.weights, 0.25, atol=1e-14)

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            gauss_hermite_points(10, 50)

    @pytest.mark.parametrize("n,order", [(1, 2), (1, 4), (2, 2), (2, 3), (2, 4)])
    def test_per_dimension_exactness(self, n, order):
        rule = gauss_hermite_points(n, order)
        for ix in enumerate_indices(n, per_dim_degree=2 * order - 1):
            got = rule_monomial(rule, ix)
            assert got == pytest.approx(
                gaussian_monomial_moment(ix), abs=1e-9)


class TestHammersleyPoints:
    def test_n1_two_points(self):
        pts = hammersley_points(1, 2).points
        np.testing.assert_allclose(pts[:, 0], [-0.6744897501960817, 0.6744897501960817],
                                   atol=1e-9)

    def test_van_der_corput_second_coordinate(self):
        assert [radical_inverse(i, 2) for i in range(4)] == [0.0, 0.5, 0.25, 0.75]
        pts = hammersley_points(2, 4).points
        clamped = np.clip([0.0, 0.5, 0.25, 0.75], 1e-12, 1 - 1e-12)
        np.testing.assert_allclose(pts[:, 1], ndtri(clamped), atol=1e-12)

    def test_single_point_at_origin(self):
        np.testing.assert_allclose(hammersley_points(1, 1).points, [[0.0]], atol=1e-15)

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 16), (3, 7), (5, 40)])
    def test_all_finite(self, n, count):
        assert np.all(np.isfinite(hammersley_points(n, count).points))


class TestRandomPoints:
    def test_determinism(self):
        a = random_points(2, 50, seed=123).points
        b = random_points(2, 50, seed=123).points
        assert np.array_equal(a, b)

    def test_clt_mean(self):
        pts = random_points(2, 10**5, seed=1).points
        assert np.abs(pts.mean(axis=0)).max() < 0.02

    def test_clt_covariance(self):
        pts = random_points(2, 10**5, seed=2).points
        cov = np.cov(pts.T)
        assert np.abs(cov - np.eye(2)).max() < 0.03


class TestInverseNormalCdf:
    def test_against_bisection_oracle(self):
        # bisection on Phi(x) = (1 + erf(x/sqrt(2)))/2
        def bisect(u, lo=-10.0, hi=10.0):
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if 0.5 * (1 + erf(mid / np.sqrt(2))) < u:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        for u in np.linspace(0.01, 0.99, 25):
            assert abs(ndtri(u) - bisect(u)) < 1e-9


class TestOptimizePoints:
    def setup_method(self):
        self.kernel = SquaredExponentialKernel(1.0, 1.0)

    def test_single_point_minimizer_is_origin(self):
        result = optimize_points(self.kernel, 1, 1, seed=0)
        # grid-search oracle over [-3, 3]
        grid = np.linspace(-3, 3, 601)
        variances = [
            gpq_variance(self.kernel, UnitPointSet(np.array([[g]]), "grid"))
            for g in grid
        ]
        oracle = grid[int(np.argmin(variances))]
        assert abs(oracle) < 1e-8  # symmetric unimodal objective
        assert abs(result.points[0, 0]) < 1e-3

    def test_never_worse_than_first_initialization(self):
        settings = OptimizerSettings(restarts=1)
        seed = 42
        init = np.random.default_rng(seed).standard_normal(5 * 2).reshape(5, 2)
        init_var = gpq_variance(self.kernel, UnitPointSet(init, "init"))
        result = optimize_points(self.kernel, 2, 5, seed=seed, settings=settings)
        assert gpq_variance(self.kernel, result) <= init_var + 1e-15

    def test_beats_hammersley_five_points(self):
        result = optimize_points(self.kernel, 2, 5, seed=0)
        opt_var = gpq_variance(self.kernel, result)
        ham_var = gpq_variance(self.kernel, hammersley_points(2, 5))
        assert opt_var <= ham_var

    def test_hermite_kernel_reaches_zero_variance(self):
        # 5 points can resolve the degree-3 Hermite class in 2-D, as the
        # unscented set does
        kernel = make_ut_kernel(2, 3)
        result = optimize_points(kernel, 2, 5, seed=0)
        assert gpq_variance(kernel, result) <= 1e-10
        assert gpq_variance(kernel, hammersley_points(2, 5)) > 1e-3

    def test_one_weight_solve_per_evaluation(self, monkeypatch):
        counts = {"solves": 0, "derivatives": 0}
        solve = quadrature._solve_weight_system

        def counting_solve(*args):
            counts["solves"] += 1
            return solve(*args)

        class CountingKernel(SquaredExponentialKernel):
            def derivatives(self, *args):
                counts["derivatives"] += 1
                return super().derivatives(*args)

        def no_variance_call(*args):
            raise AssertionError("the optimizer solved for the variance alone")

        monkeypatch.setattr(quadrature, "_solve_weight_system", counting_solve)
        monkeypatch.setattr(quadrature, "gpq_variance", no_variance_call)
        optimize_points(CountingKernel(1.0, 1.0), 2, 5, seed=0,
                        settings=OptimizerSettings(restarts=2))
        # every evaluation returns a gradient from its own single solve
        assert counts["derivatives"] > 2
        assert counts["solves"] == counts["derivatives"]

    # the points optimize_points returns at SE(1, 1), seed 0, as float.hex,
    # and the batched evaluations it takes to reach them
    PINNED_PATHS = {
        (1, 3): (145, ["0x1.979097545ed4cp-27", "-0x1.4ba9b0086a0f8p+0",
                       "0x1.4ba9b05811aa2p+0"]),
        (1, 7): (226, ["0x1.6a81960c4765ap+1", "-0x1.be87e475084a8p-1",
                       "-0x1.c9aca0ba4c908p+0", "0x1.76359acd7d8d0p-20",
                       "0x1.c9accfe2c7c20p+0", "-0x1.6a817e6fb8c55p+1",
                       "0x1.be8840f03a99ep-1"]),
        (1, 10): (333, ["-0x1.0020fe01699bcp-2", "0x1.e5012489a255cp+1",
                        "-0x1.c4dfc5eb12427p+0", "0x1.ff2db5234c9dbp+0",
                        "0x1.6994693762034p+1", "0x1.f0c5047feb538p-2",
                        "-0x1.4d4a78af8f8c6p+1", "-0x1.c9b286146b8e5p+1",
                        "-0x1.fd6f1f9cb5aefp-1", "0x1.3a3f909e06e6ap+0"]),
        (2, 10): (236, ["0x1.00a87fe1fb9b0p-3", "-0x1.880dba38a4fdep-1",
                        "0x1.699aec8eddce5p+0", "-0x1.64820ae6336bcp-1",
                        "-0x1.b108abe953760p-1", "0x1.54140745795a4p+0",
                        "0x1.b85122faf5d07p+0", "0x1.6e06c04a76042p-1",
                        "0x1.820843073ab5ap-2", "-0x1.03420845e1b3bp+1",
                        "0x1.9b5a7c80586bap-2", "0x1.cacda59af1e05p-2",
                        "-0x1.06f7b9f336a81p+1", "0x1.3c6e689b7e4e7p-3",
                        "-0x1.27cda15c969bep+0", "-0x1.49ec9ef9ff8c6p+0",
                        "-0x1.8cb4bd8fe30eep-1", "0x1.527408450df95p-5",
                        "0x1.0c1934ba8b7e2p-1", "0x1.c99b3f33c6447p+0"]),
    }

    @pytest.mark.parametrize("n, count", PINNED_PATHS)
    def test_pinned_path(self, monkeypatch, n, count):
        # a faster optimizer must take the same path to the same bits: as
        # many batched evaluations (one weight solve each) and the same points
        solves = 0
        solve = quadrature._solve_weight_system

        def counting_solve(*args):
            nonlocal solves
            solves += 1
            return solve(*args)

        monkeypatch.setattr(quadrature, "_solve_weight_system", counting_solve)
        result = optimize_points(self.kernel, n, count, seed=0)
        evaluations, hexes = self.PINNED_PATHS[n, count]
        assert solves == evaluations
        expected = np.array([float.fromhex(h) for h in hexes]).reshape(count, n)
        assert np.array_equal(result.points, expected)

    def test_coordinate_cap(self):
        with pytest.raises(ValueError, match="cap"):
            optimize_points(self.kernel, 10, 500, seed=0)

    def test_without_iterations_the_best_start_wins(self):
        # one standard_normal(count * n) draw per restart, in order
        rng = np.random.default_rng(7)
        starts = [rng.standard_normal(5 * 2).reshape(5, 2) for _ in range(4)]
        variances = [gpq_variance(self.kernel, UnitPointSet(s, "start")) for s in starts]
        result = optimize_points(self.kernel, 2, 5, seed=7,
                                 settings=OptimizerSettings(restarts=4, max_iterations=0))
        assert np.array_equal(result.points, starts[int(np.argmin(variances))])

    def test_ties_go_to_the_lowest_restart(self):
        # the constant kernel integrates exactly at any single point, so
        # every start has variance 0 and a zero gradient
        kernel = HermitePolynomialKernel([[0]])
        result = optimize_points(kernel, 1, 1, seed=3, settings=OptimizerSettings(restarts=3))
        first = np.random.default_rng(3).standard_normal(1)
        assert np.array_equal(result.points, first.reshape(1, 1))

    def test_all_starts_failing_raises(self):
        # two points make the constant kernel's Gram matrix singular
        with pytest.raises(NumericalError, match=r"all 3 optimizer restarts .*\(3 failed"):
            optimize_points(HermitePolynomialKernel([[0]]), 1, 2, seed=0,
                            settings=OptimizerSettings(restarts=3))

    def test_far_points_raise_no_overflow_warning(self):
        # the flat solve's embedding increments overflow far from the
        # origin; they are computed only for a set that is flat
        kernel = SquaredExponentialKernel(1.0, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rule = gpq_weights(kernel, UnitPointSet(np.array([[0.0, 0.0], [100.0, 0.0]]), "far"))
            optimize_points(kernel, 2, 5, seed=1)
        assert np.all(np.isfinite(rule.weights))


def _scipy_bfgs_variance(kernel, n, count, seed, restarts=5):
    """The lowest variance scipy's BFGS reaches from ``optimize_points``'
    starts, each restart kept no worse than its start."""
    from scipy.optimize import minimize  # the oracle's only; gpquad never imports it

    def objective(flat):
        try:
            v, g = gpq_variance_and_gradient(kernel, UnitPointSet(flat.reshape(count, n), "o"))
        except (np.linalg.LinAlgError, ValueError):
            return np.inf, np.zeros_like(flat)
        if not (np.isfinite(v) and np.all(np.isfinite(g))):
            return np.inf, np.zeros_like(flat)
        return v, g.ravel()

    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(restarts):
        start = rng.standard_normal(count * n)
        f_start = objective(start)[0]
        if np.isfinite(f_start):
            result = minimize(objective, start, jac=True, method="BFGS",
                              options={"maxiter": 400, "gtol": 1e-10})
            best = min(best, result.fun if result.fun <= f_start else f_start)
    return best


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n, count", [(1, 3), (1, 7), (1, 10), (2, 5), (2, 10), (3, 7)])
@pytest.mark.parametrize("length_scale", [0.5, 1.0, 3.0])
def test_optimizer_reaches_scipy_bfgs_variance(length_scale, n, count, seed):
    kernel = SquaredExponentialKernel(1.0, length_scale)
    variance = gpq_variance(kernel, optimize_points(kernel, n, count, seed))
    assert variance <= _scipy_bfgs_variance(kernel, n, count, seed) + 1e-12


def _lowered_ut_kernel(shift):
    """``make_ut_kernel(2, 3)`` with its double integral lowered by
    ``shift``, so that the UT set, which it resolves exactly, has a
    slightly negative variance."""

    class Lowered(HermitePolynomialKernel):
        def double_integral(self, n=None):
            return super().double_integral(n) - shift

    return Lowered(make_ut_kernel(2, 3).index_set)


class TestBatchedVarianceAndGradient:
    KERNELS = {
        "se": SquaredExponentialKernel(1.0, 1.0),
        "se-deflated": SquaredExponentialKernel(1.0, 50.0),
        "ut-hermite": make_ut_kernel(2, 3),
    }

    @staticmethod
    def _single(kernel, pts):
        try:
            return gpq_variance_and_gradient(kernel, UnitPointSet(pts, "member"))
        except np.linalg.LinAlgError:
            return None

    def _assert_members(self, kernel, batch):
        variances, gradients = gpq_variance_and_gradient(kernel, batch)
        assert variances.shape == batch.shape[:-2] and gradients.shape == batch.shape
        failed = []
        for index in np.ndindex(batch.shape[:-2]):
            single = self._single(kernel, batch[index])
            if single is None:
                assert variances[index] == np.inf
                assert np.array_equal(gradients[index], np.zeros(batch.shape[-2:]))
                failed.append(index)
                continue
            assert variances[index] == pytest.approx(single[0], rel=1e-12, abs=0.0)
            np.testing.assert_allclose(gradients[index], single[1], rtol=1e-12,
                                       atol=1e-15 * np.abs(single[1]).max())
        return failed

    @pytest.mark.parametrize("name", KERNELS)
    def test_each_member_as_alone(self, name):
        kernel = self.KERNELS[name]
        batch = np.random.default_rng(4).normal(size=(2, 3, 6, 2))
        assert self._assert_members(kernel, batch) == []
        if name == "se-deflated":
            gram_inc = kernel.flat_increments(batch)
            assert (np.abs(gram_inc).max(axis=(-2, -1)) < FLAT_INCREMENT_THRESHOLD).all()

    def test_flatness_prescreen(self, monkeypatch):
        # at zero jitter only a set with min K_ij > 0.8 K_ii can be flat, so
        # only such sets get their increments computed; the exact test on
        # those decides which take the deflated solve
        line = np.linspace(-0.5, 0.5, 4)[:, None] * np.array([1.0, 0.5])
        span = np.ptp(line[:, 0]) * np.hypot(1.0, 0.5)
        # the near-flat set, one whose largest increment is just past the
        # threshold (1.0001 times the distance where |E| = 0.1), a spread set
        edge = 8.0 * np.sqrt(-2.0 * np.log1p(-FLAT_INCREMENT_THRESHOLD)) / span
        batch = np.stack([2.0 * line, 1.0001 * edge * line, 20.0 * line])
        kernel = SquaredExponentialKernel(1.0, 8.0)
        largest = np.abs(kernel.flat_increments(batch)).max(axis=(-2, -1))
        assert largest[0] < FLAT_INCREMENT_THRESHOLD < largest[1] < 0.2 < largest[2]

        increments, deflated = [], []

        class Recording(SquaredExponentialKernel):
            def flat_increments(self, points):
                increments.append(points.copy())
                return super().flat_increments(points)

        solve = quadrature._flat_deflated_solve

        def recording_solve(gram_inc, *args):
            deflated.append(gram_inc.copy())
            return solve(gram_inc, *args)

        monkeypatch.setattr(quadrature, "_flat_deflated_solve", recording_solve)
        recording = Recording(1.0, 8.0)
        variances, _ = gpq_variance_and_gradient(recording, batch)
        # the spread set never reaches the exact test; the set past the
        # threshold does, and only the near-flat set is deflated
        assert len(increments) == 1 and np.array_equal(increments[0], batch[:2])
        assert len(deflated) == 1
        assert np.array_equal(deflated[0], kernel.flat_increments(batch[:1]))
        assert np.all(np.isfinite(variances))
        assert self._assert_members(kernel, batch) == []

    @pytest.mark.parametrize("name", KERNELS)
    def test_duplicate_points_fail_as_alone(self, name):
        # rounding decides how a set with a duplicate point fails alone: at
        # the Cholesky check, in an exactly singular LU solve, at the clamp,
        # or not at all; in a batch it reads +inf exactly where it fails
        # alone, and the other members are untouched
        failures = 0
        for seed in range(8):
            batch = np.random.default_rng(seed).normal(size=(4, 6, 2))
            batch[2, 3] = batch[2, 1]
            failed = self._assert_members(self.KERNELS[name], batch)
            assert failed in ([], [(2,)])
            failures += len(failed)
        assert failures >= 6

    def test_clamp_reads_zero_or_infinity(self):
        ut = ut_points(2, 3.0).points.points
        batch = np.stack([ut, np.random.default_rng(6).normal(size=(5, 2))])
        # inside the clamp the variance is 0 with a zero gradient
        kernel = _lowered_ut_kernel(1e-12)
        variances, gradients = gpq_variance_and_gradient(kernel, batch)
        assert variances[0] == 0.0 and not gradients[0].any()
        assert self._assert_members(kernel, batch) == []
        # below it the member fails, alone and in the batch
        kernel = _lowered_ut_kernel(1e-8)
        with pytest.raises(NumericalError, match="clamp"):
            gpq_variance_and_gradient(kernel, UnitPointSet(ut, "ut"))
        assert self._assert_members(kernel, batch) == [(0,)]


def central_difference_gradient(kernel, pts, jitter, h):
    grad = np.empty_like(pts)
    for idx in np.ndindex(pts.shape):
        up, down = pts.copy(), pts.copy()
        up[idx] += h
        down[idx] -= h
        grad[idx] = (gpq_variance(kernel, UnitPointSet(up, "up"), jitter)
                     - gpq_variance(kernel, UnitPointSet(down, "down"), jitter)) / (2 * h)
    return grad


def _hermite_with_coefficients():
    indices = tuple(enumerate_indices(2, total_degree=3))
    factor = np.random.default_rng(8).normal(size=(len(indices),) * 2)
    return HermitePolynomialKernel(indices, factor @ factor.T / len(indices)
                                   + np.eye(len(indices)))


class TestVarianceGradient:
    @pytest.mark.parametrize("kernel, shape, jitter", [
        (SquaredExponentialKernel(1.0, 1.0), (6, 2), 0.0),
        (SquaredExponentialKernel(1.3, 0.8), (5, 3), 1e-3),
        (make_ut_kernel(2, 3), (6, 2), 0.0),
        (_hermite_with_coefficients(), (6, 2), 0.0),
    ], ids=["se", "se-jitter", "hermite-identity", "hermite-coefficients"])
    def test_matches_central_differences(self, kernel, shape, jitter):
        pts = np.random.default_rng(3).normal(size=shape)
        variance, grad = gpq_variance_and_gradient(kernel, UnitPointSet(pts, "x"), jitter)
        assert variance == gpq_variance(kernel, UnitPointSet(pts, "x"), jitter)
        assert variance > 0.0 and grad.shape == shape
        fd = central_difference_gradient(kernel, pts, jitter, 1e-6)
        np.testing.assert_allclose(grad, fd, atol=1e-8)

    def test_flat_kernel_takes_the_deflated_solve(self):
        kernel = SquaredExponentialKernel(1.0, 8.0)
        pts = np.linspace(-1.0, 1.0, 4)[:, None]
        gram_inc = kernel.flat_increments(pts)[0]
        assert np.abs(gram_inc).max() < FLAT_INCREMENT_THRESHOLD
        variance, grad = gpq_variance_and_gradient(kernel, UnitPointSet(pts, "x"))
        assert 0.0 < variance < 1e-7
        # V ~ 1e-8 carries absolute rounding noise ~1e-16, so the difference
        # step is large and the comparison relative to the gradient's scale
        fd = central_difference_gradient(kernel, pts, 0.0, 1e-3)
        np.testing.assert_allclose(grad, fd, atol=1e-3 * np.abs(grad).max())

    def test_zero_variance_has_zero_gradient(self):
        # the 2-D unscented set resolves the degree-3 Hermite kernel exactly,
        # so its variance is 0 up to rounding of either sign; lowering the
        # double integral by 1e-12 puts it near -1e-12, inside the clamp
        class LoweredKernel(HermitePolynomialKernel):
            def double_integral(self, n=None):
                return super().double_integral(n) - 1e-12

        kernel = LoweredKernel(make_ut_kernel(2, 3).index_set)
        pts = ut_points(2, 3.0).points
        system = quadrature._solve_weight_system(kernel, pts.points, 0.0)
        raw = kernel.double_integral(2) - system.q_dot_w
        assert -1e-9 < raw < -1e-13
        variance, grad = gpq_variance_and_gradient(kernel, pts)
        assert variance == 0.0
        assert np.array_equal(grad, np.zeros((5, 2)))

    def test_singular_gram_raises(self):
        pts = UnitPointSet(np.array([[0.5], [0.5], [1.0]]), "repeated")
        with pytest.raises(NumericalError, match="singular"):
            gpq_variance_and_gradient(SquaredExponentialKernel(1.0, 1.0), pts)


class TestClassicalGenerators:
    @pytest.mark.parametrize("make", [
        lambda: ut_points(3, 2.0),
        lambda: cubature_points(3),
        lambda: symmetric5_points(3),
        lambda: gauss_hermite_points(3, 3),
    ])
    def test_return_rules_without_posterior_variance(self, make):
        rule = make()
        assert isinstance(rule, QuadratureRule)
        assert rule.posterior_variance is None
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_one_rule_type_everywhere(self):
        assert quadrature.QuadratureRule is QuadratureRule
        assert gpquad.QuadratureRule is QuadratureRule


class TestUnitPointSetValidation:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            UnitPointSet(np.array([[np.nan, 0.0]]), "bad")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            UnitPointSet(np.empty((0, 2)), "bad")
