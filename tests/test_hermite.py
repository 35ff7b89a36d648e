import math
from itertools import product

import numpy as np
import pytest
import sympy
from hypothesis import given, strategies as st
from numpy.polynomial.hermite_e import hermegauss

from gpquad.hermite import (
    MAX_GH_ORDER,
    enumerate_indices,
    gh_roots_weights,
    hermite_design_matrix,
    hermite_multi,
    hermite_uni,
)


def rodrigues_oracle(p: int):
    """Symbolic-differentiation oracle: (-1)^p e^{x^2/2} d^p/dx^p e^{-x^2/2}."""
    x = sympy.Symbol("x")
    expr = (-1) ** p * sympy.exp(x**2 / 2) * sympy.diff(sympy.exp(-(x**2) / 2), x, p)
    return sympy.Poly(sympy.expand(expr), x)


def gaussian_moment(k: int) -> float:
    """E[x^k] for x ~ N(0,1): 0 for odd k, (k-1)!! for even k."""
    if k % 2 == 1:
        return 0.0
    return float(math.prod(range(k - 1, 0, -2))) if k else 1.0


class TestHermiteUni:
    def test_degree_zero_is_one(self):
        assert hermite_uni(0, 3.7) == 1.0

    def test_h2_at_zero(self):
        assert hermite_uni(2, 0.0) == -1.0

    def test_h3_at_two(self):
        assert hermite_uni(3, 2.0) == 2.0

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            hermite_uni(-1, 0.0)

    @pytest.mark.parametrize("p", range(7))
    def test_matches_rodrigues_oracle_exactly(self, p):
        oracle = rodrigues_oracle(p)
        for x in (-2, -1, 0, 1, 2):
            assert hermite_uni(p, float(x)) == float(oracle.eval(x))

    @given(st.integers(min_value=1, max_value=12),
           st.floats(min_value=-5, max_value=5, allow_nan=False))
    def test_three_term_recurrence(self, p, x):
        lhs = hermite_uni(p + 1, x)
        rhs = x * hermite_uni(p, x) - p * hermite_uni(p - 1, x)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(-3, 3, 11)
        vec = hermite_uni(4, xs)
        np.testing.assert_allclose(vec, [hermite_uni(4, x) for x in xs])


class TestHermiteMulti:
    def test_zero_index_is_one(self):
        assert hermite_multi((0, 0), np.array([1.2, -0.4])) == 1.0

    def test_mixed_index(self):
        assert hermite_multi((2, 0), np.array([0.0, 5.0])) == -1.0
        assert hermite_multi((1, 1), np.array([2.0, 3.0])) == 6.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="incompatible"):
            hermite_multi((1, 2), np.array([1.0, 2.0, 3.0]))

    def test_negative_degree(self):
        # the design matrix's column lookup would wrap -1 round to He_0
        with pytest.raises(ValueError, match="degree must be non-negative, got -1"):
            hermite_multi((1, -1), np.array([1.0, 2.0]))

    def test_design_matrix_matches_pointwise(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(6, 3))
        indices = enumerate_indices(3, total_degree=3)
        design = hermite_design_matrix(indices, pts)
        for i, row in enumerate(pts):
            for j, ix in enumerate(indices):
                assert design[i, j] == pytest.approx(hermite_multi(ix, row), rel=1e-12)


    def test_design_matrix_is_c_ordered(self):
        # the weight solve's matmuls round differently on an F-ordered design,
        # which would move the kernels' numbers in their last bits
        pts = np.random.default_rng(8).normal(size=(6, 3))
        design = hermite_design_matrix(enumerate_indices(3, per_dim_degree=2), pts)
        assert design.flags.c_contiguous


class TestEnumerateIndices:
    def test_degree_one_simplex(self):
        got = [tuple(ix) for ix in enumerate_indices(2, total_degree=1)]
        assert got == [(0, 0), (1, 0), (0, 1)]

    def test_total_degree_count(self):
        assert len(enumerate_indices(2, total_degree=3)) == math.comb(5, 2)

    def test_per_dim_line(self):
        got = [tuple(ix) for ix in enumerate_indices(1, per_dim_degree=5)]
        assert got == [(p,) for p in range(6)]

    @pytest.mark.parametrize("n,deg", [(1, 4), (2, 3), (3, 2)])
    def test_counts(self, n, deg):
        assert len(enumerate_indices(n, total_degree=deg)) == math.comb(n + deg, n)
        assert len(enumerate_indices(n, per_dim_degree=deg)) == (deg + 1) ** n

    def test_no_duplicates_and_graded(self):
        indices = enumerate_indices(3, total_degree=4)
        exps = [tuple(ix) for ix in indices]
        assert len(set(exps)) == len(exps)
        degrees = [sum(ix) for ix in indices]
        assert degrees == sorted(degrees)

    @pytest.mark.parametrize("n,deg", [(1, 0), (1, 5), (2, 4), (3, 3), (4, 2), (5, 1)])
    def test_matches_brute_force_graded_lex_oracle(self, n, deg):
        def oracle(keep):
            grid = (e for e in product(range(deg + 1), repeat=n) if keep(e))
            return sorted(grid, key=lambda e: (sum(e), [-x for x in e]))

        for got, expected in (
                (enumerate_indices(n, total_degree=deg), oracle(lambda e: sum(e) <= deg)),
                (enumerate_indices(n, per_dim_degree=deg), oracle(lambda e: True))):
            assert got.shape == (len(expected), n)
            assert [tuple(ix) for ix in got] == expected

    def test_is_read_only_int_array(self):
        indices = enumerate_indices(3, total_degree=2)
        assert np.issubdtype(indices.dtype, np.integer)
        with pytest.raises(ValueError):
            indices[0, 0] = 1

    def test_requires_exactly_one_constraint(self):
        with pytest.raises(ValueError):
            enumerate_indices(2)
        with pytest.raises(ValueError):
            enumerate_indices(2, total_degree=1, per_dim_degree=1)


class TestGaussHermiteRoots:
    def test_order_one(self):
        roots, weights = gh_roots_weights(1)
        np.testing.assert_allclose(roots, [0.0])
        np.testing.assert_allclose(weights, [1.0])

    def test_order_two(self):
        roots, weights = gh_roots_weights(2)
        np.testing.assert_allclose(roots, [-1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(weights, [0.5, 0.5], atol=1e-14)

    def test_order_three(self):
        roots, weights = gh_roots_weights(3)
        np.testing.assert_allclose(roots, [-np.sqrt(3), 0.0, np.sqrt(3)], atol=1e-14)
        np.testing.assert_allclose(weights, [1 / 6, 2 / 3, 1 / 6], atol=1e-14)

    @pytest.mark.parametrize("order", range(1, 11))
    def test_moment_exactness(self, order):
        # tolerance scales with the magnitude of the summed terms: moments
        # reach 3.4e7 at order 10 and odd moments cancel terms of that
        # size, so a bare absolute 1e-10 lies below the float64 noise
        # floor of the sum itself
        roots, weights = gh_roots_weights(order)
        for k in range(2 * order):
            quad = weights @ roots**k
            scale = max(1.0, float(weights @ np.abs(roots) ** k))
            assert quad == pytest.approx(gaussian_moment(k), abs=1e-10 * scale)

    @pytest.mark.parametrize("order", range(1, MAX_GH_ORDER + 1))
    def test_against_hermegauss_oracle(self, order):
        roots, weights = gh_roots_weights(order)
        oracle_roots, oracle_weights = hermegauss(order)
        np.testing.assert_allclose(roots, oracle_roots, atol=1e-12)
        np.testing.assert_allclose(weights, oracle_weights / np.sqrt(2 * np.pi),
                                   atol=1e-12)

    def test_symmetry_and_normalization(self):
        roots, weights = gh_roots_weights(7)
        np.testing.assert_allclose(roots, -roots[::-1], atol=0)
        np.testing.assert_allclose(weights, weights[::-1], atol=0)
        assert weights.sum() == pytest.approx(1.0, abs=1e-14)

    def test_supported_range(self):
        with pytest.raises(ValueError):
            gh_roots_weights(0)
        with pytest.raises(ValueError):
            gh_roots_weights(51)


class TestOrthogonality:
    def test_orthogonality_under_tensor_rule(self):
        # every pair of total degree <= 4 in n <= 3, order-6 tensor rule
        roots, w1 = gh_roots_weights(6)
        for n in (1, 2, 3):
            indices = enumerate_indices(n, total_degree=4)
            grids = np.meshgrid(*([roots] * n), indexing="ij")
            pts = np.column_stack([g.ravel() for g in grids])
            wgrids = np.meshgrid(*([w1] * n), indexing="ij")
            weights = np.prod([g.ravel() for g in wgrids], axis=0)
            design = hermite_design_matrix(indices, pts)
            gram = design.T @ (weights[:, None] * design)
            expected = np.diag([math.prod(map(math.factorial, ix)) for ix in indices])
            np.testing.assert_allclose(gram, expected, atol=1e-10)
