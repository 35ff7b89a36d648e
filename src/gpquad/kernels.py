"""Covariance functions with closed-form Gaussian integrals.

Two families are supported on the standardized N(0, I) domain:

* ``SquaredExponentialKernel`` -- s^2 exp(-||x - x'||^2 / (2 l^2)), whose
  mean embedding and double Gaussian integral are closed-form.
* ``HermitePolynomialKernel`` -- a finite Hermite expansion
  sum_{I,J} lambda_{I,J} / (I! J!) H_I(x) H_J(x') over a fixed index set,
  an (m, n) integer array of multi-indices in graded-lex order, with a
  symmetric PSD coefficient matrix.  By orthogonality its Gaussian
  integrals reduce to the zero-index row/entry of the coefficients.

Both expose ``eval`` / ``gram`` / ``mean_embedding`` / ``double_integral``,
the three quantities the weight and variance formulas consume (the weight
solve takes the first two from one ``gram_and_embedding`` call), and
``weighted_derivative``, the one quantity the variance gradient needs:
sum_k w_k d/dx_i K(x_i, x_k) - d/dx_i q(x_i) for given weights w, an
(N, n) array, so no (N, N, n) derivative array is ever built.  Points
are an (N, n) set or a batch of sets (..., N, n); every per-set quantity
then gains the leading batch axes, each set computed as it would be
alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .hermite import enumerate_indices, hermite_design_matrix
from .quadrature import _BLOCK, _checked_cov

__all__ = [
    "SquaredExponentialKernel",
    "HermitePolynomialKernel",
    "make_ut_kernel",
    "make_gh_kernel",
]

MAX_GH_KERNEL_TERMS = 20_000


def _as_points(x, dim: int | None = None) -> np.ndarray:
    pts = np.asarray(x, dtype=float)
    pts = pts if pts.ndim > 1 else np.atleast_2d(pts)
    if dim is not None and pts.shape[-1] != dim:
        raise ValueError(f"points of dimension {pts.shape[-1]}, kernel expects {dim}")
    return pts


def _squared_distances(x: np.ndarray, y: np.ndarray, finish=None) -> np.ndarray:
    """||x_i - y_k||^2 over batches (..., N, n) and (..., M, n): (..., N, M).

    Fills the output ``_BLOCK`` rows at a time.  Each row block
    accumulates (x_d - y_d)^2 one dimension at a time through one
    (..., _BLOCK, M) buffer, so the (..., N, M) output is the only array
    of its size, and no (..., N, M, n) one is built.  ``finish``, when
    given, then transforms each finished block in place, while it is
    still in cache.  Every step is elementwise, so the blocks change no
    bits: up to n = 7 this rounds as the broadcast
    ``((x - y)**2).sum(-1)``, whose sum adds the dimensions in the same
    order.
    """
    count, n = x.shape[-2:]
    batch = np.broadcast_shapes(x.shape[:-2], y.shape[:-2])
    out = np.empty(batch + (count, y.shape[-2]))
    buffer = np.empty(batch + (min(count, _BLOCK), y.shape[-2])) if n > 1 else None
    cols = y[..., None, :, :]
    for start in range(0, count, _BLOCK):
        rows = x[..., start:start + _BLOCK, None, :]
        block = out[..., start:start + _BLOCK, :]
        np.subtract(rows[..., 0], cols[..., 0], out=block)
        np.multiply(block, block, out=block)
        if n > 1:
            scratch = buffer[..., :block.shape[-2], :]
            for d in range(1, n):
                np.subtract(rows[..., d], cols[..., d], out=scratch)
                np.multiply(scratch, scratch, out=scratch)
                block += scratch
        if finish is not None:
            finish(block)
    return out


@dataclass(frozen=True)
class SquaredExponentialKernel:
    """Squared exponential (exponentiated quadratic) covariance function."""

    output_scale: float = 1.0   # s
    length_scale: float = 1.0   # l

    def __post_init__(self):
        if self.output_scale <= 0 or self.length_scale <= 0:
            raise ValueError("output_scale and length_scale must be positive")

    def eval(self, x, y) -> np.ndarray:
        """Pairwise kernel matrix between two point batches."""
        x = _as_points(x)
        y = _as_points(y, x.shape[-1])
        return _squared_distances(x, y, self._kernel_block)

    def _kernel_block(self, block: np.ndarray) -> None:
        # s^2 exp(-||x - y||^2 / (2 l^2)), in place on a block of the distances
        block /= -2.0 * self.length_scale**2
        np.exp(block, out=block)
        block *= self.output_scale**2

    def gram(self, points) -> np.ndarray:
        return self.eval(points, points)

    def gram_and_embedding(self, points) -> tuple[np.ndarray, np.ndarray]:
        return self.gram(points), self.mean_embedding(points)

    def mean_embedding(self, points) -> np.ndarray:
        """integral K(x, x_i) N(x | 0, I) dx for each point x_i."""
        pts = _as_points(points)
        n = pts.shape[-1]
        l2 = self.length_scale**2
        scale = self.output_scale**2 * (l2 / (1.0 + l2)) ** (n / 2.0)
        return scale * np.exp((pts**2).sum(axis=-1) / (-2.0 * (1.0 + l2)))

    def double_integral(self, n: int) -> float:
        """double integral K(x, x') N(x|0,I) N(x'|0,I) dx dx'."""
        l2 = self.length_scale**2
        return self.output_scale**2 * (l2 / (l2 + 2.0)) ** (n / 2.0)

    def weighted_derivative(self, points, gram, embedding, weights):
        """sum_k w_k d/dx_i K(x_i, x_k) - d/dx_i q(x_i) for each point x_i.

        ``gram`` and ``embedding`` are this kernel's Gram matrix and mean
        embedding at the same points, which the SE derivatives rescale:
        d/dx_i K(x_i, x_k) = -K(x_i, x_k) (x_i - x_k) / l^2 and
        d/dx_i q(x_i) = -q(x_i) x_i / (1 + l^2).  Each dimension's
        derivatives are built in one (N, N) buffer and contracted with the
        weights there, so no (N, N, n) array is built.

        Returns
        -------
        The (N, n) ndarray of terms, with the points' batch axes in front;
        the variance gradient is 2 w_i times row i.
        """
        pts = _as_points(points)
        l2 = self.length_scale**2
        out = np.empty(pts.shape)
        buffer = np.empty(gram.shape)
        for d in range(pts.shape[-1]):
            np.subtract(pts[..., :, None, d], pts[..., None, :, d], out=buffer)
            buffer *= gram
            buffer /= -l2
            out[..., d] = np.einsum("...ik,...k->...i", buffer, weights)
        out -= embedding[..., None] * pts / -(1.0 + l2)
        return out

    def flat_increments(self, points):
        """Gram increments E of the nearly-flat weight system.

        Writes the Gram matrix as ``s^2 (11^T + E)`` with E computed
        through ``expm1``, so its tiny magnitudes keep full relative
        precision.  The weight solver tests flatness on E and deflates the
        system when the kernel is almost constant over the point set
        (large length scales), where the plain Gram matrix is numerically
        singular; ``flat_embedding`` then gives the matching embedding.

        Returns
        -------
        E, an (N, N) ndarray (with the points' batch axes in front).
        """
        pts = _as_points(points)
        return _squared_distances(pts, pts, self._increment_block)

    def _increment_block(self, block: np.ndarray) -> None:
        # expm1 of the same exponent
        block /= -2.0 * self.length_scale**2
        np.expm1(block, out=block)

    def flat_embedding(self, points):
        """The embedding as ``s^2 c (1 + delta)`` for a nearly-flat set.

        delta comes through ``expm1`` about the set's mean squared radius,
        so it keeps full relative precision.  Its exponent can overflow
        for points far apart, which a nearly-flat set never has, so the
        weight solver calls this for such sets only.

        Returns
        -------
        (c, delta) with c a float and delta an (N,) ndarray (each with
        the points' batch axes in front).
        """
        pts = _as_points(points)
        n = pts.shape[-1]
        l2 = self.length_scale**2
        rho = (pts**2).sum(axis=-1)
        rho0 = rho.mean(axis=-1)
        emb_inc = np.expm1(-(rho - rho0[..., None]) / (2.0 * (1.0 + l2)))
        emb_scale = (l2 / (1.0 + l2)) ** (n / 2.0) * np.exp(-rho0 / (2.0 * (1.0 + l2)))
        return emb_scale, emb_inc


def _inverse_factorials(indices: np.ndarray) -> np.ndarray:
    """1 / I! for each row I of an index set, each I! an exact integer
    rounded once; ValueError where one is beyond the float range, as its
    1 / I! would read 0."""
    factorials = np.cumprod([1, *range(1, int(indices.max()) + 1)], dtype=object)
    exact = factorials[indices].prod(axis=1)
    largest = int(np.argmax(exact))
    if exact[largest] > sys.float_info.max:
        raise ValueError(
            f"index factorial {tuple(indices[largest].tolist())}! is about "
            f"1e{math.log10(exact[largest]):.0f}, beyond the float range; "
            "reduce the order or dimension")
    return (1.0 / exact).astype(float)


# eq=False: an index-set array has no truth value to compare by
@dataclass(frozen=True, eq=False)
class HermitePolynomialKernel:
    """Finite Hermite-expansion covariance function.

    ``index_set`` is an (m, n) array of distinct non-negative integer
    multi-indices, the zero index among them (``enumerate_indices`` gives
    them in graded-lex order); it is stored read-only.
    ``coefficients`` is the symmetric PSD matrix indexed by its rows,
    checked at construction as ``matrix_sqrt`` checks a covariance;
    ``None`` stands for the identity, which reproduces the classical
    rules without storing an m x m matrix.

    With the identity over the full grid {0..D}^n, n >= 2
    (``make_gh_kernel``'s sets), the kernel is a product over dimensions,
    K(x, y) = prod_d sum_{k <= D} He_k(x_d) He_k(y_d) / k!^2, so ``eval``,
    ``gram`` and ``gram_and_embedding`` multiply n Gram matrices of the
    (N, D+1) tables He_k(x_d) / k!, at O(n N^2 (D+1)) instead of the
    O(N^2 (D+1)^n) of the N x m feature matrix, and the embedding is ones.
    ``weighted_derivative`` differentiates one factor of that product at a
    time.
    Other index sets, a coefficient matrix and ``mean_embedding`` use the
    features.
    """

    index_set: np.ndarray
    coefficients: np.ndarray | None = field(default=None)
    # phi_I = H_I / I! scales and the zero index's row, set once from index_set
    _inv_factorial: np.ndarray = field(init=False, repr=False)
    _zero_row: int = field(init=False, repr=False)
    # D of a full grid {0..D}^n with identity coefficients, else None
    _grid_degree: int | None = field(init=False, repr=False)

    def __post_init__(self):
        raw = np.asarray(self.index_set)
        if raw.ndim != 2 or 0 in raw.shape:
            raise ValueError(f"index set must be a non-empty (m, n) array, got {raw.shape}")
        index_set = raw.astype(int)
        if not np.array_equal(index_set, raw) or (index_set < 0).any():
            raise ValueError("index set entries must be non-negative integers")
        ordered = index_set[np.lexsort(index_set.T)]
        if (ordered[1:] == ordered[:-1]).all(axis=1).any():
            raise ValueError("index set contains duplicates")
        zero = np.flatnonzero(~index_set.any(axis=1))
        if zero.size == 0:
            raise ValueError("index set must contain the zero index")
        index_set.flags.writeable = False
        coeff = self.coefficients
        if coeff is not None:
            m = len(index_set)
            coeff = np.asarray(coeff, dtype=float)
            if coeff.shape != (m, m):
                raise ValueError(f"coefficient matrix must be {m}x{m}, got {coeff.shape}")
            _checked_cov(coeff, "coefficient matrix")
        object.__setattr__(self, "index_set", index_set)
        object.__setattr__(self, "coefficients", coeff)
        object.__setattr__(self, "_inv_factorial", _inverse_factorials(index_set))
        object.__setattr__(self, "_zero_row", int(zero[0]))
        # distinct indices in {0..D}^n, as many as the grid has, are the grid;
        # in one dimension its one table is the feature matrix itself, which
        # stays, and with it the strided embedding of ``_embedding``
        degree, n = int(index_set.max()), index_set.shape[1]
        full_grid = coeff is None and n > 1 and len(index_set) == (degree + 1) ** n
        object.__setattr__(self, "_grid_degree", degree if full_grid else None)

    @property
    def dimension(self) -> int:
        return self.index_set.shape[1]

    def _features(self, points) -> np.ndarray:
        # phi_I(x) = H_I(x) / I!
        pts = _as_points(points, self.dimension)
        return hermite_design_matrix(self.index_set, pts) * self._inv_factorial

    def _tables(self, points) -> np.ndarray:
        # He_k(x_d) / k! for k = 0..D: the (n, ..., N, D+1) factors of a
        # full grid's features, one hermite_design_matrix call over the
        # coordinates as a batch of 1-D sets
        pts = _as_points(points, self.dimension)
        orders = np.arange(self._grid_degree + 1)[:, None]
        return (hermite_design_matrix(orders, np.moveaxis(pts, -1, 0)[..., None])
                * _inverse_factorials(orders))

    @staticmethod
    def _grid_product(x_tables: np.ndarray, y_tables: np.ndarray) -> np.ndarray:
        # prod_d X_d Y_d^T; with one table for both, numpy's matmul takes
        # syrk, whose exactly symmetric Gram matrices stay so in the product
        out = x_tables[0] @ np.swapaxes(y_tables[0], -1, -2)
        for x_d, y_d in zip(x_tables[1:], y_tables[1:]):
            out *= x_d @ np.swapaxes(y_d, -1, -2)
        return out

    def _weighted(self, features: np.ndarray) -> np.ndarray:
        # features @ coefficients; the identity leaves them as they are
        return features if self.coefficients is None else features @ self.coefficients

    def eval(self, x, y) -> np.ndarray:
        if self._grid_degree is not None:
            return self._grid_product(self._tables(x), self._tables(y))
        return self._weighted(self._features(x)) @ np.swapaxes(self._features(y), -1, -2)

    def gram(self, points) -> np.ndarray:
        return self.gram_and_embedding(points)[0]

    def gram_and_embedding(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Both from one feature matrix, which the weight solve needs once,
        or from the tables of a full grid."""
        if self._grid_degree is not None:
            tables = self._tables(points)
            return self._grid_product(tables, tables), np.ones(tables.shape[1:-1])
        f = self._features(points)
        gram = self._weighted(f) @ np.swapaxes(f, -1, -2)
        return 0.5 * (gram + np.swapaxes(gram, -1, -2)), self._embedding(f)

    def mean_embedding(self, points) -> np.ndarray:
        return self._embedding(self._features(points))

    def _embedding(self, features: np.ndarray) -> np.ndarray:
        # integrating H_I against N(0, I) kills every row except I = 0. The
        # identity's column of ones stays a strided view: on a contiguous
        # vector BLAS rounds the weight solve's q @ w differently
        if self.coefficients is None:
            return features[..., self._zero_row]
        return features @ self.coefficients[self._zero_row]

    def double_integral(self, n: int | None = None) -> float:
        if n is not None and n != self.dimension:
            raise ValueError(f"kernel built for dimension {self.dimension}, got {n}")
        row = self._zero_row
        return 1.0 if self.coefficients is None else float(self.coefficients[row, row])

    def weighted_derivative(self, points, gram, embedding, weights):
        """sum_k w_k d/dx_i K(x_i, x_k) - d/dx_i q(x_i), as for the SE kernel.

        The derivative of a feature is a lower feature, d phi_I / dx_d =
        phi_{I - e_d} (He_k' = k He_{k-1}), zero where I_d = 0; with K =
        F C F^T and q = F C e_0 the term for dimension d is those lowered
        features times C (F^T w - e_0).  ``gram`` and ``embedding`` are
        unused here and taken for the call shared with the SE kernel.  On
        a full grid the term for d is the product over dimensions with
        factor d differentiated, whose table is the table shifted one
        order up, contracted with the weights; the embedding, ones, has
        zero gradient.
        """
        pts = _as_points(points, self.dimension)
        out = np.empty(pts.shape)
        if self._grid_degree is not None:
            tables = self._tables(pts)
            shifted = np.zeros_like(tables)
            shifted[..., 1:] = tables[..., :-1]
            for d in range(self.dimension):
                x_tables = [shifted[e] if e == d else tables[e] for e in range(self.dimension)]
                out[..., d] = np.einsum("...ik,...k->...i",
                                        self._grid_product(x_tables, tables), weights)
            return out
        row = weights[..., None, :] @ self._features(pts)            # (F^T w)^T
        row[..., 0, self._zero_row] -= 1.0
        column = np.swapaxes(self._weighted(row), -1, -2)            # C (F^T w - e_0)
        for d in range(self.dimension):
            present = self.index_set[:, d] > 0
            lowered = self.index_set.copy()
            lowered[:, d] -= present
            lowered_features = hermite_design_matrix(lowered, pts) * _inverse_factorials(lowered)
            out[..., d] = ((lowered_features * present) @ column)[..., 0]
        return out

    def flat_increments(self, points):
        return None


def make_ut_kernel(n: int, order: int = 3) -> HermitePolynomialKernel:
    """Hermite kernel whose zero-variance point sets are the symmetric rules.

    Spans all multivariate Hermite polynomials of total degree <= order
    with identity coefficients; with order 3 the quadrature weights on the
    2n+1 canonical unscented points reduce to the unscented-transform
    weights, and higher odd orders correspond to the 5th/7th/9th-order
    symmetric rules.
    """
    if order not in (3, 5, 7, 9):
        raise ValueError(f"supported orders are 3, 5, 7, 9; got {order}")
    return HermitePolynomialKernel(enumerate_indices(n, total_degree=order))


def make_gh_kernel(n: int, order: int) -> HermitePolynomialKernel:
    """Hermite kernel matched to the order-P Gauss-Hermite tensor rule.

    Spans per-dimension degrees <= 2P-1, i.e. (2P)^n terms, with identity
    coefficients; the quadrature weights on the P^n tensor grid reduce to
    the classical Gauss-Hermite product weights.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    terms = (2 * order) ** n
    if terms > MAX_GH_KERNEL_TERMS:
        raise ValueError(
            f"index set of size {terms} exceeds cap {MAX_GH_KERNEL_TERMS}; "
            "reduce the order or dimension"
        )
    return HermitePolynomialKernel(enumerate_indices(n, per_dim_degree=2 * order - 1))
