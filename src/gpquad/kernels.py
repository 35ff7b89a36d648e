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
``derivatives``, their gradients in the points, which the optimizer
consumes.  Points are an (N, n) set or a batch of sets (..., N, n); every
per-set quantity then gains the leading batch axes, each set computed as
it would be alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .hermite import enumerate_indices, hermite_design_matrix

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


def _squared_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """||x_i - y_k||^2 over batches (..., N, n) and (..., M, n): (..., N, M).

    Accumulates (x_d - y_d)^2 one dimension at a time, reusing one
    (..., N, M) buffer, so no (..., N, M, n) array is built.  Up to
    n = 7 this rounds as the broadcast ``((x - y)**2).sum(-1)``, whose
    sum adds the dimensions in the same order.
    """
    rows, cols = x[..., :, None, :], y[..., None, :, :]
    out = np.subtract(rows[..., 0], cols[..., 0])
    np.multiply(out, out, out=out)
    buffer = np.empty_like(out) if x.shape[-1] > 1 else None
    for d in range(1, x.shape[-1]):
        np.subtract(rows[..., d], cols[..., d], out=buffer)
        np.multiply(buffer, buffer, out=buffer)
        out += buffer
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
        k = self._exponent(x, y)
        np.exp(k, out=k)
        k *= self.output_scale**2
        return k

    def _exponent(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # -||x - y||^2 / (2 l^2), in place on the distances: no further
        # (..., N, M) temporaries
        e = _squared_distances(x, y)
        e /= -2.0 * self.length_scale**2
        return e

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

    def derivatives(self, points, gram, embedding):
        """Gradients of the Gram matrix and embedding in the points.

        ``gram`` and ``embedding`` are this kernel's Gram matrix and mean
        embedding at the same points, which the SE derivatives rescale:
        d/dx_i K(x_i, x_k) = -K(x_i, x_k) (x_i - x_k) / l^2 and
        d/dx_i q(x_i) = -q(x_i) x_i / (1 + l^2).

        Returns
        -------
        (dK, dq) with dK[i, k] = d/dx_i K(x_i, x_k), an (N, N, n) ndarray,
        and dq[i] = d/dx_i q(x_i), an (N, n) ndarray (each with the
        points' batch axes in front).
        """
        pts = _as_points(points)
        l2 = self.length_scale**2
        d_gram = pts[..., :, None, :] - pts[..., None, :, :]
        d_gram *= gram[..., None]
        d_gram /= -l2
        d_embedding = embedding[..., None] * pts / -(1.0 + l2)
        return d_gram, d_embedding

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
        e = self._exponent(pts, pts)
        return np.expm1(e, out=e)

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
    ``coefficients`` is the symmetric PSD matrix indexed by its rows;
    ``None`` stands for the identity, which reproduces the classical
    rules without storing an m x m matrix.
    """

    index_set: np.ndarray
    coefficients: np.ndarray | None = field(default=None)
    # phi_I = H_I / I! scales and the zero index's row, set once from index_set
    _inv_factorial: np.ndarray = field(init=False, repr=False)
    _zero_row: int = field(init=False, repr=False)

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
            if not np.allclose(coeff, coeff.T, atol=1e-12):
                raise ValueError("coefficient matrix must be symmetric")
        object.__setattr__(self, "index_set", index_set)
        object.__setattr__(self, "coefficients", coeff)
        object.__setattr__(self, "_inv_factorial", _inverse_factorials(index_set))
        object.__setattr__(self, "_zero_row", int(zero[0]))

    @property
    def dimension(self) -> int:
        return self.index_set.shape[1]

    def _features(self, points) -> np.ndarray:
        # phi_I(x) = H_I(x) / I!
        pts = _as_points(points, self.dimension)
        return hermite_design_matrix(self.index_set, pts) * self._inv_factorial

    def _feature_derivatives(self, points) -> np.ndarray:
        # d phi_I / dx_d = phi_{I - e_d} (He_k' = k He_{k-1}), zero where
        # I_d = 0; returns the (n, ..., N, m) stack over d
        pts = _as_points(points, self.dimension)
        stack = []
        for d in range(self.dimension):
            present = self.index_set[:, d] > 0
            lowered = self.index_set.copy()
            lowered[:, d] -= present
            stack.append(hermite_design_matrix(lowered, pts)
                         * _inverse_factorials(lowered) * present)
        return np.stack(stack)

    def _weighted(self, features: np.ndarray) -> np.ndarray:
        # features @ coefficients; the identity leaves them as they are
        return features if self.coefficients is None else features @ self.coefficients

    def eval(self, x, y) -> np.ndarray:
        return self._weighted(self._features(x)) @ np.swapaxes(self._features(y), -1, -2)

    def gram(self, points) -> np.ndarray:
        return self.gram_and_embedding(points)[0]

    def gram_and_embedding(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Both from one feature matrix, which the weight solve needs once."""
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

    def derivatives(self, points, gram, embedding):
        """Gradients of the Gram matrix and embedding in the points.

        The derivative of a feature is a lower feature, so both follow from
        the expansion; ``gram`` and ``embedding`` are unused here and taken
        for the call shared with the SE kernel.  Shapes as in
        ``SquaredExponentialKernel.derivatives``.
        """
        d_features = self._feature_derivatives(points)          # (n, ..., N, m)
        weighted = self._weighted(self._features(points))       # (..., N, m)
        d_gram = np.moveaxis(d_features @ np.swapaxes(weighted, -1, -2), 0, -1)
        if self.coefficients is None:
            d_embedding = np.moveaxis(d_features[..., self._zero_row], 0, -1)
        else:
            d_embedding = np.moveaxis(d_features @ self.coefficients[self._zero_row], 0, -1)
        return d_gram, d_embedding

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
