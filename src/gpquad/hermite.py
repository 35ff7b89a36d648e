"""Probabilists' Hermite polynomials, multi-indices and Gauss-Hermite rules.

All polynomials here follow the probabilists' convention (weight function
``exp(-x^2/2)``, recurrence ``He_{p+1} = x He_p - p He_{p-1}``), NOT the
physicists' convention ``H_{p+1} = 2x H_p - 2p H_{p-1}`` used by
``numpy.polynomial.hermite``.  The probabilists' family is the orthogonal
one for N(0, 1), which is the weight every rule in this package targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MultiIndex",
    "hermite_uni",
    "hermite_multi",
    "enumerate_indices",
    "gh_roots_weights",
]

MAX_GH_ORDER = 50


@dataclass(frozen=True)
class MultiIndex:
    """Tuple of per-dimension polynomial degrees.

    Indexes one multivariate Hermite polynomial: ``H_I(x) = prod_d
    He_{I[d]}(x[d])``.
    """

    exponents: tuple[int, ...]

    def __post_init__(self):
        if len(self.exponents) == 0:
            raise ValueError("multi-index must have at least one entry")
        if any(e < 0 or int(e) != e for e in self.exponents):
            raise ValueError(f"multi-index entries must be non-negative integers: {self.exponents}")
        object.__setattr__(self, "exponents", tuple(int(e) for e in self.exponents))

    def __len__(self) -> int:
        return len(self.exponents)

    def __iter__(self):
        return iter(self.exponents)

    def total_degree(self) -> int:
        return sum(self.exponents)

    def factorial(self) -> int:
        """Product of per-entry factorials (>= 1)."""
        out = 1
        for e in self.exponents:
            out *= math.factorial(e)
        return out


def hermite_uni(p: int, x):
    """Evaluate the probabilists' Hermite polynomial He_p at x.

    Parameters
    ----------
    p : int
        Polynomial degree, >= 0.
    x : float or ndarray
        Evaluation point(s).

    Returns
    -------
    float or ndarray
        He_p(x), via the three-term recurrence.
    """
    if p < 0:
        raise ValueError(f"degree must be non-negative, got {p}")
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if p == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = x.copy()
    for k in range(1, p):
        h, h_prev = x * h - k * h_prev, h
    return h if h.ndim else float(h)


def hermite_multi(index: MultiIndex, xi) -> float:
    """Evaluate the multivariate Hermite polynomial H_I(xi).

    The value is the product of univariate evaluations, one per dimension.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 1 or len(index) != xi.shape[0]:
        raise ValueError(
            f"multi-index of length {len(index)} incompatible with point of shape {xi.shape}"
        )
    out = 1.0
    for p, x in zip(index, xi):
        out *= hermite_uni(p, x)
    return out


def _compositions(total: int, n: int):
    # all n-tuples of non-negative ints summing to `total`,
    # first coordinate descending (graded-lex within a degree block)
    if n == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, n - 1):
            yield (first,) + rest


def enumerate_indices(n: int, *, total_degree: int | None = None,
                      per_dim_degree: int | None = None) -> list[MultiIndex]:
    """Enumerate multi-indices in a fixed graded-lexicographic order.

    Exactly one of the two constraints must be given.  ``total_degree=P``
    yields the C(n+P, n) indices with |I| <= P; ``per_dim_degree=D`` yields
    the (D+1)^n indices with max(I) <= D.  The order (by total degree, then
    lexicographic with the first coordinate largest) is part of the
    contract: coefficient matrices built over an index set must be
    reproducible.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if (total_degree is None) == (per_dim_degree is None):
        raise ValueError("specify exactly one of total_degree / per_dim_degree")
    out: list[MultiIndex] = []
    if total_degree is not None:
        if total_degree < 0:
            raise ValueError("total_degree must be >= 0")
        for deg in range(total_degree + 1):
            out.extend(MultiIndex(c) for c in _compositions(deg, n))
    else:
        if per_dim_degree < 0:
            raise ValueError("per_dim_degree must be >= 0")
        for deg in range(n * per_dim_degree + 1):
            out.extend(
                MultiIndex(c)
                for c in _compositions(deg, n)
                if max(c) <= per_dim_degree
            )
    return out


def hermite_design_matrix(indices, points: np.ndarray) -> np.ndarray:
    """Evaluate every H_I over a batch of points.

    Parameters
    ----------
    indices : sequence of MultiIndex
        Index set, all of the points' dimension.
    points : (N, n) ndarray

    Returns
    -------
    (N, M) ndarray with columns H_I(points), one per index.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[1]
    if any(len(ix) != n for ix in indices):
        raise ValueError(f"index set dimension does not match points of dimension {n}")
    max_deg = max((max(ix.exponents) for ix in indices), default=0)
    # table[p, :, d] = He_p evaluated on coordinate d of every point
    table = np.ones((max_deg + 1,) + points.shape)
    if max_deg >= 1:
        table[1] = points
    for p in range(1, max_deg):
        table[p + 1] = points * table[p] - p * table[p - 1]
    cols = [
        np.prod([table[e, :, d] for d, e in enumerate(ix)], axis=0)
        for ix in indices
    ]
    return np.column_stack(cols)


def gh_roots_weights(order: int) -> tuple[np.ndarray, np.ndarray]:
    """One-dimensional Gauss-Hermite rule for the N(0, 1) weight.

    Roots are the zeros of He_P, computed as eigenvalues of the symmetric
    tridiagonal Jacobi matrix (Golub-Welsch), held as a dense P x P
    matrix; weights come from the first components of its eigenvectors
    and sum to one.  Stable for orders up to ``MAX_GH_ORDER``.

    Returns
    -------
    roots, weights : (P,) ndarrays
        Roots in increasing order, symmetric about 0.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if order > MAX_GH_ORDER:
        raise ValueError(f"order {order} exceeds supported maximum {MAX_GH_ORDER}")
    if order == 1:
        return np.zeros(1), np.ones(1)
    # He_{p+1} = x He_p - p He_{p-1}  ->  Jacobi diag 0, off-diag sqrt(k)
    off = np.sqrt(np.arange(1, order, dtype=float))
    roots, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    weights = vecs[0, :] ** 2
    # enforce the exact +/- symmetry of the rule
    roots = 0.5 * (roots - roots[::-1])
    weights = 0.5 * (weights + weights[::-1])
    return roots, weights / weights.sum()
