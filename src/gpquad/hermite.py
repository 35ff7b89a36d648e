"""Probabilists' Hermite polynomials, index sets and Gauss-Hermite rules.

All polynomials here follow the probabilists' convention (weight function
``exp(-x^2/2)``, recurrence ``He_{p+1} = x He_p - p He_{p-1}``), NOT the
physicists' convention ``H_{p+1} = 2x H_p - 2p H_{p-1}`` used by
``numpy.polynomial.hermite``.  The probabilists' family is the orthogonal
one for N(0, 1), which is the weight every rule in this package targets.

An index set is an (m, n) integer array, one multi-index I per row, that
names the multivariate polynomials H_I(x) = prod_d He_{I[d]}(x[d]).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "hermite_uni",
    "hermite_multi",
    "enumerate_indices",
    "gh_roots_weights",
]

MAX_GH_ORDER = 50


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
    h = _hermite_table(x, p)[..., p]
    return h if h.ndim else float(h)


def _hermite_table(x, max_deg: int) -> np.ndarray:
    """He_0 .. He_max_deg at x, along a new last axis."""
    x = np.asarray(x, dtype=float)
    table = np.ones(x.shape + (max_deg + 1,))
    if max_deg >= 1:
        table[..., 1] = x
    for p in range(1, max_deg):
        table[..., p + 1] = x * table[..., p] - p * table[..., p - 1]
    return table


def hermite_multi(index, xi) -> float:
    """Evaluate the multivariate Hermite polynomial H_I(xi).

    ``index`` is any length-n sequence of non-negative ints; the value is
    the product of univariate evaluations, one per dimension: the one
    entry of ``hermite_design_matrix`` for this index and point.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 1 or len(index) != xi.shape[0]:
        raise ValueError(
            f"multi-index of length {len(index)} incompatible with point of shape {xi.shape}"
        )
    return float(hermite_design_matrix([index], xi[None])[0, 0])


def enumerate_indices(n: int, *, total_degree: int | None = None,
                      per_dim_degree: int | None = None) -> np.ndarray:
    """Enumerate multi-indices in a fixed graded-lexicographic order.

    Exactly one of the two constraints must be given.  ``total_degree=P``
    yields the C(n+P, n) indices with |I| <= P; ``per_dim_degree=D`` yields
    the (D+1)^n indices with max(I) <= D.  The order (by total degree, then
    lexicographic with the first coordinate largest) is part of the
    contract: coefficient matrices built over an index set must be
    reproducible.

    Returns
    -------
    (m, n) read-only integer ndarray, one multi-index per row.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if (total_degree is None) == (per_dim_degree is None):
        raise ValueError("specify exactly one of total_degree / per_dim_degree")
    cap = total_degree if per_dim_degree is None else per_dim_degree
    if cap < 0:
        raise ValueError(f"degree must be >= 0, got {cap}")
    budget = cap if per_dim_degree is None else n * cap
    # grow one coordinate at a time, each row extended by every value its
    # degree budget allows, so no intermediate outgrows the final set
    indices = np.zeros((1, 0), dtype=int)
    for _ in range(n):
        counts = np.minimum(cap, budget - indices.sum(axis=1)) + 1
        offsets = np.repeat(np.cumsum(counts) - counts, counts)
        indices = np.column_stack([np.repeat(indices, counts, axis=0),
                                   np.arange(counts.sum()) - offsets])
    # np.lexsort's last key is the primary one: total degree, then each
    # coordinate descending, the first coordinate before the second
    order = np.lexsort(np.vstack([-indices[:, ::-1].T, indices.sum(axis=1)]))
    indices = indices[order]
    indices.flags.writeable = False
    return indices


def hermite_design_matrix(indices, points: np.ndarray) -> np.ndarray:
    """Evaluate every H_I over a batch of points.

    Parameters
    ----------
    indices : (m, n) integer array-like
        Index set, of the points' dimension.
    points : (N, n) ndarray, or a batch of point sets (..., N, n)

    Returns
    -------
    (N, m) ndarray with columns H_I(points), one per index; (..., N, m)
    for a batch.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    indices = np.asarray(indices)
    n = points.shape[-1]
    if indices.ndim != 2 or indices.shape[1] != n:
        raise ValueError(f"index set of shape {indices.shape} does not match "
                         f"points of dimension {n}")
    if indices.size and indices.min() < 0:
        raise ValueError(f"degree must be non-negative, got {indices.min()}")
    # table[d, ..., p] = He_p evaluated on coordinate d of every point
    table = _hermite_table(np.moveaxis(points, -1, 0), int(indices.max(initial=0)))
    # np.take returns C order; fancy indexing on the last axis would
    # return F order, on which the downstream matmuls round differently
    design = np.take(table[0], indices[:, 0], axis=-1)
    for d in range(1, n):
        design *= np.take(table[d], indices[:, d], axis=-1)
    return design


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
