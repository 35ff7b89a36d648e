"""Gaussian process quadrature: weights and posterior variance.

A rule is built by conditioning a zero-mean GP with covariance K on
function evaluations at unit sigma-points and integrating the posterior
mean against N(0, I).  The weights solve (K + sigma^2 I) W = q with
K_ij = K(xi_i, xi_j) and q_i the kernel mean embedding at xi_i; the
posterior variance of the integral is the double Gaussian integral of K
minus q^T W.  Weights may be negative; the variance is zero exactly when
the points resolve the kernel's function class, which is how the
classical unscented / cubature / Gauss-Hermite weights drop out.  The
variance's gradient in the points follows from the same solve.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .points import QuadratureRule, UnitPointSet

__all__ = [
    "QuadratureRule",
    "MatrixSqrtResult",
    "gpq_weights",
    "gpq_variance",
    "gpq_variance_and_gradient",
    "matrix_sqrt",
    "gp_regression_mean",
]

# below this Gram-increment magnitude the kernel is treated as nearly
# constant over the point set and the solve deflates the ones-direction
FLAT_INCREMENT_THRESHOLD = 0.1

VARIANCE_CLAMP = 1e-9


class MatrixSqrtResult(NamedTuple):
    factor: np.ndarray
    spd_fallback: int   # how many matrices took the eigendecomposition route


def _member(index: int, size: int) -> str:
    """Names a position in a batch; a batch of one needs no name."""
    return f" for batch member {index}" if size > 1 else ""


def matrix_sqrt(cov: np.ndarray) -> MatrixSqrtResult:
    """Lower-triangular Cholesky factor of a symmetric PSD matrix.

    ``cov`` is one (n, n) matrix or a stack (..., n, n), factored by one
    batched Cholesky call.  A matrix on which Cholesky fails (near
    singular) falls back alone to a symmetric eigendecomposition square
    root with negative eigenvalues clipped to zero; ``spd_fallback``
    counts those matrices.  Errors name the failing matrix's position in
    the flattened stack.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim < 2 or cov.shape[-1] != cov.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {cov.shape}")
    stack = cov.reshape(-1, *cov.shape[-2:])
    scale = np.maximum(np.abs(stack).max(axis=(1, 2)), 1.0)
    asymmetry = np.abs(stack - stack.transpose(0, 2, 1)).max(axis=(1, 2))
    asymmetric = np.flatnonzero(asymmetry > 1e-9 * scale)
    if asymmetric.size:
        raise ValueError("matrix is asymmetric beyond 1e-9 relative tolerance"
                         + _member(asymmetric[0], len(stack)))
    try:
        return MatrixSqrtResult(np.linalg.cholesky(cov), 0)
    except np.linalg.LinAlgError:
        pass
    factors = np.empty_like(stack)
    fallbacks = 0
    for index, matrix in enumerate(stack):
        try:
            factors[index] = np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError:
            factors[index] = _eigen_sqrt(matrix, _member(index, len(stack)))
            fallbacks += 1
    return MatrixSqrtResult(factors.reshape(cov.shape), fallbacks)


def _eigen_sqrt(matrix: np.ndarray, where: str) -> np.ndarray:
    """Symmetric square root with negative eigenvalues clipped to zero;
    raises when the matrix is not PSD to within rounding."""
    eigvals, eigvecs = np.linalg.eigh(0.5 * (matrix + matrix.T))
    norm = np.abs(eigvals).max()
    if eigvals.min() < -1e-10 * max(norm, 1.0):
        raise ValueError(f"matrix is not PSD{where}: smallest eigenvalue {eigvals.min():.3e}")
    return eigvecs @ np.diag(np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.T


def _not_positive_definite(context: str, matrices: np.ndarray,
                           advice: str = "") -> np.linalg.LinAlgError:
    """The error for a matrix, or a stack (..., m, m), that failed Cholesky.

    Names ``context``, the first member of the stack whose Cholesky fails
    and that member's minimum eigenvalue, then ``advice``.
    """
    stack = matrices.reshape(-1, *matrices.shape[-2:])
    for index, matrix in enumerate(stack):
        try:
            np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError:
            break
    return np.linalg.LinAlgError(
        f"{context} not positive definite{_member(index, len(stack))} "
        f"(min eigenvalue {np.linalg.eigvalsh(matrix).min():.3e}){advice}"
    )


def _spd_solve(matrices: np.ndarray, rhs: np.ndarray, context: str,
               advice: str = "") -> np.ndarray:
    """Solve ``matrices @ x = rhs`` for one SPD matrix or a stack (..., m, m).

    A batched Cholesky checks that every matrix is positive definite; a
    failure raises ``_not_positive_definite(context, matrices, advice)``.
    The solve itself is ``np.linalg.solve``.
    """
    try:
        np.linalg.cholesky(matrices)
    except np.linalg.LinAlgError as exc:
        raise _not_positive_definite(context, matrices, advice) from exc
    return np.linalg.solve(matrices, rhs)


_SINGULAR_ADVICE = "; numerically singular, raise the jitter to regularize"


def _flat_deflated_solve(gram_inc, emb_scale, emb_inc, output_scale2):
    """Solve (J + E) W = c (1 + delta) with the ones-direction eliminated.

    J = 11^T swamps E by up to sixteen decades when the kernel is almost
    flat; splitting W over span{1} and its orthogonal complement keeps the
    meaningful part of the system at the scale of E, which arrives with
    full relative precision.  The reduced Schur block is SPD and solved
    by ``_spd_solve``.  Returns (weights, q) with q the mean embedding.
    """
    n_pts = gram_inc.shape[0]
    # Householder basis: column 0 is 1/sqrt(N), the rest span its complement
    u = np.full(n_pts, 1.0 / np.sqrt(n_pts))
    v = -u
    v[0] += 1.0
    basis = np.eye(n_pts) - 2.0 * np.outer(v, v) / (v @ v)
    complement = basis[:, 1:]

    e_u = gram_inc @ u
    pivot = n_pts + u @ e_u
    coupling = complement.T @ e_u
    reduced = complement.T @ gram_inc @ complement
    schur = reduced - np.outer(coupling, coupling) / pivot

    rhs_scale = emb_scale  # the s^2 factor cancels between K and q
    b_u = rhs_scale * (np.sqrt(n_pts) + u @ emb_inc)
    b_c = rhs_scale * (complement.T @ emb_inc)
    beta = _spd_solve(schur, b_c - coupling * (b_u / pivot),
                      "deflated weight system", _SINGULAR_ADVICE)
    alpha = (b_u - coupling @ beta) / pivot
    weights = u * alpha + complement @ beta
    q = output_scale2 * rhs_scale * (1.0 + emb_inc)
    return weights, q


class _WeightSystem(NamedTuple):
    weights: np.ndarray     # (N,) solution of (K + jitter I) W = q
    # (N, N) K + jitter I; the kernel derivatives see the same values as
    # from K alone, since the SE ones scale the diagonal by x_i - x_i = 0
    # and the Hermite ones never read it
    gram: np.ndarray
    embedding: np.ndarray   # (N,) kernel mean embedding q

    @property
    def q_dot_w(self) -> float:
        return float(self.embedding @ self.weights)


def _solve_weight_system(kernel, points: UnitPointSet, jitter: float) -> _WeightSystem:
    """Weights together with the Gram matrix and embedding they solve."""
    pts = points.points
    if jitter == 0.0 and points.count > 1:
        increments = kernel.flat_increments(pts)
        if increments is not None:
            gram_inc, emb_scale, emb_inc = increments
            if np.abs(gram_inc).max() < FLAT_INCREMENT_THRESHOLD:
                s2 = kernel.eval(pts[:1], pts[:1])[0, 0]  # diagonal value s^2
                weights, q = _flat_deflated_solve(gram_inc, emb_scale, emb_inc, s2)
                return _WeightSystem(weights, s2 * (1.0 + gram_inc), q)
    gram = kernel.gram(pts)
    gram[np.diag_indices_from(gram)] += jitter  # in place: no N x N temporaries
    q = kernel.mean_embedding(pts)
    weights = _spd_solve(gram, q, "quadrature weight system", _SINGULAR_ADVICE)
    return _WeightSystem(weights, gram, q)


def _clamped_variance(kernel, points: UnitPointSet, q_dot_w: float) -> float:
    variance = kernel.double_integral(points.dimension) - q_dot_w
    if variance < -VARIANCE_CLAMP:
        raise np.linalg.LinAlgError(
            f"posterior variance {variance:.3e} below the -1e-9 clamp; "
            "the weight system is numerically unreliable, raise the jitter"
        )
    return max(variance, 0.0)


def gpq_weights(kernel, points: UnitPointSet, jitter: float = 0.0) -> QuadratureRule:
    """Build the quadrature rule for a kernel over a unit point set.

    Solves (K + jitter I) W = q after a Cholesky check that the system is
    positive definite; the posterior variance is computed once and cached
    on the rule.  A singular system at zero jitter raises with the
    offending conditioning rather than regularizing silently.
    """
    system = _solve_weight_system(kernel, points, jitter)
    return QuadratureRule(
        points=points,
        weights=system.weights,
        jitter=jitter,
        posterior_variance=_clamped_variance(kernel, points, system.q_dot_w),
    )


def gpq_variance(kernel, points: UnitPointSet, jitter: float = 0.0) -> float:
    """Posterior variance of the integral estimate for a point set."""
    system = _solve_weight_system(kernel, points, jitter)
    return _clamped_variance(kernel, points, system.q_dot_w)


def gpq_variance_and_gradient(kernel, points: UnitPointSet,
                              jitter: float = 0.0) -> tuple[float, np.ndarray]:
    """Posterior variance and its (N, n) gradient in the points.

    With W = (K + jitter I)^{-1} q from the one weight solve,
    dV/dx_i = 2 W_i (sum_k W_k d/dx_i K(x_i, x_k) - d/dx_i q(x_i));
    the derivatives come from ``kernel.derivatives``.  Fails like
    ``gpq_variance``; where the variance is clamped to zero the gradient
    is zero too.
    """
    system = _solve_weight_system(kernel, points, jitter)
    variance = _clamped_variance(kernel, points, system.q_dot_w)
    if variance == 0.0:
        return variance, np.zeros_like(points.points)
    d_gram, d_embedding = kernel.derivatives(points.points, system.gram,
                                             system.embedding)
    w = system.weights
    gradient = 2.0 * w[:, None] * (np.einsum("ikd,k->id", d_gram, w) - d_embedding)
    return variance, gradient


def gp_regression_mean(kernel, train_points, observations,
                       jitter: float, query) -> float:
    """GP posterior mean k(x*)^T (K + jitter I)^{-1} o at a query point."""
    train = np.atleast_2d(np.asarray(train_points, dtype=float))
    obs = np.asarray(observations, dtype=float)
    if obs.shape != (train.shape[0],):
        raise ValueError("one observation per training point required")
    gram = kernel.gram(train)
    gram[np.diag_indices_from(gram)] += jitter
    coeffs = _spd_solve(gram, obs, "regression system", _SINGULAR_ADVICE)
    cross = kernel.eval(np.atleast_2d(np.asarray(query, dtype=float)), train)
    return float((cross @ coeffs)[0])
