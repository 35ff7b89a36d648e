"""Gaussian process quadrature: weights and posterior variance.

A rule is built by conditioning a zero-mean GP with covariance K on
function evaluations at unit sigma-points and integrating the posterior
mean against N(0, I).  The weights solve (K + sigma^2 I) W = q with
K_ij = K(xi_i, xi_j) and q_i the kernel mean embedding at xi_i; the
posterior variance of the integral is the double Gaussian integral of K
minus q^T W.  Weights may be negative; the variance is zero exactly when
the points resolve the kernel's function class, which is how the
classical unscented / cubature / Gauss-Hermite weights drop out.  The
variance's gradient in the points follows from the same solve; variance
and gradient are also computed for a batch of point sets at once, each
set solved as it would be alone.

Every SPD matrix, here and in the filter, is factored by one path:
``_positive_definite`` factors a stack in one batched Cholesky call, and
member by member only when that fails.  A stack of 1x1 matrices (the
scalar filter's covariances) skips LAPACK: its Cholesky factors are the
square roots, and a 1x1 solve with one right-hand side is a division,
which are the operations LAPACK itself performs there, so the numbers
are bit-identical at a fraction of the dispatch cost.
``_spd_solve_members`` solves on those factors and finds the members that
fail; ``_spd_solve`` raises for the first of them.  ``matrix_sqrt`` gives
a member that fails Cholesky the eigendecomposition square root of
``_eigen_sqrt`` and counts it.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .points import QuadratureRule, UnitPointSet

__all__ = [
    "NumericalError",
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


class NumericalError(np.linalg.LinAlgError):
    """A numerical failure: a study's error cell, the CLI's exit code 2 and
    a filter's per-rule stop; any other exception is a programming error."""


class MatrixSqrtResult(NamedTuple):
    factor: np.ndarray
    spd_fallback: int   # how many matrices took the eigendecomposition route


def _member(index: int, size: int) -> str:
    """Names a position in a batch; a batch of one needs no name."""
    return f" for batch member {index}" if size > 1 else ""


def matrix_sqrt(cov: np.ndarray) -> MatrixSqrtResult:
    """Lower-triangular Cholesky factor of a symmetric PSD matrix.

    ``cov`` is one (n, n) matrix or a stack (..., n, n), factored by
    ``_positive_definite``.  A matrix on which Cholesky fails (near
    singular) falls back alone to a symmetric eigendecomposition square
    root with negative eigenvalues clipped to zero; ``spd_fallback``
    counts those matrices.  Errors name the failing matrix's position in
    the flattened stack.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim < 2 or cov.shape[-1] != cov.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {cov.shape}")
    stack = cov.reshape(-1, *cov.shape[-2:])
    # the filter symmetrizes every covariance it builds exactly, so the
    # exact test spares its per-step calls the tolerance check; a 1x1
    # stack cannot fail either
    if stack.shape[-1] > 1 and not (stack == stack.transpose(0, 2, 1)).all():
        scale = np.maximum(np.abs(stack).max(axis=(1, 2)), 1.0)
        asymmetry = np.abs(stack - stack.transpose(0, 2, 1)).max(axis=(1, 2))
        asymmetric = np.flatnonzero(asymmetry > 1e-9 * scale)
        if asymmetric.size:
            raise ValueError("matrix is asymmetric beyond 1e-9 relative tolerance"
                             + _member(asymmetric[0], len(stack)))
    factors, passed = _positive_definite(stack)
    failed = () if passed is None else np.flatnonzero(~passed)
    for index in failed:
        factors[index] = _eigen_sqrt(stack[index], _member(index, len(stack)))
    return MatrixSqrtResult(factors.reshape(cov.shape), len(failed))


def _eigen_sqrt(matrix: np.ndarray, where: str) -> np.ndarray:
    """Symmetric square root with negative eigenvalues clipped to zero;
    raises when the matrix is not PSD to within rounding."""
    eigvals, eigvecs = np.linalg.eigh(0.5 * (matrix + matrix.T))
    norm = np.abs(eigvals).max()
    if eigvals.min() < -1e-10 * max(norm, 1.0):
        raise NumericalError(f"matrix is not PSD{where}: smallest eigenvalue {eigvals.min():.3e}")
    return eigvecs @ np.diag(np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.T


def _positive_definite(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The lower Cholesky factors of a stack (B, m, m), and which passed.

    One batched call factors the stack when every matrix passes; the mask
    is then None, so the common case builds none.  Only when it fails is
    each matrix factored on its own: the (B,) mask marks the members that
    passed, and a member that fails gets NaN factors.

    A 1x1 stack is factored as ``np.sqrt(stack)`` with LAPACK potrf's own
    pass test, ``~(a <= 0)``: 0.0, -0.0, negatives and -inf fail, while NaN
    and +inf pass, as in ``np.linalg.cholesky``, whose factor is that same
    correctly rounded square root.
    """
    if stack.shape[-1] == 1:
        fails = stack <= 0.0
        # count_nonzero skips the ufunc reduction that .any() dispatches
        if not np.count_nonzero(fails):
            return np.sqrt(stack), None
        return np.sqrt(np.where(fails, np.nan, stack)), ~fails[:, 0, 0]
    try:
        return np.linalg.cholesky(stack), None
    except np.linalg.LinAlgError:
        pass
    factors = np.full_like(stack, np.nan)
    passed = np.ones(len(stack), dtype=bool)
    for index, matrix in enumerate(stack):
        try:
            factors[index] = np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError:
            passed[index] = False
    return factors, passed


def _not_positive_definite(context: str, stack: np.ndarray, index: int,
                           advice: str = "") -> NumericalError:
    """The error for member ``index`` of a stack (B, m, m), the first that
    failed Cholesky: names ``context``, the member and its minimum
    eigenvalue, then ``advice``."""
    return NumericalError(
        f"{context} not positive definite{_member(index, len(stack))} "
        f"(min eigenvalue {np.linalg.eigvalsh(stack[index]).min():.3e}){advice}"
    )


_SINGULAR_ADVICE = "; numerically singular, raise the jitter to regularize"


def _zero_pivot(context: str, index: int, size: int) -> NumericalError:
    """The error for member ``index`` of a stack of ``size`` that passed
    Cholesky and still met an exactly zero pivot in the solve."""
    return NumericalError(
        f"{context} has an exactly zero pivot{_member(index, size)} "
        f"after passing the Cholesky check{_SINGULAR_ADVICE}")


# systems of more unknowns than this reuse their Cholesky factor, solved in
# blocks of this many; smaller ones take one np.linalg.solve call
_BLOCK = 128


def _cholesky_solve(matrices: np.ndarray, factors: np.ndarray,
                    rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(matrices, rhs)`` given the lower Cholesky factors.

    ``matrices`` and ``factors`` are (..., m, m), ``rhs`` is (m,) or
    (..., m, k) as for ``np.linalg.solve``; the matrices have passed
    Cholesky.  A 1x1 system with one right-hand side (a vector or one
    column) is ``rhs / a``: LAPACK's LU solve divides there too (OpenBLAS
    trsv), so the quotient is bit-identical.  With more columns OpenBLAS
    multiplies by the reciprocal instead, so those stay on
    ``np.linalg.solve``.  Up to ``_BLOCK`` unknowns
    the LU call is cheaper than a loop and the factors go unused.  Above
    it, a blocked forward substitution with L and a blocked back
    substitution with L^T (Golub & Van Loan, *Matrix Computations*,
    ch. 3) solve each diagonal block with ``np.linalg.solve`` and update
    the rest by matmul, so the system is factored only once.
    """
    m = matrices.shape[-1]
    if m == 1 and (rhs.ndim == 1 or rhs.shape[-1] == 1):
        return rhs / (matrices[..., 0] if rhs.ndim == 1 else matrices)
    if m <= _BLOCK:
        return np.linalg.solve(matrices, rhs)
    b = rhs[:, None] if rhs.ndim == 1 else rhs
    x = np.empty(np.broadcast_shapes(factors.shape[:-2], b.shape[:-2]) + b.shape[-2:])
    starts = range(0, m, _BLOCK)
    for j in starts:            # L y = b, into x
        block = slice(j, j + _BLOCK)
        x[..., block, :] = np.linalg.solve(
            factors[..., block, block],
            b[..., block, :] - factors[..., block, :j] @ x[..., :j, :])
    upper = np.swapaxes(factors, -1, -2)
    for j in reversed(starts):  # L^T x = y
        block, below = slice(j, j + _BLOCK), slice(j + _BLOCK, None)
        x[..., block, :] = np.linalg.solve(
            upper[..., block, block],
            x[..., block, :] - upper[..., block, below] @ x[..., below, :])
    return x[..., 0] if rhs.ndim == 1 else x


# builds the error of a failed solve when a caller raises it
_Failure = Callable[[], NumericalError]


def _spd_solve_members(stack: np.ndarray, rhs: np.ndarray, context: str,
                       advice: str) -> tuple[np.ndarray, np.ndarray, _Failure | None]:
    """Solve ``stack[b] @ x[b] = rhs[b]`` for each SPD member of (B, m, m).

    ``rhs`` is (B, m) or (B, m, k).  When every member passes Cholesky,
    ``_cholesky_solve`` solves the stack on the batched factors.  A member
    that is not positive definite, or that passes Cholesky and meets an
    exactly zero pivot in the solve, gets a NaN solution and does not
    disturb the others.  Returns x shaped as ``rhs``, the (B,) mask of
    solved members (True, which broadcasts as one, when all are) and None
    or the builder of the error a lone failed member raises:
    ``_not_positive_definite``'s, or else ``_zero_pivot``'s for the first
    member that met one.
    """
    b = rhs if rhs.ndim == stack.ndim else rhs[..., None]  # (B, m, k)
    factors, solved = _positive_definite(stack)
    if solved is None:
        try:
            return _cholesky_solve(stack, factors, b).reshape(rhs.shape), np.True_, None
        except np.linalg.LinAlgError:
            solved = np.ones(len(stack), dtype=bool)
    failure = None if solved.all() else partial(
        _not_positive_definite, context, stack, int(np.argmin(solved)), advice)
    x = np.full(b.shape, np.nan)
    for index in np.flatnonzero(solved):
        try:
            x[index] = _cholesky_solve(stack[index], factors[index], b[index])
        except np.linalg.LinAlgError:
            solved[index] = False
            failure = failure or partial(_zero_pivot, context, index, len(stack))
    return x.reshape(rhs.shape), solved, failure


def _spd_solve(stack: np.ndarray, rhs: np.ndarray, context: str,
               advice: str = "") -> np.ndarray:
    """``_spd_solve_members``' solution; raises the error it builds when a
    member failed."""
    x, _, failure = _spd_solve_members(stack, rhs, context, advice)
    if failure is not None:
        raise failure()
    return x


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_b . b_b over leading batch axes, each rounded as the 1-D ``a_b @ b_b``
    (BLAS ddot on the operands' own strides)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _matvec(matrices: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """matrices @ v for each vector v of a batch (..., m), rounded as the 1-D form."""
    return (matrices @ vectors[..., None])[..., 0]


def _flat_deflated_solve(gram_inc, emb_scale, emb_inc, output_scale2):
    """Solve (J + E) W = c (1 + delta) with the ones-direction eliminated.

    J = 11^T swamps E by up to sixteen decades when the kernel is almost
    flat; splitting W over span{1} and its orthogonal complement keeps the
    meaningful part of the system at the scale of E, which arrives with
    full relative precision.  The reduced Schur block is SPD and solved
    per member by ``_spd_solve_members``.  Every argument carries a
    leading batch axis of F sets of one size N: E (F, N, N), c (F,),
    delta (F, N) and the diagonal value s^2 (F,).  Returns (weights, q,
    failure), with q the mean embedding and the weights of a member that
    fails NaN, as from ``_spd_solve_members``.
    """
    n_pts = gram_inc.shape[-1]
    # Householder basis: column 0 is 1/sqrt(N), the rest span its complement
    u = np.full(n_pts, 1.0 / np.sqrt(n_pts))
    v = -u
    v[0] += 1.0
    basis = np.eye(n_pts) - 2.0 * np.outer(v, v) / (v @ v)
    complement = basis[:, 1:]

    e_u = gram_inc @ u
    pivot = n_pts + _dot(u, e_u)
    coupling = _matvec(complement.T, e_u)
    reduced = complement.T @ gram_inc @ complement
    schur = reduced - coupling[:, :, None] * coupling[:, None, :] / pivot[:, None, None]

    rhs_scale = emb_scale  # the s^2 factor cancels between K and q
    b_u = rhs_scale * (np.sqrt(n_pts) + _dot(u, emb_inc))
    b_c = rhs_scale[:, None] * _matvec(complement.T, emb_inc)
    beta, _, failure = _spd_solve_members(
        schur, b_c - coupling * (b_u / pivot)[:, None],
        "deflated weight system", _SINGULAR_ADVICE)
    alpha = (b_u - _dot(coupling, beta)) / pivot
    weights = u * alpha[:, None] + _matvec(complement, beta)
    q = (output_scale2 * rhs_scale)[:, None] * (1.0 + emb_inc)
    return weights, q, failure


class _WeightSystem(NamedTuple):
    """The weight system of a point set, or of each set in a batch; the
    shapes below gain the batch axes in front."""

    weights: np.ndarray     # (N,) solution of (K + jitter I) W = q, NaN if unsolved
    # (N, N) K + jitter I; the kernel derivatives see the same values as
    # from K alone, since the SE ones scale the diagonal by x_i - x_i = 0
    # and the Hermite ones never read it
    gram: np.ndarray
    embedding: np.ndarray   # (N,) kernel mean embedding q
    failure: _Failure | None  # builds the error for an unsolved set

    @property
    def q_dot_w(self) -> np.ndarray:
        return _dot(self.embedding, self.weights)


def _solve_weight_system(kernel, points: np.ndarray, jitter: float) -> _WeightSystem:
    """Weights together with the Gram matrix and embedding they solve.

    ``points`` is one set (N, n) or a batch of sets (..., N, n), each
    solved as it would be alone.  At zero jitter a set over which the
    kernel is nearly flat (every Gram increment below
    ``FLAT_INCREMENT_THRESHOLD``) takes the deflated solve.  Such a set has
    K_ij > 0.9 K_ii everywhere, so the increments are computed only for
    sets whose Gram matrix has min K_ij > 0.8 K_ii; when no set is flat,
    the batch goes straight to one solve.  A set whose system is not
    positive definite gets NaN weights; it does not disturb the others.
    """
    batch, (count, n) = points.shape[:-2], points.shape[-2:]
    stack = points.reshape(-1, count, n)
    gram, q = kernel.gram_and_embedding(stack)
    if jitter:
        np.einsum("...ii->...i", gram)[...] += jitter  # in place: no N x N temporaries
    flat = ()
    if jitter == 0.0 and count > 1:
        # a kernel with flat increments has one diagonal value s^2
        near = gram.min(axis=(1, 2)) > 0.8 * gram[:, 0, 0]
        gram_inc = kernel.flat_increments(stack[near]) if np.count_nonzero(near) else None
        if gram_inc is not None:
            is_flat = np.abs(gram_inc).max(axis=(1, 2)) < FLAT_INCREMENT_THRESHOLD
            flat, gram_inc = np.flatnonzero(near)[is_flat], gram_inc[is_flat]
    if not len(flat):
        weights, _, failure = _spd_solve_members(
            gram, q, "quadrature weight system", _SINGULAR_ADVICE)
    else:
        weights = np.empty((len(stack), count))
        plain = np.delete(np.arange(len(stack)), flat)
        weights[plain], _, failure = _spd_solve_members(
            gram[plain], q[plain], "quadrature weight system", _SINGULAR_ADVICE)
        s2 = gram[flat, 0, 0]  # the diagonal value s^2
        weights[flat], q[flat], flat_failure = _flat_deflated_solve(
            gram_inc, *kernel.flat_embedding(stack[flat]), s2)
        gram[flat] = s2[:, None, None] * (1.0 + gram_inc)
        failure = failure or flat_failure
    return _WeightSystem(weights.reshape(*batch, count), gram.reshape(*batch, count, count),
                         q.reshape(*batch, count), failure)


def _single_system(kernel, points: UnitPointSet, jitter: float) -> _WeightSystem:
    """The weight system of one set; raises where it is not positive definite."""
    system = _solve_weight_system(kernel, points.points, jitter)
    if system.failure is not None:
        raise system.failure()
    return system


def _clamped_variance(kernel, points: UnitPointSet, q_dot_w: float) -> float:
    variance = kernel.double_integral(points.dimension) - q_dot_w
    if variance < -VARIANCE_CLAMP:
        raise NumericalError(
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
    system = _single_system(kernel, points, jitter)
    return QuadratureRule(
        points=points,
        weights=system.weights,
        jitter=jitter,
        posterior_variance=_clamped_variance(kernel, points, float(system.q_dot_w)),
    )


def gpq_variance(kernel, points: UnitPointSet, jitter: float = 0.0) -> float:
    """Posterior variance of the integral estimate for a point set."""
    return gpq_weights(kernel, points, jitter).posterior_variance


def _variance_gradient(kernel, points: np.ndarray, system: _WeightSystem) -> np.ndarray:
    d_gram, d_embedding = kernel.derivatives(points, system.gram, system.embedding)
    w = system.weights
    return 2.0 * w[..., None] * (np.einsum("...ikd,...k->...id", d_gram, w) - d_embedding)


def gpq_variance_and_gradient(kernel, points, jitter: float = 0.0):
    """Posterior variance and its (N, n) gradient in the points.

    With W = (K + jitter I)^{-1} q from the one weight solve,
    dV/dx_i = 2 W_i (sum_k W_k d/dx_i K(x_i, x_k) - d/dx_i q(x_i));
    the derivatives come from ``kernel.derivatives``.

    ``points`` is a ``UnitPointSet``, or an array (..., N, n) of sets that
    are evaluated together, each as it would be alone.  A single set fails
    like ``gpq_variance``, and where its variance is clamped to zero the
    gradient is zero too; it returns (float, (N, n) array).  A batch
    returns variances (...,) and gradients (..., N, n) and raises for no
    member: a member whose system is not positive definite, whose variance
    is below the -1e-9 clamp, or whose variance or gradient is not finite
    reads +inf with a zero gradient, and a member clamped to zero reads 0
    with a zero gradient.
    """
    if isinstance(points, UnitPointSet):
        system = _single_system(kernel, points, jitter)
        variance = _clamped_variance(kernel, points, float(system.q_dot_w))
        if variance == 0.0:
            return variance, np.zeros_like(points.points)
        return variance, _variance_gradient(kernel, points.points, system)
    points = np.asarray(points, dtype=float)
    system = _solve_weight_system(kernel, points, jitter)
    variance = kernel.double_integral(points.shape[-1]) - system.q_dot_w
    with np.errstate(invalid="ignore"):
        gradient = _variance_gradient(kernel, points, system)
    # every member solved, positive and finite, the common case: no masks
    if (system.failure is None and np.count_nonzero(np.isfinite(gradient)) == gradient.size
            and np.count_nonzero((variance > 0.0) & np.isfinite(variance)) == variance.size):
        return variance, gradient
    # an unsolved member's NaN weights make its variance NaN
    failed = ~((variance >= -VARIANCE_CLAMP) & np.isfinite(variance)
               & np.isfinite(gradient).all(axis=(-2, -1)))
    variance = np.where(failed, np.inf, np.maximum(variance, 0.0))
    gradient[failed | (variance == 0.0)] = 0.0
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
    coeffs = _spd_solve(gram[None], obs[None], "regression system", _SINGULAR_ADVICE)
    cross = kernel.eval(np.atleast_2d(np.asarray(query, dtype=float)), train)
    return float((cross @ coeffs[0])[0])
