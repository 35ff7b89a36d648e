"""Gaussian process quadrature: rules, weights and posterior variance.

A ``QuadratureRule`` is a ``UnitPointSet`` of unit sigma-points in the
standardized N(0, I) coordinates with its weights, whoever chose them:
the classical generators of ``points`` (unscented, spherical cubature,
degree-5 symmetric, Gauss-Hermite tensor) give rules with their
classical weights; random, Hammersley and variance-optimized sets are
plain point sets, weighted here.

A GP-quadrature rule is built by conditioning a zero-mean GP with
covariance K on function evaluations at unit sigma-points and
integrating the posterior mean against N(0, I).  The weights solve
(K + sigma^2 I) W = q with K_ij = K(xi_i, xi_j) and q_i the kernel mean
embedding at xi_i; the posterior variance of the integral is the double
Gaussian integral of K minus q^T W.  Weights may be negative; the
variance is zero exactly when the points resolve the kernel's function
class, which is how the classical unscented / cubature / Gauss-Hermite
weights drop out.  The variance's gradient in the points follows from
the same solve; variance and gradient are also computed for a batch of
point sets at once, each set solved as it would be alone.

Every SPD matrix, here and in the filter, is factored by one path:
``_positive_definite`` factors a stack in one batched Cholesky call, by
blocks above ``_BLOCK`` unknowns, and member by member only when that
fails.  ``_spd_solve_members`` solves on those factors and finds the
members that fail; ``_spd_solve`` raises for the first of them.
``matrix_sqrt`` gives a member that fails Cholesky an eigendecomposition
square root and counts it.  Every verdict that a matrix is asymmetric or
not PSD, or a variance below its clamp, is made here, by one tolerance
each, relative to the quantity's own scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "NumericalError",
    "UnitPointSet",
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


class NumericalError(np.linalg.LinAlgError):
    """A numerical failure: a study's error cell, the CLI's exit code 2 and
    a filter's per-rule stop; any other exception is a programming error."""


@dataclass(frozen=True)
class UnitPointSet:
    """N unit sigma-points of dimension n."""

    points: np.ndarray     # (N, n)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            raise ValueError("point set must contain at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point set contains non-finite values")
        object.__setattr__(self, "points", pts)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class QuadratureRule:
    """Unit sigma-points with integration weights.

    ``posterior_variance`` is the GP-model variance of the integral
    estimate, None for weights that no kernel chose (the classical rules,
    uniform Monte Carlo weights); it is shared across output components
    since the kernel is.
    """

    points: UnitPointSet
    weights: np.ndarray
    posterior_variance: float | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.points.count,):
            raise ValueError("one weight per point required")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        object.__setattr__(self, "weights", w)


class MatrixSqrtResult(NamedTuple):
    factor: np.ndarray
    spd_fallback: int   # how many matrices took the eigendecomposition route


def _member(index: int, size: int) -> str:
    """Names a position in a batch; a batch of one needs no name."""
    return f" for batch member {index}" if size > 1 else ""


# the verdicts' tolerances, with no floor, so other units give the same verdict:
# asymmetry against the matrix's largest |entry|, an eigenvalue against its
# largest |eigenvalue|, a variance against the prior variance k = double integral
SYMMETRY_TOLERANCE = 1e-9
PSD_TOLERANCE = 1e-10
VARIANCE_TOLERANCE = 1e-9


def _written(tolerance: float) -> str:  # 1e-9 as written, not 1e-09
    return np.format_float_scientific(tolerance, trim="-", exp_digits=1)


def _check_symmetric(stack: np.ndarray) -> None:
    """ValueError naming the first member of a stack (B, n, n) asymmetric
    beyond ``SYMMETRY_TOLERANCE``; NaN passes.  The filter symmetrizes its
    covariances exactly, so the exact test spares its steps the rest."""
    if stack.shape[-1] > 1 and not (stack == stack.transpose(0, 2, 1)).all():
        scale = np.abs(stack).max(axis=(1, 2))
        asymmetry = np.abs(stack - stack.transpose(0, 2, 1)).max(axis=(1, 2))
        asymmetric = np.flatnonzero(asymmetry > SYMMETRY_TOLERANCE * scale)
        if asymmetric.size:
            raise ValueError(f"matrix is asymmetric beyond {_written(SYMMETRY_TOLERANCE)} "
                             "relative tolerance" + _member(asymmetric[0], len(stack)))


def _checked_cov(cov, what: str, error: type[Exception] = ValueError):
    """``cov``, a scalar s checked as s I, once finite and ``matrix_sqrt``
    passes it; else ``error`` naming ``what``, a ValueError, no NumericalError."""
    try:
        matrix = np.asarray(cov, dtype=float)
        if not np.isfinite(matrix).all():
            raise ValueError("matrix is not finite")
        matrix_sqrt(matrix.reshape(1, 1) if matrix.ndim == 0 else matrix)
    except ValueError as exc:
        raise error(f"{what}: {exc}") from exc
    return cov


def matrix_sqrt(cov: np.ndarray) -> MatrixSqrtResult:
    """Lower-triangular Cholesky factor of a symmetric PSD matrix.

    ``cov`` is one (n, n) matrix or a stack (..., n, n), checked by
    ``_check_symmetric`` and factored by ``_positive_definite``.  A matrix
    on which Cholesky fails (near singular) falls back alone to a
    symmetric eigendecomposition square root with negative eigenvalues
    clipped to zero, unless one lies below ``PSD_TOLERANCE``;
    ``spd_fallback`` counts those matrices.  Errors name the failing
    matrix's position in the flattened stack.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim < 2 or cov.shape[-1] != cov.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {cov.shape}")
    stack = cov.reshape(-1, *cov.shape[-2:])
    _check_symmetric(stack)
    factors, passed = _positive_definite(stack)
    failed = () if passed is None else np.flatnonzero(~passed)
    for index in failed:
        eigvals, eigvecs = np.linalg.eigh(0.5 * (stack[index] + stack[index].T))
        if eigvals.min() < -PSD_TOLERANCE * np.abs(eigvals).max():
            raise NumericalError(f"matrix is not PSD{_member(index, len(stack))}: "
                                 f"smallest eigenvalue {eigvals.min():.3e}")
        factors[index] = eigvecs @ np.diag(np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.T
    return MatrixSqrtResult(factors.reshape(cov.shape), len(failed))


# systems of more unknowns than this are factored, and solved on their
# factors, in blocks of this many; smaller ones take one LAPACK call each.
# The SE kernel builds its Gram matrix this many rows at a time
_BLOCK = 128

# gives member b of a stack anew, after its factorization overwrote it
_Rebuild = Callable[[int], np.ndarray]


def _positive_definite(stack: np.ndarray,
                       overwrite: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """The lower Cholesky factors of a stack (B, m, m), and which passed.

    One batched call factors the stack when every matrix passes; the mask
    is then None, so the common case builds none.  Only when it fails is
    each matrix factored on its own: the (B,) mask marks the members that
    passed, and a member that fails gets NaN factors.  Above ``_BLOCK``
    unknowns ``_blocked_cholesky`` factors the stack instead, with the same
    mask and NaN factors, into the stack itself when ``overwrite`` is set.

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
    if stack.shape[-1] > _BLOCK:
        return _blocked_cholesky(stack, overwrite)
    try:
        return np.linalg.cholesky(stack), None
    except np.linalg.LinAlgError:
        return _each_cholesky(stack)


def _each_cholesky(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each matrix of a stack (B, m, m) factored on its own: the factors,
    NaN where it fails, and the (B,) mask of those that passed."""
    factors = np.full_like(stack, np.nan)
    passed = np.ones(len(stack), dtype=bool)
    for index, matrix in enumerate(stack):
        try:
            factors[index] = np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError:
            passed[index] = False
    return factors, passed


def _blocked_cholesky(stack: np.ndarray,
                      overwrite: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """``_positive_definite`` of a stack (B, m, m) by blocks of ``_BLOCK``.

    The left-looking block Cholesky of Golub & Van Loan (*Matrix
    Computations*, ch. 4): block column j is A's lower trapezoid there
    less the factor columns to its left, one matmul;
    ``np.linalg.cholesky`` factors its diagonal blocks and the panel below
    is multiplied by their inverses' transposes.  Step j reads only A's
    columns at and right of block j, none of which an earlier step wrote,
    so with ``overwrite`` the factors replace the stack in place and the
    stack is the only m x m array held; the factors' strictly upper
    off-diagonal blocks then keep A's entries, which no solve reads.
    Otherwise they go into one new array, zero above the diagonal: two
    arrays, where ``np.linalg.cholesky`` holds three, its copy of the input
    too.  The arithmetic and the strides are the same either way.  A
    member whose diagonal block fails gets NaN factors; from then on it
    carries an identity block column, so it neither fails again nor
    disturbs the others, which round as they would alone.
    """
    factors = stack if overwrite else np.zeros_like(stack)
    passed = np.ones(len(stack), dtype=bool)
    for j in range(0, stack.shape[-1], _BLOCK):
        block = slice(j, j + _BLOCK)
        column = factors[:, j:, :j] @ np.swapaxes(factors[:, block, :j], -1, -2)
        np.subtract(stack[:, j:, block], column, out=column)
        if not passed.all():
            column[~passed] = np.eye(*column.shape[1:])
        try:
            diagonal = np.linalg.cholesky(column[:, :_BLOCK])
        except np.linalg.LinAlgError:
            diagonal, block_passed = _each_cholesky(column[:, :_BLOCK])
            passed &= block_passed
            identity = np.eye(*column.shape[1:])
            column[~passed] = identity
            diagonal[~block_passed] = identity[:_BLOCK]
        factors[:, block, block] = diagonal
        factors[:, j + _BLOCK:, block] = column[:, _BLOCK:] @ np.swapaxes(
            np.linalg.inv(diagonal), -1, -2)
    if passed.all():
        return factors, None
    factors[~passed] = np.nan
    return factors, passed


def _not_positive_definite(context: str, stack: np.ndarray, index: int,
                           advice: str = "", rebuild: _Rebuild | None = None) -> NumericalError:
    """The error for member ``index`` of a stack (B, m, m), the first that
    failed Cholesky: names ``context``, the member and its minimum
    eigenvalue, then ``advice``.  ``rebuild(index)`` gives the member back
    where its factorization overwrote it."""
    matrix = stack[index] if rebuild is None else rebuild(index)
    return NumericalError(
        f"{context} not positive definite{_member(index, len(stack))} "
        f"(min eigenvalue {np.linalg.eigvalsh(matrix).min():.3e}){advice}"
    )


_SINGULAR_ADVICE = "; numerically singular, raise the jitter to regularize"


def _zero_pivot(context: str, index: int, size: int) -> NumericalError:
    """The error for member ``index`` of a stack of ``size`` that passed
    Cholesky and still met an exactly zero pivot in the solve."""
    return NumericalError(
        f"{context} has an exactly zero pivot{_member(index, size)} "
        f"after passing the Cholesky check{_SINGULAR_ADVICE}")


def _cholesky_solve(matrices: np.ndarray, factors: np.ndarray,
                    rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(matrices, rhs)`` given the lower Cholesky factors.

    ``matrices`` and ``factors`` are (..., m, m), ``rhs`` is (m,) or
    (..., m, k) as for ``np.linalg.solve``; the matrices have passed
    Cholesky.  A 1x1 system with one right-hand side (a vector or one
    column) is ``rhs / a``: LAPACK's LU solve divides there too (OpenBLAS
    trsv), so the quotient is bit-identical.  With more columns OpenBLAS
    multiplies by the reciprocal instead, so those stay on
    ``np.linalg.solve``.  Up to ``_BLOCK`` unknowns the LU call is
    cheaper than a loop and the factors go unused.  Above it the factors,
    which ``_positive_definite`` builds by ``_blocked_cholesky``, are
    reused: a blocked forward substitution with L and a blocked back
    substitution with L^T (Golub & Van Loan, *Matrix Computations*,
    ch. 3) solve each diagonal block with ``np.linalg.solve`` and update
    the rest by matmul, so the system is factored only once and no third
    m x m array is built.
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


def _spd_solve_members(stack: np.ndarray, rhs: np.ndarray, context: str, advice: str,
                       rebuild: _Rebuild | None = None) -> tuple[np.ndarray, _Failure | None]:
    """Solve ``stack[b] @ x[b] = rhs[b]`` for each SPD member of (B, m, m).

    ``rhs`` is (B, m) or (B, m, k).  When every member passes Cholesky,
    ``_cholesky_solve`` solves the stack on the batched factors.  A member
    that is not positive definite, or that passes Cholesky and meets an
    exactly zero pivot in the solve, gets a NaN solution and does not
    disturb the others.  Returns x shaped as ``rhs`` and None or the
    builder of the failure's error: ``_not_positive_definite``'s, else
    ``_zero_pivot``'s for the first member that met one.

    A caller whose stack is its own temporary passes ``rebuild``, which
    gives member b's matrix anew: the stack is then overwritten by its
    factors, and only a failure's error rebuilds the member it names.
    """
    b = rhs if rhs.ndim == stack.ndim else rhs[..., None]  # (B, m, k)
    factors, passed = _positive_definite(stack, overwrite=rebuild is not None)
    if passed is None:
        try:
            return _cholesky_solve(stack, factors, b).reshape(rhs.shape), None
        except np.linalg.LinAlgError:
            passed = np.ones(len(stack), dtype=bool)
    failure = None if passed.all() else partial(
        _not_positive_definite, context, stack, int(np.argmin(passed)), advice, rebuild)
    x = np.full(b.shape, np.nan)
    for index in np.flatnonzero(passed):
        try:
            x[index] = _cholesky_solve(stack[index], factors[index], b[index])
        except np.linalg.LinAlgError:
            failure = failure or partial(_zero_pivot, context, index, len(stack))
    return x.reshape(rhs.shape), failure


def _spd_solve(stack: np.ndarray, rhs: np.ndarray, context: str,
               advice: str = "", rebuild: _Rebuild | None = None) -> np.ndarray:
    """``_spd_solve_members``' solution; raises the error it builds when a
    member failed."""
    x, failure = _spd_solve_members(stack, rhs, context, advice, rebuild)
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
    beta, failure = _spd_solve_members(
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
    # (N, N) K + jitter I, None where the solve overwrote it; the kernel's
    # weighted derivative sees the same values as from K alone, since the
    # SE one scales the diagonal by x_i - x_i = 0 and the Hermite one never
    # reads it
    gram: np.ndarray | None
    embedding: np.ndarray   # (N,) kernel mean embedding q
    variance: np.ndarray    # () posterior variance, k - q^T W, NaN if unsolved
    prior: float            # the prior variance k, the kernel's double integral
    failure: _Failure | None  # builds the error for an unsolved set

    def below_clamp(self) -> np.ndarray:
        """Where the variance is below the clamp, -``VARIANCE_TOLERANCE`` k."""
        return self.variance < -VARIANCE_TOLERANCE * self.prior

    def checked_variance(self) -> float:
        """The verdict on a single set: its variance clamped to >= 0; raises
        the failure of an unsolved system, or for a variance below the clamp."""
        if self.failure is not None:
            raise self.failure()
        if self.below_clamp():
            raise NumericalError(
                f"posterior variance {float(self.variance):.3e} below the clamp, "
                f"-{_written(VARIANCE_TOLERANCE)} of the prior variance {self.prior:.3e}; "
                "the weight system is numerically unreliable, raise the jitter")
        return max(float(self.variance), 0.0)


def _jittered(gram: np.ndarray, jitter: float) -> np.ndarray:
    """``gram`` (..., N, N) with ``jitter`` added to its diagonal, in place:
    no N x N temporaries."""
    if jitter:
        np.einsum("...ii->...i", gram)[...] += jitter
    return gram


def _solve_weight_system(kernel, points: np.ndarray, jitter: float,
                         overwrite: bool = False) -> _WeightSystem:
    """Weights together with the Gram matrix and embedding they solve.

    ``points`` is one set (N, n) or a batch of sets (..., N, n), each
    solved as it would be alone.  At zero jitter a set over which the
    kernel is nearly flat (every Gram increment below
    ``FLAT_INCREMENT_THRESHOLD``) takes the deflated solve.  Such a set has
    K_ij > 0.9 K_ii everywhere, so the increments are computed only for
    sets whose Gram matrix has min K_ij > 0.8 K_ii; when no set is flat,
    the batch goes straight to one solve.  A set whose system is not
    positive definite gets NaN weights; it does not disturb the others.
    With ``overwrite``, for a caller that reads no Gram matrix, the solve
    may factor it in place and the system's ``gram`` is None.
    """
    batch, (count, n) = points.shape[:-2], points.shape[-2:]
    stack = points.reshape(-1, count, n)
    gram, q = kernel.gram_and_embedding(stack)
    _jittered(gram, jitter)
    flat = ()
    if jitter == 0.0 and count > 1:
        # a kernel with flat increments has one diagonal value s^2
        near = gram.min(axis=(1, 2)) > 0.8 * gram[:, 0, 0]
        gram_inc = kernel.flat_increments(stack[near]) if np.count_nonzero(near) else None
        if gram_inc is not None:
            is_flat = np.abs(gram_inc).max(axis=(1, 2)) < FLAT_INCREMENT_THRESHOLD
            flat, gram_inc = np.flatnonzero(near)[is_flat], gram_inc[is_flat]
    if not len(flat):
        weights, failure = _spd_solve_members(
            gram, q, "quadrature weight system", _SINGULAR_ADVICE,
            (lambda index: _jittered(kernel.gram(stack[index]), jitter)) if overwrite else None)
    else:
        weights = np.empty((len(stack), count))
        plain = np.delete(np.arange(len(stack)), flat)
        weights[plain], failure = _spd_solve_members(
            gram[plain], q[plain], "quadrature weight system", _SINGULAR_ADVICE)
        s2 = gram[flat, 0, 0]  # the diagonal value s^2
        weights[flat], q[flat], flat_failure = _flat_deflated_solve(
            gram_inc, *kernel.flat_embedding(stack[flat]), s2)
        gram[flat] = s2[:, None, None] * (1.0 + gram_inc)
        failure = failure or flat_failure
    weights, q = weights.reshape(*batch, count), q.reshape(*batch, count)
    prior = kernel.double_integral(n)
    return _WeightSystem(weights, None if overwrite else gram.reshape(*batch, count, count),
                         q, prior - _dot(q, weights), prior, failure)


def gpq_weights(kernel, points: UnitPointSet, jitter: float = 0.0) -> QuadratureRule:
    """Build the quadrature rule for a kernel over a unit point set.

    Solves (K + jitter I) W = q after a Cholesky check that the system is
    positive definite; the posterior variance comes from the same solve
    and is cached on the rule.  A singular system at zero jitter raises
    with the offending conditioning rather than regularizing silently.
    """
    system = _solve_weight_system(kernel, points.points, jitter, overwrite=True)
    return QuadratureRule(points, system.weights, system.checked_variance())


def gpq_variance(kernel, points: UnitPointSet, jitter: float = 0.0) -> float:
    """Posterior variance of the integral estimate for a point set."""
    return gpq_weights(kernel, points, jitter).posterior_variance


def gpq_variance_and_gradient(kernel, points, jitter: float = 0.0):
    """Posterior variance and its (N, n) gradient in the points.

    With W = (K + jitter I)^{-1} q from the one weight solve,
    dV/dx_i = 2 W_i (sum_k W_k d/dx_i K(x_i, x_k) - d/dx_i q(x_i)); the
    bracket, an (N, n) array, comes from ``kernel.weighted_derivative``.

    ``points`` is a ``UnitPointSet``, or an array (..., N, n) of sets that
    are evaluated together, each as it would be alone.  A batch returns
    variances (...,) and gradients (..., N, n) and raises for no member: a
    member whose system is not positive definite, whose variance is below
    the clamp of ``_WeightSystem.below_clamp``, or whose variance or gradient
    is not finite reads +inf with a zero gradient, and a member clamped to
    zero reads 0 with a zero gradient.  A single set takes ``gpq_variance``'s
    verdict first, so it raises where a member would read +inf from its
    system, and returns (float, (N, n) array).
    """
    single = isinstance(points, UnitPointSet)
    points = points.points if single else np.asarray(points, dtype=float)
    system = _solve_weight_system(kernel, points, jitter)
    variance = system.checked_variance() if single else system.variance
    w = system.weights
    with np.errstate(invalid="ignore"):
        gradient = 2.0 * w[..., None] * kernel.weighted_derivative(
            points, system.gram, system.embedding, w)
    # every member solved, positive and finite, the common case: no masks
    if (system.failure is None and np.count_nonzero(np.isfinite(gradient)) == gradient.size
            and np.count_nonzero((variance > 0.0) & np.isfinite(variance)) == np.size(variance)):
        return variance, gradient
    # an unsolved member's NaN weights make its variance NaN
    failed = system.below_clamp() | ~(np.isfinite(variance)
                                      & np.isfinite(gradient).all(axis=(-2, -1)))
    variance = np.where(failed, np.inf, np.maximum(variance, 0.0))
    gradient[failed | (variance == 0.0)] = 0.0
    return (float(variance) if single else variance), gradient


def gp_regression_mean(kernel, train_points, observations,
                       jitter: float, query) -> float:
    """GP posterior mean k(x*)^T (K + jitter I)^{-1} o at a query point."""
    train = np.atleast_2d(np.asarray(train_points, dtype=float))
    obs = np.asarray(observations, dtype=float)
    if obs.shape != (train.shape[0],):
        raise ValueError("one observation per training point required")
    # the Gram matrix is this call's own, so the solve may overwrite it
    coeffs = _spd_solve(_jittered(kernel.gram(train), jitter)[None], obs[None],
                        "regression system", _SINGULAR_ADVICE,
                        lambda _: _jittered(kernel.gram(train), jitter))
    cross = kernel.eval(np.atleast_2d(np.asarray(query, dtype=float)), train)
    return float((cross @ coeffs[0])[0])
