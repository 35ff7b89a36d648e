"""Generators for unit sigma-point sets in R^n.

All sets live in the standardized N(0, I) coordinates; filters and
transforms map them through m + sqrt(P) xi.  A ``QuadratureRule`` is a
point set with its weights, whoever chose them: the classical generators
(unscented, spherical cubature, degree-5 symmetric, Gauss-Hermite tensor)
return rules with their classical weights; random, Hammersley and
variance-optimized sets are plain point sets to be weighted by the
quadrature solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .hermite import gh_roots_weights

__all__ = [
    "UnitPointSet",
    "QuadratureRule",
    "ut_points",
    "cubature_points",
    "symmetric5_points",
    "gauss_hermite_points",
    "hammersley_points",
    "random_points",
    "optimize_points",
    "OptimizerSettings",
]

MAX_TENSOR_POINTS = 10**6


@dataclass(frozen=True)
class UnitPointSet:
    """N unit sigma-points of dimension n with a provenance tag."""

    points: np.ndarray     # (N, n)
    provenance: str

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
    jitter: float = 0.0
    posterior_variance: float | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.points.count,):
            raise ValueError("one weight per point required")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")
        object.__setattr__(self, "weights", w)


def _axis_points(n: int, radius: float) -> np.ndarray:
    eye = radius * np.eye(n)
    return np.vstack([eye, -eye])


def ut_points(n: int, kappa: float) -> QuadratureRule:
    """Canonical unscented transform rule: 2n+1 points.

    Origin plus +-sqrt(n+kappa) along each axis; weights kappa/(n+kappa)
    at the origin and 1/(2(n+kappa)) elsewhere.  Exact for polynomials of
    total degree <= 3 under N(0, I).
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if n + kappa <= 0:
        raise ValueError(f"need n + kappa > 0, got n={n}, kappa={kappa}")
    radius = np.sqrt(n + kappa)
    pts = np.vstack([np.zeros((1, n)), _axis_points(n, radius)])
    weights = np.full(2 * n + 1, 1.0 / (2.0 * (n + kappa)))
    weights[0] = kappa / (n + kappa)
    return QuadratureRule(UnitPointSet(pts, f"ut(kappa={kappa:g})"), weights)


def cubature_points(n: int) -> QuadratureRule:
    """3rd-order spherical cubature rule: 2n points on the radius-sqrt(n)
    sphere, equal weights 1/(2n)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    pts = _axis_points(n, np.sqrt(n))
    return QuadratureRule(UnitPointSet(pts, "cubature"), np.full(2 * n, 1.0 / (2 * n)))


def symmetric5_points(n: int) -> QuadratureRule:
    """Degree-5 symmetric rule: 2n^2+1 points.

    Generator structure {origin; +-sqrt(3) e_i; (+-sqrt(3), +-sqrt(3)) in
    every coordinate-pair plane}.  The three symmetry-class weights are
    the closed form of the moment-matching conditions on
    {1, x1^2, x1^2 x2^2}: (n^2 - 7n + 18)/18 at the origin, (4 - n)/18 on
    the axes and 1/36 in the planes; exactness on x1^4 follows.
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    lam = np.sqrt(3.0)
    origin = np.zeros((1, n))
    axis = _axis_points(n, lam)
    pair = []
    for i, j in combinations(range(n), 2):
        for si, sj in product((1.0, -1.0), repeat=2):
            p = np.zeros(n)
            p[i], p[j] = si * lam, sj * lam
            pair.append(p)
    pair = np.array(pair)
    pts = np.vstack([origin, axis, pair])

    # closed form of E[1] = E[x1^2] = E[x1^2 x2^2] = 1 over the three classes:
    # w0 + 2n w_axis + 2n(n-1) w_pair = 1, 6 w_axis + 12(n-1) w_pair = 1 and
    # 36 w_pair = 1; E[x1^4] = 18 w_axis + 36(n-1) w_pair = 3 then holds too
    weights = np.concatenate([
        [(n * n - 7 * n + 18) / 18.0],
        np.full(axis.shape[0], (4 - n) / 18.0),
        np.full(pair.shape[0], 1.0 / 36.0),
    ])
    return QuadratureRule(UnitPointSet(pts, "symmetric5"), weights)


def gauss_hermite_points(n: int, order: int) -> QuadratureRule:
    """Gauss-Hermite tensor rule: P^n points, product weights."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if order**n > MAX_TENSOR_POINTS:
        raise ValueError(
            f"tensor grid of {order}^{n} points exceeds cap {MAX_TENSOR_POINTS}"
        )
    roots, w1 = gh_roots_weights(order)
    pts = np.array(list(product(roots, repeat=n)))
    weights = np.prod(np.array(list(product(w1, repeat=n))), axis=1)
    return QuadratureRule(UnitPointSet(pts, f"gauss-hermite(order={order})"), weights)


def _primes(count: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def radical_inverse(i: int, base: int) -> float:
    """Van der Corput radical inverse of i in the given base."""
    inv, denom = 0.0, 1.0
    while i > 0:
        denom *= base
        i, digit = divmod(i, base)
        inv += digit / denom
    return inv


def hammersley_points(n: int, count: int) -> UnitPointSet:
    """Hammersley quasi-random set mapped to the Gaussian.

    Unit-cube construction: first coordinate (i + 0.5)/N for i = 0..N-1,
    remaining coordinates the van der Corput sequences in the first n-1
    prime bases.  Each coordinate then passes through the inverse standard
    normal CDF; the single degenerate cube value u=0 (at i=0 in the
    radical-inverse coordinates) is clamped to 1e-12 so every mapped point
    stays finite.
    """
    from scipy.special import ndtri  # deferred: keeps scipy off the import path

    if n < 1 or count < 1:
        raise ValueError("need n >= 1 and count >= 1")
    cube = np.empty((count, n))
    cube[:, 0] = (np.arange(count) + 0.5) / count
    for d, base in enumerate(_primes(n - 1)):
        cube[:, d + 1] = [radical_inverse(i, base) for i in range(count)]
    clamped = np.clip(cube, 1e-12, 1.0 - 1e-12)
    return UnitPointSet(ndtri(clamped), "hammersley")


def random_points(n: int, count: int, seed: int) -> UnitPointSet:
    """count i.i.d. N(0, I) draws from numpy's seeded PCG64 generator."""
    if n < 1 or count < 1:
        raise ValueError("need n >= 1 and count >= 1")
    rng = np.random.default_rng(seed)
    return UnitPointSet(rng.standard_normal((count, n)), f"random(seed={seed})")


@dataclass(frozen=True)
class OptimizerSettings:
    restarts: int = 5
    max_iterations: int = 400
    jitter: float = 0.0

    def __post_init__(self):
        if self.restarts < 1 or self.max_iterations < 0 or self.jitter < 0:
            raise ValueError("need restarts >= 1, max_iterations >= 0 and jitter >= 0, "
                             f"got {self.restarts}, {self.max_iterations}, {self.jitter}")


# BFGS constants: stop at a gradient this small (max norm); Armijo's
# sufficient-decrease factor and the halvings one line search may take
GRADIENT_TOLERANCE = 1e-10
ARMIJO_C1 = 1e-4
MAX_HALVINGS = 12


def _check_optimizer_size(n: int, count: int) -> None:
    """``optimize_points``' checks of its arguments, which need no numerics."""
    if n < 1 or count < 1:
        raise ValueError("need n >= 1 and count >= 1")
    if count * n > 2000:
        raise ValueError(f"{count * n} coordinates exceed the optimizer cap of 2000")


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def optimize_points(kernel, n: int, count: int, seed: int,
                    settings: OptimizerSettings | None = None) -> UnitPointSet:
    """Minimum-posterior-variance point set for the given kernel.

    BFGS on the stacked N*n coordinate vector with the exact gradient,
    which comes from the same weight solve as the variance
    (``gpq_variance_and_gradient``; the kernel supplies its derivatives).
    Every restart starts from its own seeded Gaussian draw, and all of them
    run together as one batch: each iteration, and each trial step of the
    line search, is one batched evaluation over the restarts still
    running.  The line search backtracks from the full quasi-Newton step
    until Armijo's sufficient decrease holds (at most ``MAX_HALVINGS``
    halvings); the inverse-Hessian update is skipped when s^T y <= 0, the
    first update starts from the scaled identity (s^T y / y^T y) I, and a
    direction that does not descend is replaced by the negative gradient
    (Nocedal & Wright, Numerical Optimization, ch. 3 and 6).  A
    restart stops when its gradient's largest entry is at most
    ``GRADIENT_TOLERANCE``, after ``max_iterations`` iterations, or when
    its line search cannot decrease the variance.  A step that fails (a
    singular system, a variance below the clamp, a non-finite value)
    counts as infinite variance, so a restart never ends worse than its
    start.  The lowest variance wins, ties broken by restart index; when
    every restart's is infinite it raises ``NumericalError``.
    """
    # deferred: quadrature imports this module
    from .quadrature import NumericalError, gpq_variance_and_gradient

    _check_optimizer_size(n, count)
    settings = settings or OptimizerSettings()
    size = count * n

    def evaluate(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        variance, gradient = gpq_variance_and_gradient(
            kernel, flat.reshape(-1, count, n), settings.jitter)
        return variance, gradient.reshape(-1, size)

    rng = np.random.default_rng(seed)
    starts = [rng.standard_normal(size) for _ in range(settings.restarts)]
    x = np.array(starts).reshape(len(starts), size)
    f, g = evaluate(x)
    failures = int(np.sum(~np.isfinite(f)))
    # x, f, g and the Hessians hold the live restarts only; one that stops
    # leaves its last point and variance in x_all, f_all and never runs again
    x_all, f_all, live = x, f, np.arange(len(x))
    inverse_hessian = np.tile(np.eye(size), (len(starts), 1, 1))
    unscaled = np.ones(len(starts), dtype=bool)
    running = np.isfinite(f) & (np.abs(g).max(axis=1) > GRADIENT_TOLERANCE)
    for _ in range(settings.max_iterations):
        if np.count_nonzero(running) < len(live):
            x_all[live], f_all[live] = x, f
            live, x, f, g = live[running], x[running], f[running], g[running]
            inverse_hessian, unscaled = inverse_hessian[running], unscaled[running]
        if not len(live):
            break
        direction = -(inverse_hessian @ g[:, :, None])[:, :, 0]
        slope = _rowdot(direction, g)
        uphill = ~(slope < 0.0)
        if np.count_nonzero(uphill):
            direction[uphill] = -g[uphill]
            slope[uphill] = -_rowdot(g[uphill], g[uphill])
        # backtracking: every restart still searching tries its step in one
        # evaluation, the full step first; an accepted step strictly lowers f
        x_next = x + direction
        f_next, g_next = evaluate(x_next)
        accepted = (f_next <= f + ARMIJO_C1 * slope) & (f_next < f)
        searching, step = (), 1.0
        if np.count_nonzero(accepted) < len(x):  # a restart that finds no step keeps its point
            searching = np.flatnonzero(~accepted)
            x_next[searching], f_next[searching], g_next[searching] = (
                x[searching], f[searching], g[searching])
        while len(searching) and step > 0.5 ** MAX_HALVINGS:
            step *= 0.5
            x_trial = x[searching] + step * direction[searching]
            f_trial, g_trial = evaluate(x_trial)
            accepted = ((f_trial <= f[searching] + ARMIJO_C1 * step * slope[searching])
                        & (f_trial < f[searching]))
            done = searching[accepted]
            x_next[done], f_next[done], g_next[done] = (
                x_trial[accepted], f_trial[accepted], g_trial[accepted])
            searching = searching[~accepted]
        moved = f_next < f
        # BFGS: H <- (I - r s y^T) H (I - r y s^T) + r s s^T with r = 1 / s^T y,
        # where s^T y > 0; r = 0 leaves H exactly as it is
        s = x_next - x
        y = g_next - g
        sy = _rowdot(s, y)
        update = moved & (sy > 0.0)
        # the first update starts from H = (s^T y / y^T y) I instead of I
        first = update & unscaled
        if np.count_nonzero(first):
            inverse_hessian[first] = (np.eye(size)
                                      * (sy[first] / _rowdot(y[first], y[first]))[:, None, None])
        unscaled &= ~update
        r = (1.0 / sy if np.count_nonzero(update) == len(sy)
             else np.divide(1.0, sy, out=np.zeros_like(sy), where=update))
        rs = r[:, None] * s
        hy = (inverse_hessian @ y[:, :, None])[:, :, 0]
        curvature = (1.0 + r * _rowdot(y, hy))[:, None, None]
        inverse_hessian += (curvature * rs[:, :, None] * s[:, None, :]
                            - hy[:, :, None] * rs[:, None, :] - rs[:, :, None] * hy[:, None, :])
        x, f, g = x_next, f_next, g_next
        running = moved & (np.abs(g).max(axis=1) > GRADIENT_TOLERANCE)
    x_all[live], f_all[live] = x, f
    if not np.isfinite(f_all).any():
        raise NumericalError(
            f"all {settings.restarts} optimizer restarts produced non-finite "
            f"variances ({failures} failed initializations)"
        )
    return UnitPointSet(x_all[int(np.argmin(f_all))].reshape(count, n), "optimized")
