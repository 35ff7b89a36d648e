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
    solved from the moment-matching conditions on {1, x1^2, x1^2 x2^2};
    exactness on x1^4 then follows and is asserted.
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

    def class_sums(g):
        return np.array([g(origin).sum(), g(axis).sum(), g(pair).sum()])

    # exactness conditions: E[1]=1, E[x1^2]=1, E[x1^2 x2^2]=1
    system = np.array([
        class_sums(lambda p: np.ones(p.shape[0])),
        class_sums(lambda p: p[:, 0] ** 2),
        class_sums(lambda p: p[:, 0] ** 2 * p[:, 1] ** 2),
    ])
    moments = np.array([1.0, 1.0, 1.0])
    if abs(np.linalg.det(system)) < 1e-12:
        raise AssertionError("degree-5 exactness system is singular")
    w_class = np.linalg.solve(system, moments)
    fourth = class_sums(lambda p: p[:, 0] ** 4) @ w_class
    assert abs(fourth - 3.0) < 1e-10, "degree-5 rule failed the x1^4 moment"
    weights = np.concatenate([
        np.full(1, w_class[0]),
        np.full(axis.shape[0], w_class[1]),
        np.full(pair.shape[0], w_class[2]),
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


def optimize_points(kernel, n: int, count: int, seed: int,
                    settings: OptimizerSettings | None = None) -> UnitPointSet:
    """Minimum-posterior-variance point set for the given kernel.

    Quasi-Newton (BFGS) descent on the stacked N*n coordinate vector with
    the exact gradient, which comes from the same weight solve as the
    variance (``gpq_variance_and_gradient``; the kernel supplies its
    derivatives), multi-start from seeded Gaussian initializations; the
    lowest-variance result wins, ties broken by restart index.  The
    returned set never has higher variance than the best initialization.
    """
    # deferred: quadrature imports this module, and only the optimizer
    # needs scipy.optimize
    from scipy.optimize import minimize

    from .quadrature import gpq_variance_and_gradient

    if n < 1 or count < 1:
        raise ValueError("need n >= 1 and count >= 1")
    if count * n > 2000:
        raise ValueError(f"{count * n} coordinates exceed the optimizer cap of 2000")
    settings = settings or OptimizerSettings()

    def objective(flat: np.ndarray) -> tuple[float, np.ndarray]:
        try:
            pts = UnitPointSet(flat.reshape(count, n), "optimized")
            v, grad = gpq_variance_and_gradient(kernel, pts, settings.jitter)
        except (np.linalg.LinAlgError, ValueError):
            return np.inf, np.zeros_like(flat)
        if not (np.isfinite(v) and np.all(np.isfinite(grad))):
            return np.inf, np.zeros_like(flat)
        return v, grad.ravel()

    rng = np.random.default_rng(seed)
    best_flat, best_var = None, np.inf
    failures = 0
    for _ in range(settings.restarts):
        start = rng.standard_normal(count * n)
        f_start = objective(start)[0]
        if not np.isfinite(f_start):
            failures += 1
            continue
        result = minimize(
            objective, start, jac=True, method="BFGS",
            options={"maxiter": settings.max_iterations, "gtol": 1e-10},
        )
        candidate, f_cand = result.x, result.fun
        if not np.isfinite(f_cand) or f_cand > f_start:
            candidate, f_cand = start, f_start
        if f_cand < best_var:
            best_flat, best_var = candidate, f_cand
    if best_flat is None:
        raise RuntimeError(
            f"all {settings.restarts} optimizer restarts produced non-finite "
            f"variances ({failures} failed initializations)"
        )
    return UnitPointSet(best_flat.reshape(count, n), "optimized")
