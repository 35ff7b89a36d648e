"""Sigma-point transform, Gaussian filter and RTS smoother over any rule.

Any ``QuadratureRule`` drives the recursions: classical unscented,
cubature or Gauss-Hermite weights give the familiar UKF/CKF/GHKF and
their smoothers, GP-quadrature weights give the GP-quadrature filter and
smoother.  The unit sigma-points and weights are fixed once per run; the
points are re-centered through m + sqrt(P) xi at every prediction and
update step.  The smoother reuses the filter's prediction moments.

The recursion runs over a batch at once: every rule of a group on every
trajectory (a single rule on a single trajectory is a batch of one).
With M rules and S trajectories there are B = M*S members; means are
(B, n), covariances (B, n, n), each member re-centers its own rule's unit
points (B, N, n) and weighs them with its own weights (B, N), and each
model function sees the (B*N, n) sigma points of a whole step.  Rules of
fewer points than the group's largest count N are padded to N with unit
points at the origin of weight 0: a padded point sits at its member's
mean and adds exact zeros to every weighted sum, so the member's numbers
are those of its rule run alone.  A failing step is retaken rule by rule.

Model functions are vectorized over the leading axis: ``f(X, k)`` maps an
(N, n) batch of states at destination index k to (N, n), ``h(X, k)`` maps
(N, n) to (N, d).  A model's noise covariances are constant matrices,
read when it is built; a step's own may be a scalar s, standing for s I.
``gp_transform`` is the same step for one Gaussian and an integrand
``g(X)`` vectorized the same way.  It, ``predict`` and ``update`` reject
a non-finite input or a noise or input covariance that is asymmetric or
not PSD, and a model such a prior or noise covariance when it is built,
each with a ``ValueError`` by the tolerances of ``quadrature``.  Moments
that a step computes from finite values and that overflow are a
``NumericalError`` in all four alike, by one check, ``_check_finite``;
numpy's overflow and invalid-value warnings stay quiet in them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .quadrature import (NumericalError, QuadratureRule, _check_symmetric, _checked_cov,
                         _member, _spd_solve, matrix_sqrt)

__all__ = [
    "GaussianState",
    "AdditiveStateSpaceModel",
    "FilterOutput",
    "TransformResult",
    "gp_transform",
    "predict",
    "update",
    "run_filter",
    "run_smoother",
]


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and symmetric PSD covariance.

    Construction checks that both are finite, that the mean is a vector
    (a scalar is one of length 1), the covariance's shape and,
    by ``matrix_sqrt``'s test, its symmetry, each with a ``ValueError``;
    not that it is PSD: every step that factors it checks that, through
    ``_checked_cov``, as does ``AdditiveStateSpaceModel`` for its prior.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if mean.ndim != 1:
            raise ValueError(f"mean must be a vector, got shape {mean.shape}")
        n = mean.shape[0]
        if cov.shape != (n, n):
            raise ValueError(f"covariance shape {cov.shape} does not match mean of length {n}")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("mean and covariance must be finite")
        _check_symmetric(cov[None])
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dimension(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class AdditiveStateSpaceModel:
    """x_k = f(x_{k-1}, k) + q_{k-1},  y_k = h(x_k, k) + r_k.

    ``transition`` and ``measurement`` are vectorized over an (N, n)
    batch; ``process_cov`` / ``measurement_cov`` are constant (n, n) /
    (d, d) matrices, read once like the prior's covariance (a scalar is
    1x1); n is the prior's length, d the measurement noise's.  The time
    index passed to the transition is the destination index (x_k receives
    k).  Construction, ``dataclasses.replace`` too, raises a ``ValueError``
    naming the field for a noise of another form, or ``_checked_cov``'s
    for the prior's or a noise covariance.
    """

    transition: Callable[[np.ndarray, int], np.ndarray]
    measurement: Callable[[np.ndarray, int], np.ndarray]
    process_cov: np.ndarray
    measurement_cov: np.ndarray
    prior: GaussianState

    def __post_init__(self):
        _checked_cov(self.prior.cov, "prior.cov")
        for what, n in (("process_cov", self.state_dim), ("measurement_cov", None)):
            try:
                cov = np.atleast_2d(np.asarray(getattr(self, what), dtype=float))
            except (TypeError, ValueError) as exc:  # a callable, a string
                raise ValueError(f"{what}: not a float matrix: {exc}") from exc
            if cov.shape != (len(cov) if n is None else n,) * 2:
                raise ValueError(f"{what}: noise covariance of shape {cov.shape}; expected "
                                 + ("a square matrix" if n is None else f"({n}, {n})"))
            object.__setattr__(self, what, _checked_cov(cov, what))

    @property
    def state_dim(self) -> int:
        return self.prior.dimension

    @property
    def measurement_dim(self) -> int:
        return self.measurement_cov.shape[0]


def _noise_matrix(cov, d: int) -> np.ndarray:
    """A noise covariance as a (d, d) matrix, a scalar s standing for s I_d;
    every noise covariance given to a filter step and ``config_cov`` is
    read through here, and a shape other than () or (d, d) raises."""
    cov = np.asarray(cov, dtype=float)
    if cov.shape == ():  # s on the diagonal, never s * 0, which is NaN for s = inf
        return np.diag(np.full(d, cov))
    if cov.shape != (d, d):
        raise ValueError(f"noise covariance of shape {cov.shape}; expected a scalar "
                         f"or ({d}, {d})")
    return cov


def _check_rule_dimension(rule: QuadratureRule, n: int, name: str = "rule",
                          expected: str = "mean of length") -> None:
    """ValueError naming ``name``, its dimension and ``expected`` n when the
    rule's points are not n-dimensional."""
    if rule.points.dimension != n:
        raise ValueError(f"{name} of dimension {rule.points.dimension}, {expected} {n}")


@dataclass(frozen=True)
class FilterOutput:
    """Per-step filter quantities, index k = 1..T at array position k-1.

    The shapes below are for one rule on one trajectory.  A batch of S
    trajectories adds a leading axis of length S to every array, and a
    sequence of M rules adds a leading method axis of length M before it,
    so a group of rules on a batch gives (M, S, T, n).  ``cross_covs`` holds
    the cross covariance of x_{k-1} given y_{1:k-1} (the previous
    filtered state) with the predicted x_k, which the RTS smoother's gain
    needs.  ``errors`` has one entry per rule: None, or the error that
    stopped it, after which its arrays are NaN.
    """

    predicted_means: np.ndarray      # (T, n)
    predicted_covs: np.ndarray       # (T, n, n)
    filtered_means: np.ndarray       # (T, n)
    filtered_covs: np.ndarray        # (T, n, n)
    innovation_means: np.ndarray     # (T, d)
    innovation_covs: np.ndarray      # (T, d, d)
    cross_covs: np.ndarray           # (T, n, n)
    errors: tuple[str | None, ...]   # (M,)

    def __len__(self) -> int:
        return self.filtered_means.shape[-2]


def _gain(cross: np.ndarray, cov: np.ndarray, context: str) -> np.ndarray:
    """K = C cov^{-1} over a batch (S, n, m), (S, m, m); a cov that is not
    positive definite raises with ``context``, the batch member and its
    minimum eigenvalue."""
    return _spd_solve(cov, cross.transpose(0, 2, 1), context).transpose(0, 2, 1)


class TransformResult(NamedTuple):
    """Moment-matched Gaussian approximation of y = g(x) + q."""

    mean: np.ndarray        # (d,)
    cov: np.ndarray         # (d, d), includes the additive noise covariance
    cross_cov: np.ndarray   # (n, d), input-output cross covariance


def _match_moments(weights, deviations, values, noise_cov) -> TransformResult:
    """Weighted sigma-point moments over a batch of B input Gaussians.

    ``weights`` are each member's rule weights (B, N), or (N,) shared by
    all, ``deviations`` (B, N, n) the sigma points minus their input mean,
    ``values`` (B, N, d) the integrand at them; returns the output means
    (B, d), covariances (B, d, d) with ``noise_cov`` (read by
    ``_noise_matrix``) added and input-output cross covariances (B, n, d).
    """
    out_mean = (weights[..., None, :] @ values)[:, 0]
    dev = values - out_mean[:, None, :]
    weighted = weights[..., :, None] * dev
    out_cov = weighted.transpose(0, 2, 1) @ dev + _noise_matrix(noise_cov, values.shape[-1])
    out_cov = 0.5 * (out_cov + out_cov.transpose(0, 2, 1))
    cross = deviations.transpose(0, 2, 1) @ weighted
    return TransformResult(out_mean, out_cov, cross)


def _transform(points, weights, fn, means, covs, noise_cov, k: int):
    """Moment-match fn(x) + noise for a batch of Gaussians (B, n), (B, n, n).

    Member b re-centers the unit points ``points[b]`` (N, n) and weighs
    them with ``weights[b]`` (N,); a single (N, n) and (N,) rule serves
    every member.  The sigma points of all B members go through ``fn`` in
    one (B*N, n) call; a (B*N,) result is read as d = 1, and a non-finite
    value at any point, padding included, raises.  Returns the batched
    ``TransformResult`` of ``_match_moments``.
    """
    root = matrix_sqrt(covs).factor
    deviations = points @ root.transpose(0, 2, 1)
    batch, count, n = deviations.shape
    sigma_pts = (means[:, None, :] + deviations).reshape(batch * count, n)
    values = np.asarray(fn(sigma_pts, k), dtype=float).reshape(batch, count, -1)
    if not np.isfinite(values).all():
        finite = np.isfinite(values).all(axis=(1, 2))
        raise NumericalError("function returned non-finite values at the sigma-points"
                             + _member(int(np.argmin(finite)), batch))
    return _match_moments(weights, deviations, values, noise_cov)


def _update(points, weights, means, covs, measurement, measurement_cov, observations, k: int):
    """Measurement update of a batch: predicted (B, n), (B, n, n) and
    observations (B, d) to filtered means and covariances, plus the
    innovation means, innovation covariances, cross covariances and gains;
    ``points`` and ``weights`` are those of ``_transform``.
    """
    innovation_means, innovation_covs, cross = _transform(
        points, weights, measurement, means, covs, measurement_cov, k)
    gain = _gain(cross, innovation_covs, f"innovation covariance at step {k}")
    means = means + (gain @ (observations - innovation_means)[:, :, None])[:, :, 0]
    covs = covs - gain @ innovation_covs @ gain.transpose(0, 2, 1)
    covs = 0.5 * (covs + covs.transpose(0, 2, 1))
    _check_finite(means, covs, "filtered")
    return means, covs, innovation_means, innovation_covs, cross, gain


def _check_finite(means, covs, what: str) -> None:
    """NumericalError naming the first member of a batch (B, n), (B, n, n)
    of moments a step computed that are not finite: they overflowed, a
    numerical failure, not an invalid input."""
    # count_nonzero skips the ufunc reduction that .all() dispatches
    finite = np.count_nonzero(np.isfinite(means)) + np.count_nonzero(np.isfinite(covs))
    if finite == means.size + covs.size:
        return
    finite = np.isfinite(means).all(axis=1) & np.isfinite(covs).all(axis=(1, 2))
    raise NumericalError(f"{what} mean or covariance is not finite"
                         + _member(int(np.argmin(finite)), len(finite)))


# the steps' moment arithmetic may overflow; _check_finite reports it, so
# numpy's warnings stay quiet wherever it does
_quiet = partial(np.errstate, over="ignore", invalid="ignore")


@_quiet()
def gp_transform(rule: QuadratureRule, g: Callable, mean, cov,
                 noise_cov) -> TransformResult:
    """Moment-matched Gaussian approximation of y = g(x) + q.

    x ~ N(mean, cov), q ~ N(0, noise_cov), a scalar ``noise_cov`` s
    meaning s I; returns the output mean, the output covariance (noise
    included) and the input-output cross covariance, each a weighted
    sigma-point sum.  ``g`` is vectorized like
    the model functions: it maps the (N, n) sigma points to (N, d), or to
    (N,) for d = 1, in one call.  The mean alone is the rule applied to g.
    """
    state = GaussianState(mean, _checked_cov(cov, "cov"))
    _check_rule_dimension(rule, state.dimension)
    moments = _transform(rule.points.points, rule.weights, lambda x, k: g(x), state.mean[None],
                         state.cov[None], _checked_cov(noise_cov, "noise_cov"), 0)
    _check_finite(moments.mean, moments.cov, "transformed")
    return TransformResult(*(moment[0] for moment in moments))


@_quiet()
def predict(state: GaussianState, rule: QuadratureRule, transition,
            process_cov, k: int = 0) -> GaussianState:
    """One prediction step: moment-match f(x) + q through the rule."""
    _check_rule_dimension(rule, state.dimension)
    process_cov = _checked_cov(_noise_matrix(process_cov, state.dimension), "process_cov")
    mean, cov, _ = _transform(rule.points.points, rule.weights, transition, state.mean[None],
                              _checked_cov(state.cov, "state.cov")[None], process_cov, k)
    _check_finite(mean, cov, "predicted")
    return GaussianState(mean[0], cov[0])


@_quiet()
def update(pred: GaussianState, rule: QuadratureRule, measurement,
           measurement_cov, observation, k: int = 0):
    """One measurement update.

    Returns (filtered state, innovation mean, innovation covariance,
    cross covariance, gain).  The gain solves K S = C after a Cholesky
    check that S is positive definite.  A non-finite observation is a
    ``ValueError``.
    """
    _check_rule_dimension(rule, pred.dimension)
    observation = np.atleast_1d(np.asarray(observation, dtype=float))
    if not np.isfinite(observation).all():
        raise ValueError("observation is not finite")
    mean, cov, *rest = _update(
        rule.points.points, rule.weights, pred.mean[None],
        _checked_cov(pred.cov, "pred.cov")[None], measurement,
        _checked_cov(_noise_matrix(measurement_cov, len(observation)), "measurement_cov"),
        observation[None], k)
    return (GaussianState(mean[0], cov[0]), *(value[0] for value in rest))


def _filter_step(model, k: int, means, covs, points, weights, observations):
    """Predict and update a batch to time index k: the step's seven
    ``FilterOutput`` arrays in field order."""
    pred_means, pred_covs, cross = _transform(
        points, weights, model.transition, means, covs, model.process_cov, k)
    _check_finite(pred_means, pred_covs, "predicted")
    means, covs, mu, s_cov, _, _ = _update(
        points, weights, pred_means, pred_covs, model.measurement, model.measurement_cov,
        observations, k)
    return pred_means, pred_covs, means, covs, mu, s_cov, cross


@_quiet()
def run_filter(model: AdditiveStateSpaceModel,
               rule: QuadratureRule | Sequence[QuadratureRule],
               observations) -> FilterOutput:
    """Fold predict/update over measurement sequences from the prior.

    ``observations`` is (T, d) for one trajectory or (S, T, d) for a
    batch of S trajectories of equal length.  ``rule`` is one rule, or a
    sequence of M rules of any point counts, every one of which filters
    every trajectory.  All M*S members run as one recursion, padded as
    the module docstring says: each step factors their covariances in one
    call and evaluates the model once on all their sigma points, padding
    included, which costs a padded point the arithmetic of a point.  The
    caller decides whether that pays (``_filtering_study`` pads only when
    it at most doubles the sigma points).  A non-finite observation is a
    ``ValueError`` naming the first time index at which one occurs, raised
    before any step.  The output's arrays carry the method axis only for
    a sequence of rules and the trajectory axis only for a batch:
    (M, S, T, ...) for both.
    A step that raises ``NumericalError`` is taken by each rule alone: a
    rule that raises alone stops, its ``errors`` entry that error's text
    with the time index, and the others step on with unchanged numbers; a
    single rule raises it.  Any other exception propagates at once.
    Alone, rule m steps on its own unpadded points, so a model non-finite
    at a member's mean but not at those points costs every rule a lone step.
    """
    single = isinstance(rule, QuadratureRule)
    rules = [rule] if single else list(rule)
    if not rules:
        raise ValueError("run_filter needs at least one rule")
    for index, member in enumerate(rules):
        _check_rule_dimension(member, model.state_dim, f"rule {index}", "model.state_dim is")
    n, d = model.state_dim, model.measurement_dim
    observations = np.asarray(observations, dtype=float)
    batched = observations.ndim == 3
    if observations.ndim not in (2, 3) or observations.shape[-1] != d:
        raise ValueError(f"observations of shape {observations.shape}, model expects "
                         f"(T, {d}) or (S, T, {d})")
    observations = observations if batched else observations[None]
    non_finite = np.argwhere(~np.isfinite(observations).all(axis=2).T)  # (k - 1, s) rows
    if len(non_finite):
        k, trajectory = non_finite[0]
        raise ValueError(f"observation at time index {k + 1}"
                         + (f" of trajectory {trajectory}" if batched else "") + " is not finite")
    size, steps = observations.shape[:2]
    batch = len(rules) * size
    # member m*S + s: rule m on trajectory s, its points padded to the
    # largest count with zero-weight points at the origin
    counts = np.array([member.points.count for member in rules])
    pad = [(0, counts.max() - count) for count in counts]
    points = np.repeat(np.stack([np.pad(member.points.points, (width, (0, 0)))
                                 for member, width in zip(rules, pad)]), size, axis=0)
    weights = np.repeat(np.stack([np.pad(member.weights, width)
                                  for member, width in zip(rules, pad)]), size, axis=0)
    observations = np.tile(observations, (len(rules), 1, 1))
    arrays = [np.full((batch, steps) + shape, np.nan)
              for shape in ((n,), (n, n), (n,), (n, n), (d,), (d, d), (n, n))]
    means = np.broadcast_to(model.prior.mean, (batch, n))
    covs = np.broadcast_to(model.prior.cov, (batch, n, n))
    errors, rows = [None] * len(rules), slice(None)  # output rows of the rules stepping
    for k in range(1, steps + 1):
        try:
            step = _filter_step(model, k, means, covs, points, weights, observations[:, k - 1])
        except NumericalError:
            stepping = [m for m, error in enumerate(errors) if error is None]
            alone = {}
            for j, m in enumerate(stepping):
                mine = slice(j * size, (j + 1) * size)
                try:
                    alone[m] = _filter_step(model, k, means[mine], covs[mine],
                                            rules[m].points.points, rules[m].weights,
                                            observations[mine, k - 1])
                except NumericalError as lone:
                    errors[m] = f"filter failed at time index {k}: {lone}"
            keep = np.repeat([m in alone for m in stepping], size)
            points, weights, observations = points[keep], weights[keep], observations[keep]
            rows = np.flatnonzero(np.repeat([error is None for error in errors], size))
            if not alone:
                break
            step = [np.concatenate(parts) for parts in zip(*alone.values())]
        for array, value in zip(arrays, step):
            array[rows, k - 1] = value
        means, covs = step[2], step[3]
    if single and errors[0]:
        raise NumericalError(errors[0])
    lead = ((len(rules),) if not single else ()) + ((size,) if batched else ())
    return FilterOutput(*(array.reshape(lead + array.shape[1:]) for array in arrays),
                        tuple(errors))


def run_smoother(model: AdditiveStateSpaceModel,
                 rule: QuadratureRule | Sequence[QuadratureRule],
                 filter_out: FilterOutput) -> tuple[np.ndarray, np.ndarray]:
    """Backward RTS pass over a filter output with any leading batch axes.

    The gain G_k = C_{k+1} (P^-_{k+1})^{-1} comes from the predicted
    covariances and cross covariances the filter stored, so the pass
    makes no model call and takes no square root.  ``model`` and ``rule``
    are unused; they stay in the signature because callers, the benchmark
    harness among them, pass those of the filter run.  All members,
    (M, S) for a group of rules on a batch, run as one recursion from the
    last filtered state, which it leaves untouched.  A rule the filter
    stopped has none, so its members are NaN and the recursion steps only
    the others.  Returns (means, covs) arrays shaped like the filtered
    ones; an error names the failing member's position among those
    smoothed.
    """
    lead = filter_out.filtered_means.shape[:-2]
    pred_means, pred_covs, cross_covs, means, covs = (
        array.reshape((math.prod(lead),) + array.shape[len(lead):]) for array in (
            filter_out.predicted_means, filter_out.predicted_covs, filter_out.cross_covs,
            filter_out.filtered_means, filter_out.filtered_covs))
    # means and covs hold the filtered moments at k - 1 until step k smooths them
    means, covs, rows = means.copy(), covs.copy(), slice(None)  # rows: the members smoothed
    errors = filter_out.errors
    if any(errors):
        stopped = np.repeat([error is not None for error in errors], len(means) // len(errors))
        means[stopped], covs[stopped], rows = np.nan, np.nan, np.flatnonzero(~stopped)
    for k in range(len(filter_out) - 1, 0, -1):
        # arrays are 0-based: position k holds the prediction of time
        # index k+1, whose moments give the gain at time index k
        pred_cov = pred_covs[rows, k]
        gain = _gain(cross_covs[rows, k], pred_cov,
                     f"smoother predicted covariance at time index {k}")
        step = means[rows, k] - pred_means[rows, k]
        means[rows, k - 1] += (gain @ step[:, :, None])[:, :, 0]
        smoothed_cov = (covs[rows, k - 1]
                        + gain @ (covs[rows, k] - pred_cov) @ gain.transpose(0, 2, 1))
        covs[rows, k - 1] = 0.5 * (smoothed_cov + smoothed_cov.transpose(0, 2, 1))
    return means.reshape(lead + means.shape[1:]), covs.reshape(lead + covs.shape[1:])
