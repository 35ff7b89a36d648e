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
are those of its rule run alone, and the padded values never decide a
failure.

Model functions are vectorized over the leading axis: ``f(X, k)`` maps an
(N, n) batch of states at destination index k to (N, n), ``h(X, k)`` maps
(N, n) to (N, d).  Noise covariances may be constant matrices or
callables of the time index; a scalar s stands for s I.  ``gp_transform``
is the same step for one Gaussian and an integrand ``g(X)`` vectorized
the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .quadrature import NumericalError, QuadratureRule, _member, _spd_solve, matrix_sqrt

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
    """Mean vector and symmetric PSD covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        n = mean.shape[0]
        if cov.shape != (n, n):
            raise ValueError(f"covariance shape {cov.shape} does not match mean of length {n}")
        scale = max(np.abs(cov).max(), 1.0)
        if np.abs(cov - cov.T).max() > 1e-10 * scale:
            raise ValueError("covariance asymmetric beyond 1e-10 relative tolerance")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dimension(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class AdditiveStateSpaceModel:
    """x_k = f(x_{k-1}, k) + q_{k-1},  y_k = h(x_k, k) + r_k.

    ``transition`` and ``measurement`` are vectorized over an (N, n)
    batch; ``process_cov`` / ``measurement_cov`` are (n, n) / (d, d)
    matrices or callables of k.  The time index passed to the transition
    is the destination index (x_k receives k).
    """

    transition: Callable[[np.ndarray, int], np.ndarray]
    measurement: Callable[[np.ndarray, int], np.ndarray]
    process_cov: object
    measurement_cov: object
    prior: GaussianState
    state_dim: int
    measurement_dim: int

    def q_cov(self, k: int) -> np.ndarray:
        cov = self.process_cov
        return _noise_matrix(cov(k) if callable(cov) else cov, self.state_dim)

    def r_cov(self, k: int) -> np.ndarray:
        cov = self.measurement_cov
        return _noise_matrix(cov(k) if callable(cov) else cov, self.measurement_dim)


def _noise_matrix(cov, d: int) -> np.ndarray:
    """A noise covariance as a (d, d) matrix: a scalar s stands for s I_d.

    Every noise covariance the transform, the filter steps and the model
    take is read through here; a shape other than () or (d, d) raises.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.shape == ():
        return cov * np.eye(d)
    if cov.shape != (d, d):
        raise ValueError(f"noise covariance of shape {cov.shape}; expected a scalar "
                         f"or ({d}, {d})")
    return cov


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


def _transform(points, weights, fn, means, covs, noise_cov, k: int, padded=None):
    """Moment-match fn(x) + noise for a batch of Gaussians (B, n), (B, n, n).

    Member b re-centers the unit points ``points[b]`` (N, n) and weighs
    them with ``weights[b]`` (N,); a single (N, n) and (N,) rule serves
    every member.  The sigma points of all B members go through ``fn`` in
    one (B*N, n) call; a (B*N,) result is read as d = 1.  ``padded`` (B, N)
    marks zero-weight padding points, whose values are zeroed before a
    non-finite check would count them.  Returns the batched
    ``TransformResult`` of ``_match_moments``.
    """
    root = matrix_sqrt(covs).factor
    deviations = points @ root.transpose(0, 2, 1)
    batch, count, n = deviations.shape
    sigma_pts = (means[:, None, :] + deviations).reshape(batch * count, n)
    values = np.asarray(fn(sigma_pts, k), dtype=float).reshape(batch, count, -1)
    if not np.isfinite(values).all():
        if padded is not None:
            values = np.where(padded[:, :, None], 0.0, values)
        finite = np.isfinite(values).all(axis=(1, 2))
        if not finite.all():
            raise NumericalError("function returned non-finite values at the sigma-points"
                                 + _member(int(np.argmin(finite)), batch))
    return _match_moments(weights, deviations, values, noise_cov)


def _update(points, weights, means, covs, measurement, measurement_cov,
            observations, k: int, padded=None):
    """Measurement update of a batch: predicted (B, n), (B, n, n) and
    observations (B, d) to filtered means and covariances, plus the
    innovation means, innovation covariances, cross covariances and gains;
    ``points``, ``weights`` and ``padded`` are those of ``_transform``.
    """
    innovation_means, innovation_covs, cross = _transform(
        points, weights, measurement, means, covs, measurement_cov, k, padded)
    gain = _gain(cross, innovation_covs, f"innovation covariance at step {k}")
    means = means + (gain @ (observations - innovation_means)[:, :, None])[:, :, 0]
    covs = covs - gain @ innovation_covs @ gain.transpose(0, 2, 1)
    covs = 0.5 * (covs + covs.transpose(0, 2, 1))
    return means, covs, innovation_means, innovation_covs, cross, gain


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
    moments = _transform(rule.points.points, rule.weights, lambda x, k: g(x),
                         np.atleast_1d(np.asarray(mean, dtype=float))[None],
                         np.atleast_2d(np.asarray(cov, dtype=float))[None], noise_cov, 0)
    return TransformResult(*(moment[0] for moment in moments))


def predict(state: GaussianState, rule: QuadratureRule, transition,
            process_cov, k: int = 0) -> GaussianState:
    """One prediction step: moment-match f(x) + q through the rule."""
    mean, cov, _ = _transform(rule.points.points, rule.weights, transition,
                              state.mean[None], state.cov[None], process_cov, k)
    return GaussianState(mean[0], cov[0])


def update(pred: GaussianState, rule: QuadratureRule, measurement,
           measurement_cov, observation, k: int = 0):
    """One measurement update.

    Returns (filtered state, innovation mean, innovation covariance,
    cross covariance, gain).  The gain solves K S = C after a Cholesky
    check that S is positive definite.
    """
    observation = np.atleast_1d(np.asarray(observation, dtype=float))
    mean, cov, *rest = _update(
        rule.points.points, rule.weights, pred.mean[None], pred.cov[None], measurement,
        measurement_cov, observation[None], k)
    return (GaussianState(mean[0], cov[0]), *(value[0] for value in rest))


def _filter_step(model, k: int, means, covs, points, weights, padded, observations):
    """Predict and update a batch to time index k: the step's seven
    ``FilterOutput`` arrays in field order."""
    pred_means, pred_covs, cross = _transform(
        points, weights, model.transition, means, covs, model.q_cov(k), k, padded)
    means, covs, mu, s_cov, _, _ = _update(
        points, weights, pred_means, pred_covs, model.measurement, model.r_cov(k),
        observations, k, padded)
    return pred_means, pred_covs, means, covs, mu, s_cov, cross


def run_filter(model: AdditiveStateSpaceModel,
               rule: QuadratureRule | Sequence[QuadratureRule],
               observations) -> FilterOutput:
    """Fold predict/update over measurement sequences from the prior.

    ``observations`` is (T, d) for one trajectory or (S, T, d) for a
    batch of S trajectories of equal length.  ``rule`` is one rule, or a
    sequence of M rules of any point counts, every one of which filters
    every trajectory.  All M*S members run as one recursion: each step
    factors their covariances in one call and evaluates the model once on
    all their sigma points; member (m, s) uses rule m's points and
    weights, so its numbers are those of rule m run on trajectory s
    alone.  A rule of N < N_max points is padded with N_max - N unit
    points at the origin of weight 0; the model is evaluated there too,
    at the member's mean, but a padded value adds exact zeros to the
    sums and never counts as a non-finite value.  The caller decides
    whether that extra work pays (``_filtering_study`` pads only when it
    at most doubles the sigma points).  A length-T vector is accepted
    for scalar measurements.  The output's arrays carry the method axis
    only for a sequence of rules and the trajectory axis only for a
    batch: (M, S, T, ...) for both.
    A step that raises ``NumericalError`` is taken by each rule alone: a
    rule that raises alone stops, its ``errors`` entry that error's text
    with the time index, and the others step on with unchanged numbers; a
    single rule raises it.  Any other exception propagates at once.
    """
    single = isinstance(rule, QuadratureRule)
    rules = [rule] if single else list(rule)
    if not rules:
        raise ValueError("run_filter needs at least one rule")
    observations = np.asarray(observations, dtype=float)
    if observations.ndim == 1 and model.measurement_dim == 1:
        observations = observations[:, None]
    batched = observations.ndim == 3
    if not batched:
        observations = np.atleast_2d(observations)
        if observations.size == 0:
            observations = observations.reshape(0, model.measurement_dim)
        observations = observations[None]
    if observations.shape[-1] != model.measurement_dim:
        raise ValueError(
            f"observations of dimension {observations.shape[-1]}, "
            f"model expects {model.measurement_dim}"
        )
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
    padded = np.repeat(np.arange(counts.max()) >= counts[:, None], size, axis=0)
    observations = np.tile(observations, (len(rules), 1, 1))
    n, d = model.state_dim, model.measurement_dim
    arrays = [np.full((batch, steps) + shape, np.nan)
              for shape in ((n,), (n, n), (n,), (n, n), (d,), (d, d), (n, n))]
    means = np.broadcast_to(model.prior.mean, (batch, n))
    covs = np.broadcast_to(model.prior.cov, (batch, n, n))
    errors, rows = [None] * len(rules), slice(None)  # output rows of the rules stepping
    for k in range(1, steps + 1):
        try:
            step = _filter_step(model, k, means, covs, points, weights, padded,
                                observations[:, k - 1])
        except NumericalError:
            stepping = [m for m, error in enumerate(errors) if error is None]
            alone = {}
            for j, m in enumerate(stepping):
                mine = slice(j * size, (j + 1) * size)
                try:
                    alone[m] = _filter_step(model, k, *(array[mine] for array in (
                        means, covs, points, weights, padded, observations[:, k - 1])))
                except NumericalError as lone:
                    errors[m] = f"filter failed at time index {k}: {lone}"
            keep = np.repeat([m in alone for m in stepping], size)
            points, weights, padded, observations = (
                array[keep] for array in (points, weights, padded, observations))
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
    makes no model call and takes no square root; ``model`` and ``rule``
    (one rule or the filter's sequence of rules) are those of the filter
    run.  All members, (M, S) for a group of rules on a batch, run as one
    recursion.  The recursion starts from the last filtered state, which
    it leaves untouched; a rule the filter stopped has none, so its members
    stay NaN: the members of the rules that ran through are selected once,
    smoothed, and scattered back once.  Returns (means, covs) arrays shaped
    like the filtered ones; an error names the failing member's position
    among those smoothed.
    """
    lead = filter_out.filtered_means.shape[:-2]
    arrays = [array.reshape((math.prod(lead),) + array.shape[len(lead):]) for array in (
        filter_out.predicted_means, filter_out.predicted_covs, filter_out.cross_covs,
        filter_out.filtered_means, filter_out.filtered_covs)]
    errors, live = filter_out.errors, None
    if any(errors):  # the members of the rules that ran through, as copies
        live = np.repeat([error is None for error in errors], len(arrays[0]) // len(errors))
        arrays = [array[live] for array in arrays]
    else:
        arrays[3:] = [array.copy() for array in arrays[3:]]
    # means and covs hold the filtered moments at k - 1 until step k smooths them
    pred_means, pred_covs, cross_covs, means, covs = arrays
    for k in range(len(filter_out) - 1, 0, -1):
        # arrays are 0-based: position k holds the prediction of time
        # index k+1, whose moments give the gain at time index k
        pred_cov = pred_covs[:, k]
        gain = _gain(cross_covs[:, k], pred_cov,
                     f"smoother predicted covariance at time index {k}")
        step = means[:, k] - pred_means[:, k]
        means[:, k - 1] += (gain @ step[:, :, None])[:, :, 0]
        smoothed_cov = (covs[:, k - 1]
                        + gain @ (covs[:, k] - pred_cov) @ gain.transpose(0, 2, 1))
        covs[:, k - 1] = 0.5 * (smoothed_cov + smoothed_cov.transpose(0, 2, 1))
    if live is not None:
        means, covs = (_scatter(array, live) for array in (means, covs))
    return means.reshape(lead + means.shape[1:]), covs.reshape(lead + covs.shape[1:])


def _scatter(array: np.ndarray, live: np.ndarray) -> np.ndarray:
    """The members ``array`` holds, at the True positions of ``live``, NaN
    elsewhere."""
    full = np.full((len(live),) + array.shape[1:], np.nan)
    full[live] = array
    return full
