"""Benchmark state-space models and moment-integral test functions.

* univariate non-linear growth model (UNGM), the standard strongly
  non-linear scalar benchmark with a time-indexed transition;
* coordinated-turn bearings-only tracking with four angle sensors;
* the radial moment integrands (1 + x^T x)^(p/2) used to compare
  integration rules.

Model functions and integrands follow the filtering module's vectorized
contract: states arrive as (N, n) batches, and only so; one state is the
batch ``x[None]``.  ``simulate_many`` draws a trajectory per seed, all
of them as one recursion, and returns them as one ``Trajectory`` with a
leading seed axis, the batch form ``run_filter`` takes; ``simulate`` is
its batch of one, returned without that axis.  A model is checked
once, when it is built, by ``AdditiveStateSpaceModel`` and ``bot_model``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .filtering import AdditiveStateSpaceModel, GaussianState
from .quadrature import NumericalError

__all__ = [
    "Trajectory",
    "ungm_model",
    "bot_model",
    "moment_integrand",
    "simulate",
    "simulate_many",
]


@dataclass(frozen=True)
class Trajectory:
    """Simulated states x_0..x_T and measurements y_1..y_T of one seed, or
    of S seeds along a leading axis in seed order."""

    states: np.ndarray        # (T+1, n), or (S, T+1, n)
    measurements: np.ndarray  # (T, d), or (S, T, d)

    def __post_init__(self):
        if self.states.shape[-2] != self.measurements.shape[-2] + 1:
            raise ValueError("need exactly one more state than measurements")
        if not (np.all(np.isfinite(self.states))
                and np.all(np.isfinite(self.measurements))):
            raise ValueError("trajectory contains non-finite values")


def ungm_model() -> AdditiveStateSpaceModel:
    """Univariate non-linear growth model.

    x_k = x_{k-1}/2 + 25 x_{k-1}/(1+x_{k-1}^2) + 8 cos(1.2 k) + q,
    y_k = x_k^2/20 + r, with q ~ N(0, 10), r ~ N(0, 1) and prior N(0, 5)
    (scalar variances).  The cosine argument uses the destination index k.
    """

    def transition(x, k):
        return x / 2.0 + 25.0 * x / (1.0 + x**2) + 8.0 * np.cos(1.2 * k)

    def measurement(x, k):
        return x**2 / 20.0

    return AdditiveStateSpaceModel(
        transition=transition,
        measurement=measurement,
        process_cov=np.array([[10.0]]),
        measurement_cov=np.array([[1.0]]),
        prior=GaussianState(np.zeros(1), np.array([[5.0]])),
        measurement_dim=1,
    )


# |omega dt| below this uses the series limits sin(w dt)/w -> dt,
# (1 - cos(w dt))/w -> w dt^2/2
_OMEGA_EPS = 1e-6


def _turn_factors(omega: np.ndarray, dt: float):
    # sin(w dt), cos(w dt), and sin(w dt)/w and (1 - cos(w dt))/w with
    # series limits at w ~ 0; where the quotients are taken, w_safe == w
    w = np.asarray(omega, dtype=float)
    wt = w * dt
    sin_wt, cos_wt = np.sin(wt), np.cos(wt)
    small = np.abs(wt) < _OMEGA_EPS
    w_safe = np.where(small, 1.0, w)
    sin_f = np.where(small, dt * (1.0 - wt**2 / 6.0), sin_wt / w_safe)
    cos_f = np.where(small, w * dt**2 / 2.0 * (1.0 - wt**2 / 12.0),
                     (1.0 - cos_wt) / w_safe)
    return sin_wt, cos_wt, sin_f, cos_f


def bot_model(*, sensors=None, bearing_noise_std: float = 0.05, dt: float = 1.0,
              q1: float = 0.1, q2: float = 1.75e-4, prior_mean=None,
              prior_cov=None) -> AdditiveStateSpaceModel:
    """Coordinated-turn dynamics with four bearing measurements.

    State (x1, dx1, x2, dx2, omega); the turn-rate-dependent transition
    matrix is applied as a non-linear function of the state's own omega,
    the process noise is the discretized white-noise-acceleration block
    per position/velocity pair plus q2*dt on the turn rate, and each
    sensor measures the four-quadrant bearing to the target.  The
    defaults turn the target inside the ring of the four sensors (in m)
    from the prior N((0, 10, 0, -10, 0.05), diag(100, 10, 100, 10, 0.05)^2);
    ``bearing_noise_std``, ``dt``, ``q1`` and ``q2`` are in rad, s,
    m^2 s^-3 and s^-3.  ``ValueError`` rejects other than four 2-D sensors,
    a noise or ``dt`` not positive and a negative ``q1`` or ``q2``; the
    prior is checked by ``GaussianState`` and the model.
    """
    if sensors is None:
        sensors = [[-1500.0, 500.0], [1000.0, 1000.0], [-300.0, -1500.0], [1200.0, -1100.0]]
    sensors = np.atleast_2d(np.asarray(sensors, dtype=float))
    if sensors.shape != (4, 2):
        raise ValueError(f"exactly four 2-D sensors required, got {sensors.shape}")
    if bearing_noise_std <= 0 or dt <= 0:
        raise ValueError("bearing_noise_std and dt must be positive")
    if q1 < 0 or q2 < 0:
        raise ValueError("q1 and q2 must be non-negative")
    prior = GaussianState(
        np.array([0.0, 10.0, 0.0, -10.0, 0.05]) if prior_mean is None else prior_mean,
        np.diag([100.0**2, 10.0**2, 100.0**2, 10.0**2, 0.05**2]) if prior_cov is None
        else prior_cov)

    def transition(x, k):
        pos1, vel1, pos2, vel2, omega = x.T
        sin_wt, cos_wt, sin_f, cos_f = _turn_factors(omega, dt)
        return np.column_stack([
            pos1 + sin_f * vel1 - cos_f * vel2,
            cos_wt * vel1 - sin_wt * vel2,
            pos2 + cos_f * vel1 + sin_f * vel2,
            sin_wt * vel1 + cos_wt * vel2,
            omega,
        ])

    def measurement(x, k):
        dx = x[:, 0][:, None] - sensors[:, 0][None, :]
        dy = x[:, 2][:, None] - sensors[:, 1][None, :]
        return np.arctan2(dy, dx)

    wn_block = np.array([[dt**3 / 3.0, dt**2 / 2.0],
                         [dt**2 / 2.0, dt]])
    process = np.zeros((5, 5))
    process[:2, :2] = q1 * wn_block
    process[2:4, 2:4] = q1 * wn_block
    process[4, 4] = q2 * dt
    return AdditiveStateSpaceModel(
        transition=transition,
        measurement=measurement,
        process_cov=process,
        measurement_cov=bearing_noise_std**2 * np.eye(4),
        prior=prior,
        measurement_dim=4,
    )


def moment_integrand(exponent: int):
    """Radial test functions y(x) = (1 + x^T x)^(p/2) and y^2.

    Both are vectorized over (N, n) batches and return (N,) values.  The
    benchmark exponents are {1, -2, -3, -5}; other integers are accepted.
    """

    def y(x):
        return (1.0 + (x**2).sum(axis=1)) ** (exponent / 2.0)

    def y_squared(x):
        return (1.0 + (x**2).sum(axis=1)) ** float(exponent)

    return y, y_squared


def _normal_factor(cov) -> np.ndarray:
    """numpy's SVD factor F of a covariance.

    ``standard_normal((1, n)) @ F.T`` is then the draw that
    ``rng.multivariate_normal(0, cov)`` makes from the same generator
    state, bit for bit, without its SVD per draw.  A callable noise, which
    a model does not check, gets numpy's warning where it is not PSD.  The
    ``allclose`` at 1e-8 is numpy's own check in ``multivariate_normal``,
    kept so that draws and warnings match numpy's; it is the one
    covariance tolerance not defined by ``quadrature``.
    """
    cov = np.asarray(cov, dtype=float)
    u, s, vh = np.linalg.svd(cov)
    if not np.allclose(np.dot(vh.T * s, vh), cov, rtol=1e-8, atol=1e-8):
        warnings.warn("covariance is not symmetric positive-semidefinite.",
                      RuntimeWarning)
    return u * np.sqrt(s)


def _step_factors(cov, cov_at, steps: int) -> np.ndarray:
    """The noise factor of steps 1..T: one (m, m) factor for a constant
    covariance, a (T, m, m) stack, one per step, for a callable."""
    if callable(cov):
        return np.stack([_normal_factor(cov_at(k)) for k in range(1, steps + 1)])
    return _normal_factor(cov_at(0))


def _noise(z: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Draws z (..., m) times the factor's transpose, row by row.

    Each row is its own (1, m) product, which rounds like
    ``standard_normal((1, m)) @ F.T``; a plain (S, m) @ F.T is one matrix
    product and rounds differently in several dimensions.
    """
    return (z[..., None, :] @ np.swapaxes(factor, -1, -2))[..., 0, :]


def simulate_many(model: AdditiveStateSpaceModel, steps: int, seeds) -> Trajectory:
    """Draw one trajectory per seed, all S of them as one recursion.

    Each step makes one transition and one measurement call on the (S, n)
    states.  Seed s draws its whole noise stream from
    ``default_rng(s).standard_normal`` and reads it as the one-trajectory
    recursion does: the prior's n values, then per step n process and d
    measurement values.  So every trajectory equals, bit for bit, the one
    ``rng.multivariate_normal`` draws on the prior, process and
    measurement covariances; a constant covariance is factored once per
    call, a callable one once per step for all seeds.  Returns one
    ``Trajectory`` of states (S, T+1, n) and measurements (S, T, d) in seed
    order.  A non-finite state raises ``NumericalError`` naming the
    earliest step and, of the seeds that diverge there, the first; so does
    a non-finite measurement, checked after the last step.
    """
    seeds = list(seeds)
    if steps < 1:
        raise ValueError(f"need steps >= 1, got {steps}")
    if not seeds:
        raise ValueError("need at least one seed")
    n, d = model.state_dim, model.measurement_dim
    draws = np.stack([np.random.default_rng(seed).standard_normal(n + steps * (n + d))
                      for seed in seeds])
    per_step = draws[:, n:].reshape(len(seeds), steps, n + d)
    process_noise = _noise(per_step[..., :n],
                           _step_factors(model.process_cov, model.q_cov, steps))
    measurement_noise = _noise(per_step[..., n:],
                               _step_factors(model.measurement_cov, model.r_cov, steps))
    states = np.empty((steps + 1, len(seeds), n))
    measurements = np.empty((steps, len(seeds), d))
    states[0] = model.prior.mean + _noise(draws[:, :n], _normal_factor(model.prior.cov))
    for k in range(1, steps + 1):
        drift = np.asarray(model.transition(states[k - 1], k), dtype=float)
        states[k] = drift.reshape(len(seeds), n) + process_noise[:, k - 1]
        if not np.isfinite(states[k]).all():
            first = np.flatnonzero(~np.isfinite(states[k]).all(axis=1))[0]
            raise NumericalError(
                f"simulation diverged at step {k} (seed {seeds[first]})")
        projected = np.asarray(model.measurement(states[k], k), dtype=float)
        measurements[k - 1] = projected.reshape(len(seeds), d) + measurement_noise[:, k - 1]
    finite = np.isfinite(measurements).all(axis=2)
    if not finite.all():
        k, first = np.argwhere(~finite)[0]
        raise NumericalError(f"simulation diverged at step {k + 1} (seed {seeds[first]}): "
                             "non-finite measurement")
    return Trajectory(np.ascontiguousarray(states.swapaxes(0, 1)),
                      np.ascontiguousarray(measurements.swapaxes(0, 1)))


def simulate(model: AdditiveStateSpaceModel, steps: int, seed: int) -> Trajectory:
    """Draw one trajectory of the model, deterministic per seed: the batch
    of one of ``simulate_many``, without its seed axis."""
    batch = simulate_many(model, steps, [seed])
    return Trajectory(batch.states[0], batch.measurements[0])
