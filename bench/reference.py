"""Reference computations the benchmark checks gpquad's outputs against.

Nothing here imports ``gpquad``: the filter and smoother, the models, the
closed-form rule weights, the Monte Carlo truth and the GP-quadrature
variance are written again from their textbook definitions in plain
numpy/scipy, so a fault in the library cannot hide by being shared with
its check.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from scipy.special import hyperu, ndtri

# ---------------------------------------------------------------------------
# state-space models, vectorized over an (M, n) batch of states


def ungm_transition(x, k):
    return x / 2.0 + 25.0 * x / (1.0 + x**2) + 8.0 * np.cos(1.2 * k)


def ungm_measurement(x, k):
    return x**2 / 20.0


UNGM = dict(f=ungm_transition, h=ungm_measurement, q=np.array([[10.0]]),
            r=np.array([[1.0]]), m0=np.zeros(1), p0=np.array([[5.0]]))

BOT_SENSORS = np.array([[-1500.0, 500.0], [1000.0, 1000.0],
                        [-300.0, -1500.0], [1200.0, -1100.0]])


def bot_transition(x, k, dt=1.0):
    """Coordinated turn, state (x1, dx1, x2, dx2, omega)."""
    p1, v1, p2, v2, w = x.T
    wt = w * dt
    small = np.abs(wt) < 1e-9
    w_safe = np.where(small, 1.0, w)
    a = np.where(small, dt, np.sin(wt) / w_safe)          # sin(w dt) / w
    b = np.where(small, w * dt**2 / 2.0, (1.0 - np.cos(wt)) / w_safe)
    c, s = np.cos(wt), np.sin(wt)
    return np.column_stack([p1 + a * v1 - b * v2, c * v1 - s * v2,
                            p2 + b * v1 + a * v2, s * v1 + c * v2, w])


def bot_measurement(x, k):
    return np.arctan2(x[:, 2:3] - BOT_SENSORS[:, 1], x[:, 0:1] - BOT_SENSORS[:, 0])


def _bot_process_cov(q1=0.1, q2=1.75e-4, dt=1.0):
    block = q1 * np.array([[dt**3 / 3.0, dt**2 / 2.0], [dt**2 / 2.0, dt]])
    q = np.zeros((5, 5))
    q[:2, :2] = block
    q[2:4, 2:4] = block
    q[4, 4] = q2 * dt
    return q


BOT = dict(f=bot_transition, h=bot_measurement, q=_bot_process_cov(),
           r=0.05**2 * np.eye(4), m0=np.array([0.0, 10.0, 0.0, -10.0, 0.05]),
           p0=np.diag([100.0**2, 10.0**2, 100.0**2, 10.0**2, 0.05**2]))


def simulate(model, steps, seed):
    """States x_0..x_T and measurements y_1..y_T of one trajectory, drawn
    from ``default_rng(seed)`` in the order prior, then per step the
    process noise and the measurement noise."""
    rng = np.random.default_rng(seed)
    n, d = model["m0"].shape[0], model["r"].shape[0]
    states = np.empty((steps + 1, n))
    measurements = np.empty((steps, d))
    states[0] = rng.multivariate_normal(model["m0"], model["p0"])
    for k in range(1, steps + 1):
        states[k] = model["f"](states[k - 1][None, :], k)[0] + rng.multivariate_normal(
            np.zeros(n), model["q"])
        measurements[k - 1] = model["h"](states[k][None, :], k)[0] + rng.multivariate_normal(
            np.zeros(d), model["r"])
    return states, measurements


# ---------------------------------------------------------------------------
# sigma-point filter and RTS smoother, batched over S trajectories


def _sym(a):
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _transform(fn, k, mean, cov, unit_pts, weights):
    """Sigma points m + L xi (L the Cholesky factor) through fn; returns the
    output mean, output covariance without noise and input-output cross
    covariance."""
    s, n = mean.shape
    chol = np.linalg.cholesky(cov)
    pts = mean[:, None, :] + np.einsum("ij,skj->sik", unit_pts, chol)
    out = fn(pts.reshape(-1, n), k).reshape(s, unit_pts.shape[0], -1)
    out_mean = np.einsum("i,sid->sd", weights, out)
    dev = out - out_mean[:, None, :]
    out_cov = np.einsum("i,sia,sib->sab", weights, dev, dev)
    cross = np.einsum("i,sia,sib->sab", weights, pts - mean[:, None, :], dev)
    return out_mean, out_cov, cross


def sigma_point_filter_smoother(model, unit_pts, weights, ys):
    """Gaussian filter and RTS smoother (Sarkka 2013, ch. 6 and 9).

    ``ys`` is (S, T, d); the transition into x_k receives time index k.
    Returns the filtered and smoothed means, each (S, T, n).
    """
    f, h, q, r = model["f"], model["h"], model["q"], model["r"]
    s, steps, _ = ys.shape
    n = model["m0"].shape[0]
    mean = np.broadcast_to(model["m0"], (s, n)).copy()
    cov = np.broadcast_to(model["p0"], (s, n, n)).copy()
    means = np.empty((s, steps, n))
    covs = np.empty((s, steps, n, n))
    for k in range(1, steps + 1):
        pred_mean, pred_cov, _ = _transform(f, k, mean, cov, unit_pts, weights)
        pred_cov = _sym(pred_cov + q)
        y_mean, y_cov, cross = _transform(h, k, pred_mean, pred_cov, unit_pts, weights)
        y_cov = _sym(y_cov + r)
        gain = np.swapaxes(np.linalg.solve(y_cov, np.swapaxes(cross, -1, -2)), -1, -2)
        innovation = ys[:, k - 1, :] - y_mean
        mean = pred_mean + np.einsum("sad,sd->sa", gain, innovation)
        cov = _sym(pred_cov - gain @ y_cov @ np.swapaxes(gain, -1, -2))
        means[:, k - 1], covs[:, k - 1] = mean, cov
    smoothed = means.copy()
    sm_cov = covs[:, -1].copy()
    for k in range(steps - 1, 0, -1):
        m_k, p_k = means[:, k - 1], covs[:, k - 1]
        pred_mean, pred_cov, cross = _transform(f, k + 1, m_k, p_k, unit_pts, weights)
        pred_cov = _sym(pred_cov + q)
        gain = np.swapaxes(np.linalg.solve(pred_cov, np.swapaxes(cross, -1, -2)), -1, -2)
        smoothed[:, k - 1] = m_k + np.einsum(
            "sab,sb->sa", gain, smoothed[:, k] - pred_mean)
        sm_cov = _sym(p_k + gain @ (sm_cov - pred_cov) @ np.swapaxes(gain, -1, -2))
    return means, smoothed


def rmse_per_trajectory(estimates, states, components):
    """RMSE over time of the chosen components, one value per trajectory."""
    diff = estimates[:, :, components] - states[:, 1:, components]
    return np.sqrt(np.mean(np.sum(diff**2, axis=-1), axis=-1))

# ---------------------------------------------------------------------------
# moments of the radial integrand (1 + |x|^2)^(p/2), x ~ N(0, I_n)


def chi2_power_moment(n, s):
    """E[(1 + X)^s], X ~ chi^2_n, as 2^(-n/2) U(n/2, n/2 + s + 1, 1/2)
    (DLMF 13.4.4, Tricomi's confluent hypergeometric U)."""
    return float(2.0 ** (-n / 2.0) * hyperu(n / 2.0, n / 2.0 + s + 1.0, 0.5))


def radial_truth(n, p, samples):
    """Exact (mean, variance) of Y = (1 + X)^(p/2) and the standard errors
    of their plain Monte Carlo estimates from ``samples`` draws."""
    raw = [chi2_power_moment(n, j * p / 2.0) for j in (1, 2, 3, 4)]
    mean = raw[0]
    var = raw[1] - mean**2
    central4 = raw[3] - 4 * mean * raw[2] + 6 * mean**2 * raw[1] - 3 * mean**4
    return mean, var, math.sqrt(var / samples), math.sqrt(max(central4 - var**2, 0.0) / samples)


def kl_gauss_1d(mean_p, var_p, mean_q, var_q):
    """KL(N(mean_p, var_p) || N(mean_q, var_q))."""
    return 0.5 * (var_p / var_q + (mean_q - mean_p) ** 2 / var_q - 1.0
                  + math.log(var_q / var_p))

# ---------------------------------------------------------------------------
# point sets and closed-form weights


def ut_weights(n, kappa):
    """Unscented weights: kappa/(n+kappa) at the origin, 1/(2(n+kappa)) on the axes."""
    return kappa / (n + kappa), 1.0 / (2.0 * (n + kappa))


def symmetric5_class_weights(n, lam2=3.0):
    """Degree-5 symmetric rule on {0, +-lam e_i, (+-lam, +-lam) pairs} with
    lam^2 = 3, from E[x1^2 x2^2] = 1, E[x1^2] = 1 and E[1] = 1."""
    w_pair = 1.0 / (4.0 * lam2**2)
    w_axis = (1.0 - 4.0 * (n - 1) * lam2 * w_pair) / (2.0 * lam2)
    w_origin = 1.0 - 2 * n * w_axis - 4 * math.comb(n, 2) * w_pair
    return w_origin, w_axis, w_pair


def gauss_hermite_1d(order):
    """Roots and N(0, 1)-normalized weights from numpy's HermiteE rule."""
    roots, weights = hermegauss(order)
    return roots, weights / math.sqrt(2.0 * math.pi)


def hammersley(n, count):
    """Hammersley set through the inverse normal CDF: (i + 0.5)/N, then
    radical inverses in the first n-1 primes, cube values clamped to
    [1e-12, 1 - 1e-12]."""
    primes = [p for p in range(2, 200) if all(p % q for q in range(2, p))][: n - 1]
    cube = np.empty((count, n))
    cube[:, 0] = (np.arange(count) + 0.5) / count
    for d, base in enumerate(primes, start=1):
        for i in range(count):
            inv, denom, j = 0.0, 1.0, i
            while j:
                denom *= base
                j, digit = divmod(j, base)
                inv += digit / denom
            cube[i, d] = inv
    return ndtri(np.clip(cube, 1e-12, 1.0 - 1e-12))


def se_system(points, length_scale, jitter):
    """(K + jitter I, q, iint k) of the unit-scale squared-exponential kernel
    under N(0, I): Gram matrix, mean embedding and double integral."""
    pts = np.atleast_2d(points)
    n = pts.shape[1]
    l2 = length_scale**2
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
    gram = np.exp(-d2 / (2.0 * l2)) + jitter * np.eye(len(pts))
    q = (l2 / (1.0 + l2)) ** (n / 2.0) * np.exp(-(pts**2).sum(1) / (2.0 * (1.0 + l2)))
    return gram, q, (l2 / (l2 + 2.0)) ** (n / 2.0)


def se_weights_and_variance(points, length_scale, jitter, rcond=None):
    """GP-quadrature weights (K + jitter I)^-1 q and the posterior variance
    iint k - q^T W.  With ``rcond`` the solve is a least-squares one that
    drops singular values below rcond times the largest: the variance of a
    set with near-duplicate points stays finite and can only be overstated."""
    gram, q, double_integral = se_system(points, length_scale, jitter)
    if rcond is None:
        weights = np.linalg.solve(gram, q)
    else:
        weights = np.linalg.lstsq(gram, q, rcond=rcond)[0]
    return weights, double_integral - q @ weights


def symmetric5_expected(points):
    """Closed-form degree-5 weight for each point, by its symmetry class."""
    w0, w1, w2 = symmetric5_class_weights(points.shape[1])
    nonzero = (np.abs(points) > 1e-12).sum(axis=1)
    return np.choose(nonzero, [w0, w1, w2])


def ut_expected(points, kappa):
    w0, w1 = ut_weights(points.shape[1], kappa)
    return np.where((np.abs(points) > 1e-12).any(axis=1), w1, w0)


def gauss_hermite_expected(points, order):
    """Product weight for each tensor-grid point, matched to the 1-D roots."""
    roots, w1 = gauss_hermite_1d(order)
    nearest = np.abs(points[:, :, None] - roots[None, None, :]).argmin(axis=-1)
    if np.abs(roots[nearest] - points).max() > 1e-10:
        raise ValueError("points do not lie on the Gauss-Hermite grid")
    return w1[nearest].prod(axis=1)

