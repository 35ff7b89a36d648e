import dataclasses

import numpy as np
import pytest

from gpquad.filtering import AdditiveStateSpaceModel, GaussianState
from gpquad.quadrature import NumericalError
from gpquad.models import (Trajectory, bot_model, moment_integrand, simulate,
                           simulate_many, ungm_model)


class TestUngmModel:
    def setup_method(self):
        self.model = ungm_model()

    def test_transition_at_origin(self):
        got = self.model.transition(np.zeros((1, 1)), 1)
        assert got[0, 0] == pytest.approx(8.0 * np.cos(1.2), abs=1e-12)
        assert got[0, 0] == pytest.approx(2.898862, abs=1e-6)

    def test_measurement(self):
        assert self.model.measurement(np.array([[10.0]]), 0)[0, 0] == 5.0

    def test_transition_deterministic_part(self):
        # x = 1: x/2 + 25x/(1+x^2) = 0.5 + 12.5 = 13 plus the cosine term
        k = 4
        got = self.model.transition(np.ones((1, 1)), k)[0, 0]
        assert got == pytest.approx(13.0 + 8.0 * np.cos(1.2 * k), abs=1e-12)

    def test_measurement_is_even(self):
        xs = np.linspace(-5, 5, 21).reshape(-1, 1)
        np.testing.assert_array_equal(self.model.measurement(xs, 0),
                                      self.model.measurement(-xs, 0))

    def test_noise_and_prior(self):
        assert self.model.process_cov[0, 0] == 10.0
        assert self.model.measurement_cov[0, 0] == 1.0
        assert self.model.prior.cov[0, 0] == 5.0


class TestBotModel:
    def setup_method(self):
        self.model = bot_model()

    def test_turn_rate_limit_matches_zero_rate_form(self):
        # at omega = 1e-12 the map must agree with the omega = 0 limit
        state = np.array([[10.0, 2.0, -5.0, 1.5, 1e-12]])
        got = self.model.transition(state, 1)[0]
        dt = 1.0  # the default
        limit = np.array([10.0 + dt * 2.0, 2.0, -5.0 + dt * 1.5, 1.5, 1e-12])
        np.testing.assert_allclose(got, limit, atol=1e-6)

    def test_bearing_quadrant(self):
        model = bot_model(sensors=np.array([[0.0, 0.0], [1.0, 0.0],
                                            [0.0, 1.0], [-1.0, -1.0]]))
        state = np.array([[1.0, 0.0, 1.0, 0.0, 0.0]])
        bearings = model.measurement(state, 0)[0]
        assert bearings[0] == pytest.approx(np.pi / 4)

    def test_process_noise_block(self):
        model = bot_model(q1=0.1, dt=1.0)
        q = model.process_cov
        assert q[0, 0] == pytest.approx(0.1 / 3.0)
        assert q[0, 1] == pytest.approx(0.05)
        assert q[4, 4] == pytest.approx(1.75e-4)  # the default q2

    def test_turn_rate_preserved_exactly(self):
        rng = np.random.default_rng(0)
        states = rng.normal(size=(20, 5))
        out = self.model.transition(states, 1)
        np.testing.assert_array_equal(out[:, 4], states[:, 4])

    def test_speed_preserved(self):
        rng = np.random.default_rng(1)
        states = rng.normal(size=(20, 5))
        states[:, 4] = rng.uniform(0.05, 0.5, size=20)  # away from the series cutoff
        out = self.model.transition(states, 1)
        speed_in = np.hypot(states[:, 1], states[:, 3])
        speed_out = np.hypot(out[:, 1], out[:, 3])
        np.testing.assert_allclose(speed_out, speed_in, atol=1e-9)

    def test_measurement_noise(self):
        r = self.model.measurement_cov
        np.testing.assert_allclose(r, 0.05**2 * np.eye(4))  # the default noise

    def test_config_validation(self):
        with pytest.raises(ValueError):
            bot_model(sensors=np.zeros((3, 2)))
        with pytest.raises(ValueError):
            bot_model(bearing_noise_std=0.0)
        with pytest.raises(ValueError, match="q1 and q2 must be non-negative"):
            bot_model(q1=-1.0)
        with pytest.raises(ValueError, match="q1 and q2 must be non-negative"):
            bot_model(q2=-1e-9)
        with pytest.raises(ValueError, match="asymmetric"):
            bot_model(prior_cov=np.eye(5) + np.eye(5, k=1))
        with pytest.raises(ValueError, match="does not match mean"):
            bot_model(prior_cov=np.eye(4))
        bot_model(q1=0.0, q2=0.0)

    def test_prior_cov_must_be_psd(self):
        # an indefinite prior raises at construction, not as a warning of
        # simulate; a singular PSD one is a valid prior
        with pytest.raises(ValueError, match=r"prior\.cov: matrix is not PSD"):
            bot_model(prior_cov=np.diag([-1.0, 1, 1, 1, 1]))
        bot_model(prior_cov=np.diag([0.0, 1, 1, 1, 1]))

    def test_transition_is_the_turn_map_bit_for_bit(self):
        # the coordinated-turn map written out with its own sines and
        # cosines, over turn rates on both sides of the series cutoff
        dt = 0.7
        model = bot_model(dt=dt)
        rng = np.random.default_rng(2)
        states = rng.normal(size=(3000, 5))
        states[:, 4] = np.concatenate([rng.normal(size=1500),
                                       rng.uniform(-3e-6, 3e-6, size=1496),
                                       [0.0, -0.0, 1e-6 / dt, -1e-6 / dt]])
        x1, v1, x2, v2, w = states.T
        small = np.abs(w * dt) < 1e-6
        w_safe = np.where(small, 1.0, w)
        sin_f = np.where(small, dt * (1.0 - (w * dt) ** 2 / 6.0),
                         np.sin(w_safe * dt) / w_safe)
        cos_f = np.where(small, w * dt**2 / 2.0 * (1.0 - (w * dt) ** 2 / 12.0),
                         (1.0 - np.cos(w_safe * dt)) / w_safe)
        sin_wt, cos_wt = np.sin(w * dt), np.cos(w * dt)
        expected = np.column_stack([x1 + sin_f * v1 - cos_f * v2,
                                    cos_wt * v1 - sin_wt * v2,
                                    x2 + cos_f * v1 + sin_f * v2,
                                    sin_wt * v1 + cos_wt * v2, w])
        assert np.array_equal(model.transition(states, 1), expected)


class TestMomentIntegrand:
    def test_p1_at_origin(self):
        y, _ = moment_integrand(1)
        assert y(np.zeros((1, 3)))[0] == 1.0

    def test_p_minus2_squared(self):
        _, y2 = moment_integrand(-2)
        assert y2(np.array([[1.0, 1.0, 1.0]]))[0] == pytest.approx(1 / 16)

    def test_p1_norm_two(self):
        y, _ = moment_integrand(1)
        assert y(np.array([[1.0, 1.0, 1.0]]))[0] == pytest.approx(2.0)

    def test_square_consistency(self):
        y, y2 = moment_integrand(-3)
        x = np.random.default_rng(0).normal(size=(10, 4))
        np.testing.assert_allclose(y(x) ** 2, y2(x), rtol=1e-12)


class TestSimulate:
    def test_deterministic_per_seed(self):
        model = ungm_model()
        a = simulate(model, 50, seed=4)
        b = simulate(model, 50, seed=4)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.measurements, b.measurements)

    def test_noise_free_identity_model(self):
        prior = GaussianState(np.array([1.7]), np.array([[2.0]]))
        model = AdditiveStateSpaceModel(
            transition=lambda x, k: x,
            measurement=lambda x, k: x,
            process_cov=np.zeros((1, 1)),
            measurement_cov=np.zeros((1, 1)),
            prior=prior,
        )
        trajectory = simulate(model, 10, seed=0)
        np.testing.assert_allclose(trajectory.measurements,
                                   trajectory.states[0, 0], atol=1e-12)

    def test_ungm_state_variance_band(self):
        model = ungm_model()
        variances = [simulate(model, 500, seed=s).states.var() for s in range(20)]
        assert 1.0 <= np.mean(variances) <= 500.0

    def test_shapes(self):
        trajectory = simulate(bot_model(), 30, seed=2)
        assert trajectory.states.shape == (31, 5)
        assert trajectory.measurements.shape == (30, 4)

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            simulate(ungm_model(), 0, seed=0)

    def test_trajectory_validation(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros((5, 1)), np.zeros((5, 1)))


def multivariate_normal_trajectory(model, steps, seed):
    """The textbook draw: rng.multivariate_normal for every noise term."""
    rng = np.random.default_rng(seed)
    n, d = model.state_dim, model.measurement_dim
    states = [rng.multivariate_normal(model.prior.mean, model.prior.cov)]
    measurements = []
    for k in range(1, steps + 1):
        drift = model.transition(states[-1][None, :], k).reshape(n)
        states.append(drift + rng.multivariate_normal(np.zeros(n), model.process_cov))
        projected = model.measurement(states[-1][None, :], k).reshape(d)
        measurements.append(projected + rng.multivariate_normal(np.zeros(d),
                                                                model.measurement_cov))
    return np.array(states), np.array(measurements)


class TestSimulateDraws:
    @pytest.mark.parametrize("make_model, steps", [(ungm_model, 200), (bot_model, 60)])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_bit_identical_to_multivariate_normal(self, make_model, steps, seed):
        model = make_model()
        states, measurements = multivariate_normal_trajectory(model, steps, seed)
        trajectory = simulate(model, steps, seed)
        np.testing.assert_array_equal(trajectory.states, states)
        np.testing.assert_array_equal(trajectory.measurements, measurements)

    def test_non_psd_noise_warns_once(self):
        # a noise that is not PSD is rejected when the model is built; one
        # that the PSD tolerance admits but numpy's allclose does not is
        # factored once, and gets numpy's warning once
        with pytest.raises(ValueError, match="^process_cov: matrix is not PSD"):
            dataclasses.replace(nearly_psd_model(), process_cov=-np.eye(2))
        with pytest.warns(RuntimeWarning, match="positive-semidefinite") as record:
            simulate(nearly_psd_model(), 20, seed=0)
        assert len(record) == 1


def nearly_psd_model():
    """A 2-D model whose process noise has the eigenvalue -1e-7 beside 1e4."""
    return AdditiveStateSpaceModel(
        transition=lambda x, k: 0.5 * x,
        measurement=lambda x, k: x[:, :1],
        process_cov=np.diag([1e4, -1e-7]),
        measurement_cov=np.eye(1),
        prior=GaussianState(np.zeros(2), np.eye(2)),
    )


def walk_model(transition):
    """A 1-D random walk through ``transition``; prior N(0, 1)."""
    return AdditiveStateSpaceModel(
        transition=transition,
        measurement=lambda x, k: x,
        process_cov=np.eye(1),
        measurement_cov=np.eye(1),
        prior=GaussianState(np.zeros(1), np.eye(1)),
    )


class TestModelChecks:
    """A model's prior and constant noise are checked once, when it is built."""

    def test_constant_noise_and_prior_are_checked_at_construction(self):
        fields = dict(transition=lambda x, k: x, measurement=lambda x, k: x,
                      measurement_cov=np.eye(1))
        with pytest.raises(ValueError, match=r"^process_cov: matrix is not PSD"):
            AdditiveStateSpaceModel(process_cov=-1.0, prior=GaussianState(np.zeros(1), np.eye(1)),
                                    **fields)
        with pytest.raises(ValueError, match=r"^prior\.cov: matrix is not PSD"):
            AdditiveStateSpaceModel(process_cov=np.eye(1),
                                    prior=GaussianState(np.zeros(1), -np.eye(1)), **fields)

    def test_dimensions_are_read_off_the_prior_and_the_measurement_noise(self):
        for model in (ungm_model(), bot_model(), nearly_psd_model()):
            assert model.state_dim == model.prior.dimension
            assert model.measurement_dim == len(model.measurement_cov)
        assert (bot_model().state_dim, bot_model().measurement_dim) == (5, 4)
        for field in ("state_dim", "measurement_dim"):
            with pytest.raises(TypeError):  # neither is a field of its own
                AdditiveStateSpaceModel(lambda x, k: x, lambda x, k: x, 1.0, 1.0,
                                        GaussianState(np.zeros(1), np.eye(1)), **{field: 1})

    def test_replace_keeps_the_dimension_and_reruns_the_checks(self):
        # the path of a wrapper that swaps the model functions for traced ones
        model = dataclasses.replace(bot_model(), transition=lambda x, k: x)
        assert model.state_dim == model.prior.dimension == 5
        with pytest.raises(ValueError, match=r"^prior\.cov: matrix is not PSD"):
            dataclasses.replace(model, prior=GaussianState(np.zeros(5), -np.eye(5)))
        with pytest.raises(ValueError, match=r"^measurement_cov: matrix is not PSD"):
            dataclasses.replace(model, measurement_cov=-np.eye(4))
        with pytest.raises(ValueError, match=r"noise covariance of shape \(5, 5\)"):
            dataclasses.replace(model, prior=GaussianState(np.zeros(2), np.eye(2)))


class TestSimulateMany:
    @pytest.mark.parametrize("make_model, seeds, steps", [
        (ungm_model, range(8), 200),
        (bot_model, range(16), 60),
    ])
    def test_bit_identical_to_each_seed_alone(self, make_model, seeds, steps):
        model = make_model()
        batch = simulate_many(model, steps, seeds)
        n, d = model.state_dim, model.measurement_dim
        assert batch.states.shape == (len(seeds), steps + 1, n)
        assert batch.measurements.shape == (len(seeds), steps, d)
        for index, seed in enumerate(seeds):  # seed order along the leading axis
            alone = simulate(model, steps, seed)
            states, measurements = multivariate_normal_trajectory(model, steps, seed)
            for want in (alone.states, states):
                np.testing.assert_array_equal(batch.states[index], want)
            for want in (alone.measurements, measurements):
                np.testing.assert_array_equal(batch.measurements[index], want)

    def test_non_psd_constant_noise_warns_once_per_call(self):
        # a noise that is not PSD is a construction error; one that the PSD
        # tolerance admits is factored, and warned about, once per call
        # for all four seeds
        walk = walk_model(lambda x, k: 0.5 * x)
        with pytest.raises(ValueError, match="^process_cov: matrix is not PSD"):
            dataclasses.replace(walk, process_cov=np.array([[-1.0]]))
        with pytest.warns(RuntimeWarning, match="positive-semidefinite") as record:
            simulate_many(nearly_psd_model(), 20, range(4))
        assert len(record) == 1

    @pytest.mark.parametrize("steps, seeds", [(0, [0]), (-1, [0, 1]), (5, [])])
    def test_rejects_no_steps_or_no_seeds(self, steps, seeds):
        with pytest.raises(ValueError):
            simulate_many(ungm_model(), steps, seeds)

    def test_divergence_names_earliest_step_and_its_seed(self):
        # a state beyond 3 makes the next one NaN, at a step that depends
        # on the seed's draws
        model = walk_model(lambda x, k: np.where(np.abs(x) > 3.0, np.nan, x))
        seeds = list(range(8))
        first = {}
        for seed in seeds:
            with pytest.raises(NumericalError) as info:
                simulate(model, 100, seed)
            step = int(str(info.value).split("step ")[1].split()[0])
            assert str(info.value) == f"simulation diverged at step {step} (seed {seed})"
            first[seed] = step
        assert len(set(first.values())) > 1
        earliest = min(first.values())
        seed = next(s for s in seeds if first[s] == earliest)
        with pytest.raises(NumericalError,
                           match=rf"^simulation diverged at step {earliest} \(seed {seed}\)$"):
            simulate_many(model, 100, seeds)

    def test_divergence_tie_names_first_seed_in_order(self):
        model = walk_model(lambda x, k: x if k < 4 else np.full_like(x, np.inf))
        with pytest.raises(NumericalError,
                           match=r"^simulation diverged at step 4 \(seed 9\)$"):
            simulate_many(model, 10, [9, 2, 5])

    def test_non_finite_measurement_names_earliest_step_and_its_seed(self):
        # every state finite, a measurement inf once its state leaves [-1, 1]:
        # a diverged simulation, as a non-finite state is
        walk = walk_model(lambda x, k: x)
        model = dataclasses.replace(
            walk, measurement=lambda x, k: np.where(np.abs(x) > 1.0, np.inf, x))
        seeds = [0, 1]
        first = {}
        for seed in seeds:
            states = simulate(walk, 50, seed).states[1:, 0]
            first[seed] = int(np.flatnonzero(np.abs(states) > 1.0)[0]) + 1
        assert len(set(first.values())) > 1
        earliest = min(first.values())
        seed = next(s for s in seeds if first[s] == earliest)
        with pytest.raises(NumericalError,
                           match=rf"^simulation diverged at step {earliest} \(seed {seed}\): "
                                 r"non-finite measurement$"):
            simulate_many(model, 50, seeds)
