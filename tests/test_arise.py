import numpy as np
import pytest

from riseq import arise
from riseq.arise import AriseConfig
from riseq.channels import (
    ChannelRealization,
    FadingParams,
    Geometry,
    SPEED_OF_LIGHT,
    received_pulse,
    sample_channels,
)
from riseq.env import RisEnv, pulse_objective_norm


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def random_channel(m=4, n_delayed=3, seed=0):
    return sample_channels(rng(seed), Geometry(n_elements=m),
                           FadingParams(n_delayed=n_delayed))


def synthetic_channel(m, n_taps, seed):
    """Order-one random taps: well conditioned for finite differencing."""
    r = rng(seed)
    geom = Geometry(n_elements=m)
    fading = FadingParams(n_delayed=(n_taps - 1) // 2)
    direct = r.normal(size=n_taps) + 1j * r.normal(size=n_taps)
    cascaded = r.normal(size=(m, n_taps)) + 1j * r.normal(size=(m, n_taps))
    return ChannelRealization(direct=direct, cascaded=cascaded, direct_gain=1.0,
                              cascaded_gain=1.0, geometry=geom, fading=fading)


class TestGradientStep:
    def test_zero_error_is_fixed_point(self):
        ch = random_channel()
        g = np.exp(1j * rng(1).uniform(-np.pi, np.pi, 4))
        y_scale = 2.0
        y = np.zeros(7, dtype=complex)
        y[0] = y_scale  # scaled pulse equals the target exactly
        out = arise.gradient_step(g, ch.cascaded, y, y_scale, step=0.5)
        assert np.allclose(out, g)

    def test_zero_step_is_identity(self):
        ch = random_channel(seed=2)
        g = np.exp(1j * rng(3).uniform(-np.pi, np.pi, 4))
        y = received_pulse(ch, g)
        assert np.allclose(arise.gradient_step(g, ch.cascaded, y, 1.0, 0.0), g)

    def test_single_element_single_tap_closed_form(self):
        h = np.array([[0.4 - 0.2j]])
        g = np.array([1.0 + 0j])
        y = np.array([0.3 + 0.1j])
        y_scale, step = 2.0, 0.7
        err = 1.0 - y[0] / y_scale
        expected = g[0] + step * np.conj(h[0, 0]) * err
        out = arise.gradient_step(g, h, y, y_scale, step)
        assert out[0] == pytest.approx(expected)

    def test_update_is_negative_half_gradient(self):
        # update = -(step * y_scale / 2) * (dJ/dRe + j dJ/dIm)
        ch = random_channel(m=4, n_delayed=3, seed=4)
        g = rng(5).normal(size=4) + 1j * rng(6).normal(size=4)
        y_scale = 1.7
        y = received_pulse(ch, g)
        step = 0.9
        update = arise.gradient_step(g, ch.cascaded, y, y_scale, step) - g
        gre, gim = arise.cost_gradient(g, ch, y_scale)
        assert np.allclose(update, -(step * y_scale / 2.0) * (gre + 1j * gim),
                           rtol=1e-12)

    def test_rejects_bad_scale(self):
        ch = random_channel()
        with pytest.raises(ValueError):
            arise.gradient_step(np.ones(4), ch.cascaded, np.ones(7), 0.0, 0.1)


class TestCostGradient:
    def test_matches_finite_differences(self):
        h = 1e-6
        for seed in range(5):
            ch = synthetic_channel(4, 7, seed + 10)  # M=4, L=6
            r = rng(seed + 50)
            g = r.normal(size=4) + 1j * r.normal(size=4)
            y_scale = float(r.uniform(0.5, 2.0))
            gre, gim = arise.cost_gradient(g, ch, y_scale)
            for m in range(4):
                for part, analytic in ((1.0, gre[m]), (1j, gim[m])):
                    up = arise.cost(g + h * part * np.eye(4, dtype=complex)[m],
                                    ch, y_scale)
                    dn = arise.cost(g - h * part * np.eye(4, dtype=complex)[m],
                                    ch, y_scale)
                    fd = (up - dn) / (2 * h)
                    assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-12)


class TestSgdStep:
    def test_zero_window_error_is_identity(self):
        ch = random_channel(seed=20)
        g = np.exp(1j * rng(21).uniform(-np.pi, np.pi, 4))
        y = received_pulse(ch, g)
        y[3] = 0.0  # window 3 error is exactly zero (s_3 = 0)
        out = arise.sgd_step(g, ch.cascaded, y, 1.0, 0.5, window=3)
        assert np.allclose(out, g)

    def test_mean_of_windows_equals_full_step(self):
        ch = random_channel(seed=22)
        g = np.exp(1j * rng(23).uniform(-np.pi, np.pi, 4))
        y = received_pulse(ch, g)
        full = arise.gradient_step(g, ch.cascaded, y, 1.5, 0.8)
        singles = [arise.sgd_step(g, ch.cascaded, y, 1.5, 0.8, window=k)
                   for k in range(y.size)]
        assert np.allclose(np.mean(singles, axis=0), full, rtol=1e-12)

    def test_out_of_range_window(self):
        ch = random_channel()
        with pytest.raises(IndexError):
            arise.sgd_step(np.ones(4), ch.cascaded, np.ones(7), 1.0, 0.1, window=7)

    def test_cycled_windows_track_full_descent(self):
        # single-window updates, cycling the window, land near the
        # full-expectation optimum on a fixed small instance
        geom = Geometry(n_elements=8)
        fading = FadingParams(n_delayed=2, kappa=10.0)
        ch = sample_channels(rng(24), geom, fading)
        env = RisEnv(geom, fading, rng_channels=rng(25))
        env.channel = ch
        cfg = AriseConfig(target_scale=0.10)
        full_refl, full_trace = arise.run(env, config=cfg)

        g = np.ones(8, dtype=complex)
        y = received_pulse(ch, g)
        step = cfg.step_scale * y.size / np.sum(np.abs(y))
        y_scale = cfg.target_scale * 8 * np.abs(y[0])
        n_taps = y.size
        for i in range(4000):
            g = arise.normalize_reflection(
                arise.sgd_step(g, ch.cascaded, y, y_scale, step, window=i % n_taps))
            y = received_pulse(ch, g)
        sgd_final = pulse_objective_norm(y)
        assert abs(sgd_final - full_trace.objective_norm[-1]) <= 0.05


class TestRun:
    def test_fixed_point_terminates_fast(self):
        # one pure-LoS broadside tap, no direct path: already equalized
        lam = SPEED_OF_LIGHT / 3.5e9
        geom = Geometry(n_elements=6, element_spacing=lam / 2,
                        ue_pos=(10.0, -30.0))  # broadside: steering all ones
        fading = FadingParams(kappa=1e12, n_delayed=0)
        ch = sample_channels(rng(30), geom, fading)
        ch.direct[:] = 0.0
        env = RisEnv(geom, fading, rng_channels=rng(31))
        env.channel = ch
        refl, trace = arise.run(env, config=AriseConfig(target_scale=0.5))
        assert trace.converged
        assert trace.iterations == 10
        assert abs(trace.objective_norm[-1] - trace.initial_objective_norm) < 1e-5
        assert trace.objective_norm[-1] == pytest.approx(1.0)

    def test_unit_magnitudes_after_run(self):
        geom = Geometry(n_elements=8)
        fading = FadingParams(n_delayed=2)
        env = RisEnv(geom, fading, rng_channels=rng(32), rng_noise=rng(33))
        env.new_coherence_block()
        refl, _ = arise.run(env, config=AriseConfig())
        assert np.max(np.abs(np.abs(refl) - 1.0)) <= 1e-12

    def test_improvement_statistics_desk_scale(self):
        wins = 0
        for seed in range(30):
            geom = Geometry(n_elements=32)
            fading = FadingParams(kappa=10.0, n_delayed=5)
            env = RisEnv(geom, fading, rng_channels=rng(100 + seed),
                         rng_noise=rng(200 + seed), rng_walk=rng(300 + seed))
            env.new_coherence_block()
            _, trace = arise.run(env, config=AriseConfig(target_scale=0.10))
            wins += trace.objective_norm[-1] > trace.initial_objective_norm
        assert wins >= 28

    def test_overshoot_halves_step(self):
        # an absurd step scale forces an overshoot past the drop tolerance
        geom = Geometry(n_elements=16)
        fading = FadingParams(kappa=10.0, n_delayed=3)
        env = RisEnv(geom, fading, rng_channels=rng(40))
        env.new_coherence_block()
        cfg = AriseConfig(target_scale=0.10, step_scale=1e4, max_iters=200)
        _, trace = arise.run(env, config=cfg)
        steps = np.array(trace.step_sizes)
        assert np.any(steps[1:] == steps[:-1] / 2.0)

    def test_monotone_cost_at_small_step(self):
        # descent property: J non-increasing over the first 50 iterations
        geom = Geometry(n_elements=8)
        fading = FadingParams(n_delayed=3)
        for seed in range(3):
            ch = sample_channels(rng(50 + seed), geom, fading)
            g = np.ones(8, dtype=complex)
            y0 = received_pulse(ch, g)
            step = 0.1 * y0.size / np.sum(np.abs(y0))  # alpha_mu = 0.1
            y_scale = 0.5 * 8 * np.abs(y0[0])
            costs = []
            y = y0
            for _ in range(50):
                costs.append(arise.cost(g, ch, y_scale))
                g = arise.gradient_step(g, ch.cascaded, y, y_scale, step)
                y = received_pulse(ch, g)
            costs.append(arise.cost(g, ch, y_scale))
            diffs = np.diff(costs)
            assert np.all(diffs <= 1e-12)

    def test_trace_bounded_by_max_iters(self):
        geom = Geometry(n_elements=4)
        fading = FadingParams(n_delayed=2)
        env = RisEnv(geom, fading, rng_channels=rng(60))
        env.new_coherence_block()
        _, trace = arise.run(env, config=AriseConfig(max_iters=7, conv_tol=1e-30))
        assert trace.iterations == 7 and not trace.converged


class TestBaselines:
    def test_random_unit_magnitude(self):
        out = arise.random_phases(rng(70), 50)
        assert np.max(np.abs(np.abs(out) - 1.0)) <= 1e-12

    def test_random_single_element(self):
        out = arise.random_phases(rng(71), 1)
        assert out.shape == (1,) and abs(abs(out[0]) - 1.0) <= 1e-12

    def test_random_phase_uniformity_chi_square(self):
        phases = np.angle(arise.random_phases(rng(72), 100_000))
        counts, _ = np.histogram(phases, bins=20, range=(-np.pi, np.pi))
        expected = 100_000 / 20
        chi2 = np.sum((counts - expected) ** 2 / expected)
        # 0.999 quantile of chi-square with 19 dof
        assert chi2 < 43.82

    def test_inverse_conjugates_phase(self):
        h = np.array([[0.5 * np.exp(1j * 0.9)]])
        out = arise.inverse_phases(h)
        assert out[0] == pytest.approx(np.exp(-1j * 0.9))

    def test_inverse_pure_los_broadside_all_ones(self):
        lam = SPEED_OF_LIGHT / 3.5e9
        geom = Geometry(n_elements=5, element_spacing=lam / 2,
                        ue_pos=(10.0, -30.0))
        ch = sample_channels(rng(73), geom, FadingParams(kappa=1e12, n_delayed=0))
        out = arise.inverse_phases(ch.cascaded)
        assert np.allclose(out, np.ones(5), atol=1e-5)

    def test_inverse_zero_tap_maps_to_one(self):
        h = np.array([[0.0 + 0j], [1j]])
        out = arise.inverse_phases(h)
        assert out[0] == 1.0 + 0j

    def test_coherent_sum_closed_form(self):
        lam = SPEED_OF_LIGHT / 3.5e9
        for m in (1, 16, 100):
            geom = Geometry(n_elements=m, element_spacing=lam / 2,
                            ue_pos=(10.0, -30.0))
            # kappa large enough that the residual scattered sum stays
            # below the 1e-9 closed-form tolerance even at M=100
            fading = FadingParams(kappa=1e18, n_delayed=0)
            ch = sample_channels(rng(74), geom, fading)
            ch.direct[:] = 0.0
            y = received_pulse(ch, arise.inverse_phases(ch.cascaded))
            assert abs(abs(y[0]) - m * np.sqrt(ch.cascaded_gain)) <= 1e-9


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            AriseConfig(target_scale=0.0)
        with pytest.raises(ValueError):
            AriseConfig(conv_tol=0.0)
        with pytest.raises(ValueError):
            AriseConfig(max_iters=0)
