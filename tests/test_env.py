import numpy as np
import pytest

from riseq.channels import ChannelRealization, FadingParams, Geometry
from riseq.env import (
    EpisodeConfig,
    RisEnv,
    action_to_reflection,
    pulse_objective,
    pulse_objective_norm,
    qpsk_constellation,
    random_walk_step,
    sinr_db,
    state_from_pulse,
)


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


class TestObjective:
    def test_perfect_pulse(self):
        assert pulse_objective(np.array([1, 0, 0], dtype=complex)) == 1.0

    def test_sign_term(self):
        assert pulse_objective(np.array([-1, 0], dtype=complex)) == -1.0

    def test_isi_penalty(self):
        assert pulse_objective(np.array([1, 0.5j])) == pytest.approx(0.75)


class TestObjectiveNorm:
    def test_perfect(self):
        assert pulse_objective_norm(np.array([1, 0], dtype=complex)) == 1.0

    def test_mixed(self):
        assert pulse_objective_norm(np.array([0.6, 0.8j])) == pytest.approx(-0.28)

    def test_bounded_on_random_pulses(self):
        r = rng(1)
        for _ in range(10_000):
            n = r.integers(1, 12)
            y = r.normal(size=n) + 1j * r.normal(size=n)
            v = pulse_objective_norm(y)
            assert -1.0 <= v <= 1.0

    def test_zero_pulse_rejected(self):
        with pytest.raises(ValueError):
            pulse_objective_norm(np.zeros(3, dtype=complex))


class TestState:
    def test_scaling(self):
        assert np.allclose(state_from_pulse(np.array([2.0 + 0j])), [1.0, 0.0])

    def test_interleaving(self):
        s = state_from_pulse(np.array([1 + 1j, 0]))
        assert np.allclose(s, [1.0, 1.0, 0.0, 0.0])

    def test_peak_is_one(self):
        r = rng(2)
        for _ in range(100):
            y = r.normal(size=5) + 1j * r.normal(size=5)
            s = state_from_pulse(y)
            assert np.max(np.abs(s)) == pytest.approx(1.0)
            assert s.size == 10

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            state_from_pulse(np.zeros(2, dtype=complex))


class TestActionToReflection:
    def test_real_unit(self):
        assert np.allclose(action_to_reflection([1.0, 0.0]), [1.0 + 0j])

    def test_imag_normalized(self):
        assert np.allclose(action_to_reflection([0.0, 2.0]), [1j])

    def test_three_four_five(self):
        assert np.allclose(action_to_reflection([3.0, 4.0]), [0.6 + 0.8j])

    def test_zero_pair_maps_to_one(self):
        out = action_to_reflection([0.0, 0.0, 1.0, 0.0])
        assert np.allclose(out, [1.0 + 0j, 1.0 + 0j])

    def test_always_unit_magnitude(self):
        r = rng(3)
        for _ in range(200):
            a = r.normal(size=16)
            out = action_to_reflection(a)
            assert np.max(np.abs(np.abs(out) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            action_to_reflection([1.0, 0.0, bad, 0.0])

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            action_to_reflection([1.0, 2.0, 3.0])


class TestSinr:
    def test_no_isi(self):
        assert sinr_db(np.array([1.0 + 0j, 0.0]), 0.01) == pytest.approx(20.0)

    def test_equal_powers(self):
        assert sinr_db(np.array([1.0 + 0j, 1.0]), 0.0) == pytest.approx(0.0)

    def test_mixed(self):
        expected = 10 * np.log10(1 / 0.6)
        assert sinr_db(np.array([1.0, 0.5j, 0.5]), 0.1) == pytest.approx(expected)

    def test_exact_closed_form(self):
        for a in (0.3, 1.0, 4.2):
            got = sinr_db(np.array([a + 0j, 0.0, 0.0]), 0.07)
            assert got == pytest.approx(10 * np.log10(a**2 / 0.07), rel=1e-12)


class TestRandomWalk:
    def test_step_bounded_and_inside(self):
        r = rng(4)
        pos = (-20.0, -20.0)
        inside = True
        bounded = True
        for _ in range(1_000_000):
            new = random_walk_step(r, pos)
            bounded &= np.hypot(new[0] - pos[0], new[1] - pos[1]) <= 20.0 + 1e-12
            inside &= -100.0 <= new[0] <= -10.0 and -100.0 <= new[1] <= 100.0
            pos = new
        assert inside and bounded

    def test_zero_distance_keeps_position(self):
        class ZeroRng:
            def uniform(self, lo, hi):
                return 0.0

        assert random_walk_step(ZeroRng(), (-20.0, -20.0)) == (-20.0, -20.0)


class TestQpsk:
    def test_ideal_channel_exact_alphabet(self):
        samples = qpsk_constellation(np.array([1.0 + 0j]), 100, 0.0, rng(5))
        alphabet = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2)
        assert samples.size == 100
        for s in samples:
            assert np.min(np.abs(s - alphabet)) <= 1e-12

    def test_linear_scaling(self):
        samples = qpsk_constellation(np.array([0.5 + 0j]), 50, 0.0, rng(6))
        assert np.allclose(np.abs(samples), 0.5)

    def test_warmup_discarded(self):
        y = np.array([1.0, 0.1, 0.1j])
        samples = qpsk_constellation(y, 1000, 0.0, rng(7))
        assert samples.size == 1000 - 2

    def test_cluster_variance_matches_isi_plus_noise(self):
        y = np.array([1.0 + 0j, 0.3j, 0.2])
        noise_power = 0.05
        r = rng(8)
        n = 100_000
        alphabet = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2)
        symbols = alphabet[r.integers(0, 4, n)]
        received = np.convolve(symbols, y)[:n]
        from riseq.channels import complex_normal
        received = received + complex_normal(r, received.shape, noise_power)
        samples = received[2:]
        resid = samples - y[0] * symbols[2:]
        est = np.mean(np.abs(resid) ** 2)
        expected = 0.09 + 0.04 + noise_power
        assert est == pytest.approx(expected, rel=0.05)

    def test_too_few_symbols_rejected(self):
        with pytest.raises(ValueError):
            qpsk_constellation(np.array([1.0, 0.5]), 1, 0.0, rng(9))


def make_env(noise=True, m=4, n_delayed=2, seed=10):
    geom = Geometry(n_elements=m)
    fading = FadingParams(n_delayed=n_delayed)
    return RisEnv(geom, fading, rng_channels=rng(seed),
                  rng_noise=rng(seed + 1) if noise else None, rng_walk=rng(seed + 2))


class TestRisEnv:
    def test_step_deterministic_without_noise(self):
        env = make_env(noise=False)
        env.new_coherence_block()
        g = np.exp(1j * rng(11).uniform(-np.pi, np.pi, 4))
        s1, r1 = env.step(g)
        s2, r2 = env.step(g)
        assert np.array_equal(s1, s2) and r1 == r2

    def test_reward_bounded(self):
        env = make_env()
        env.new_coherence_block()
        r = rng(12)
        for _ in range(50):
            g = np.exp(1j * r.uniform(-np.pi, np.pi, 4))
            _, reward = env.step(g)
            assert -1.0 <= reward <= 1.0

    def test_single_element_phase_cancel_gives_unit_reward(self):
        geom = Geometry(n_elements=1)
        fading = FadingParams(n_delayed=0)
        tap = 0.7 * np.exp(1j * 1.3)
        ch = ChannelRealization(direct=np.zeros(1, dtype=complex),
                                cascaded=np.array([[tap]]),
                                direct_gain=1.0, cascaded_gain=0.49,
                                geometry=geom, fading=fading)
        env = RisEnv(geom, fading, rng_channels=rng(13))
        env.channel = ch
        _, reward = env.step(np.array([np.exp(-1j * 1.3)]))
        assert reward == pytest.approx(1.0)

    def test_new_block_moves_ue_and_resamples(self):
        env = make_env()
        env.new_coherence_block()
        pos1, ch1 = env.geometry.ue_pos, env.channel
        env.new_coherence_block()
        assert env.geometry.ue_pos != pos1
        assert ch1 is not env.channel

    def test_dims(self):
        env = make_env(m=5, n_delayed=3)
        assert env.state_dim == 2 * 7
        assert env.action_dim == 10

    def test_episode_config_validation(self):
        with pytest.raises(ValueError):
            EpisodeConfig(n_steps=0)
        with pytest.raises(ValueError):
            EpisodeConfig(walk_bounds=(0.0, 0.0, -1.0, 1.0))
