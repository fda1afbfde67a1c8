import numpy as np
import pytest

from riseq.channels import (
    ChannelRealization,
    FadingParams,
    Geometry,
    SPEED_OF_LIGHT,
    matrix_sqrt_psd,
    path_loss,
    received_pulse,
    sample_channels,
    spatial_correlation,
    steering_vector,
)


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def half_wave_geometry(m, **kw):
    # half-wavelength spacing makes the sinc correlation exactly the identity
    wavelength = SPEED_OF_LIGHT / 3.5e9
    return Geometry(n_elements=m, element_spacing=wavelength / 2, **kw)


class TestPathLoss:
    def test_identity_distance(self):
        assert path_loss(0.0, [1.0], 2.0) == pytest.approx(1.0)

    def test_unit_distance_isolates_db(self):
        assert path_loss(-43.0, [1.0], 3.5) == pytest.approx(10 ** (-4.3))

    def test_two_hop_values(self):
        # independent one-line evaluation of the formula
        expected = 10.0 ** (-4.3) * 10.0**-2 * 20.0**-2
        assert path_loss(-43.0, [10.0, 20.0], 2.0) == pytest.approx(expected, rel=1e-15)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            path_loss(0.0, [0.0], 2.0)
        with pytest.raises(ValueError):
            path_loss(0.0, [1.0, -2.0], 2.0)


class TestSteeringVector:
    def test_broadside_all_ones(self):
        v = steering_vector(0.0, 7, 0.02, 3.5e9)
        assert np.allclose(v, np.ones(7))

    def test_single_element(self):
        assert np.allclose(steering_vector(1.1, 1, 0.02, 3.5e9), [1.0])

    def test_half_wave_endfire_alternates(self):
        # spacing * f / c = 0.5 and theta = pi/2 gives a per-element phase of pi
        v = steering_vector(np.pi / 2, 3, 0.5, SPEED_OF_LIGHT)
        assert np.allclose(v, [1.0, -1.0, 1.0], atol=1e-12)

    def test_unit_magnitude(self):
        r = rng(1)
        for _ in range(20):
            v = steering_vector(r.uniform(-np.pi / 2, np.pi / 2), 16, 0.02, 3.5e9)
            assert np.max(np.abs(np.abs(v) - 1.0)) <= 1e-12


class TestSpatialCorrelation:
    def test_unit_diagonal(self):
        r = spatial_correlation([0.0, 0.013, 0.05], 3.5e9)
        assert np.allclose(np.diag(r), 1.0)

    def test_half_wavelength_identity(self):
        lam = SPEED_OF_LIGHT / 3.5e9
        pos = np.arange(6) * lam / 2
        assert np.allclose(spatial_correlation(pos, 3.5e9), np.eye(6), atol=1e-12)

    def test_quarter_wavelength_adjacent(self):
        lam = SPEED_OF_LIGHT / 3.5e9
        pos = np.arange(2) * lam / 4
        r = spatial_correlation(pos, 3.5e9)
        assert r[0, 1] == pytest.approx(2 / np.pi, rel=1e-12)

    def test_symmetric_and_psd_after_clamp(self):
        pos = np.arange(12) * 0.02
        r = spatial_correlation(pos, 3.5e9)
        assert np.allclose(r, r.T)
        vals = np.linalg.eigvalsh(r)
        assert vals.min() >= -1e-10


class TestMatrixSqrt:
    def test_identity(self):
        assert np.allclose(matrix_sqrt_psd(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        assert np.allclose(matrix_sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_random_psd_reconstruction(self):
        r = rng(2)
        b = r.normal(size=(8, 8))
        mat = b @ b.T
        root = matrix_sqrt_psd(mat)
        assert np.max(np.abs(root @ root - mat)) <= 1e-9
        assert np.allclose(root, root.T)

    def test_clamps_tiny_negative_eigenvalues(self):
        mat = np.diag([1.0, -5e-11])
        root = matrix_sqrt_psd(mat)
        assert np.all(np.isfinite(root))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            matrix_sqrt_psd(np.diag([1.0, -1e-6]))


class TestSampleChannels:
    def test_pure_los_tap_magnitudes(self):
        # kappa -> infinity limit: tap 0 is the steering vector times sqrt(gain)
        geom = half_wave_geometry(5)
        fading = FadingParams(kappa=1e12, n_delayed=0)
        ch = sample_channels(rng(3), geom, fading)
        assert ch.cascaded.shape == (5, 1)
        assert np.allclose(np.abs(ch.cascaded[:, 0]), np.sqrt(ch.cascaded_gain),
                           rtol=1e-5)

    def test_no_delayed_paths_single_tap(self):
        ch = sample_channels(rng(4), Geometry(n_elements=3),
                             FadingParams(n_delayed=0))
        assert ch.direct.shape == (1,)
        assert ch.cascaded.shape == (3, 1)

    def test_direct_tap0_variance_monte_carlo(self):
        geom = Geometry(n_elements=1)
        fading = FadingParams(n_delayed=0)
        r = rng(5)
        draws = 100_000
        taps = np.empty(draws, dtype=complex)
        for i in range(draws):
            taps[i] = sample_channels(r, geom, fading).direct[0]
        est = np.mean(np.abs(taps) ** 2)
        beta = path_loss(fading.gain_db, [geom.d_bu], fading.path_exp)
        assert est == pytest.approx(beta, rel=0.03)

    def test_second_moments_match_pdp(self):
        # cascaded taps: variance beta * sigma^2(k), uncorrelated elements
        geom = half_wave_geometry(2)
        fading = FadingParams(kappa=0.0, n_delayed=1, pdp_decay=0.5)
        r = rng(6)
        draws = 20_000
        acc = np.zeros((2, fading.n_isi + 1))
        for _ in range(draws):
            acc += np.abs(sample_channels(r, geom, fading).cascaded) ** 2
        est = acc / draws
        expected = np.outer(np.ones(2),
                            fading.tap_variances()) * path_loss(
            fading.ris_gain_db, [geom.d_br, geom.d_ru], fading.path_exp)
        # 3 sigma of the variance estimator for complex gaussians: var ~ E^2/N
        tol = 3.0 / np.sqrt(draws)
        assert np.all(np.abs(est / expected - 1.0) <= tol + 0.01)

    def test_finite_and_shapes(self):
        geom = Geometry(n_elements=8)
        fading = FadingParams(n_delayed=3)
        ch = sample_channels(rng(7), geom, fading)
        assert ch.cascaded.shape == (8, 7)
        assert np.all(np.isfinite(ch.direct)) and np.all(np.isfinite(ch.cascaded))


class TestReceivedPulse:
    def make_channel(self, m=4, n_delayed=2, seed=8):
        return sample_channels(rng(seed), Geometry(n_elements=m),
                               FadingParams(n_delayed=n_delayed))

    def test_single_element_sum(self):
        ch = sample_channels(rng(9), Geometry(n_elements=1),
                             FadingParams(n_delayed=0))
        y = received_pulse(ch, np.ones(1))
        assert y[0] == pytest.approx(ch.direct[0] + ch.cascaded[0, 0])

    def test_zero_reflection_removes_surface(self):
        ch = self.make_channel()
        y = received_pulse(ch, np.zeros(4))
        assert np.allclose(y, ch.direct)

    def test_affine_in_reflection(self):
        ch = self.make_channel(seed=10)
        r = rng(11)
        for _ in range(10):
            ga = r.normal(size=4) + 1j * r.normal(size=4)
            gb = r.normal(size=4) + 1j * r.normal(size=4)
            ya = received_pulse(ch, ga)
            yb = received_pulse(ch, gb)
            y0 = received_pulse(ch, np.zeros(4))
            yab = received_pulse(ch, ga + gb)
            assert np.max(np.abs(ya + yb - y0 - yab)) <= 1e-12

    def test_matrix_form(self):
        ch = self.make_channel(seed=12)
        g = rng(13).normal(size=4) + 1j * rng(14).normal(size=4)
        y = received_pulse(ch, g)
        assert np.allclose(y, ch.direct + g @ ch.cascaded, atol=1e-15)

    def test_noise_statistics(self):
        ch = self.make_channel(m=1, n_delayed=0, seed=15)
        r = rng(16)
        noise_power = 1e-3
        draws = np.array([received_pulse(ch, np.ones(1), noise_power, r)[0]
                          for _ in range(20_000)])
        clean = ch.direct[0] + ch.cascaded[0, 0]
        est = np.mean(np.abs(draws - clean) ** 2)
        assert est == pytest.approx(noise_power, rel=0.05)

    def test_length_mismatch_rejected(self):
        ch = self.make_channel()
        with pytest.raises(ValueError):
            received_pulse(ch, np.ones(3))

    def test_non_finite_pulse_rejected(self):
        ch = self.make_channel()
        with pytest.raises(ValueError, match="pulse samples must be finite"):
            received_pulse(ch, np.array([np.nan, 1.0, 1.0, 1.0]))

    def test_noise_requires_rng(self):
        ch = self.make_channel()
        with pytest.raises(ValueError):
            received_pulse(ch, np.ones(4), noise_power=1e-3)


class TestValidation:
    def test_geometry_invariants(self):
        with pytest.raises(ValueError):
            Geometry(n_elements=0)
        with pytest.raises(ValueError):
            Geometry(element_spacing=0.0)
        with pytest.raises(ValueError):
            Geometry(ue_pos=(0.0, 0.0))  # zero BS-UE distance

    def test_fading_invariants(self):
        with pytest.raises(ValueError):
            FadingParams(kappa=-1.0)
        assert FadingParams(n_delayed=4).n_isi == 8
        assert FadingParams().tap_variances()[0] == 1.0

    def test_channel_realization_validation(self):
        geom = Geometry(n_elements=2)
        fading = FadingParams(n_delayed=1)
        with pytest.raises(ValueError):
            ChannelRealization(direct=np.zeros(2), cascaded=np.zeros((2, 3)),
                               direct_gain=1.0, cascaded_gain=1.0,
                               geometry=geom, fading=fading)
