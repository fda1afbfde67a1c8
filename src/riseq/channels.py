"""Frequency-selective channel generation for a RIS-assisted link.

Single-antenna base station and user, M-element reflecting surface laid out
as a uniform linear array. The direct BS-UE link is Rayleigh at every tap
(blocked line of sight); the cascaded BS-RIS-UE link is Rician at tap 0
(steering-vector line-of-sight component plus a scattered component) and
pure Rayleigh for the delayed taps, with sinc spatial correlation across
elements. Everything lives at sample instants, so a channel realization is
just its complex tap sequences. Reflection coefficients are applied later,
when a pulse is synthesized: the received pulse is a plain 1-D complex
array of its L+1 samples.

Power bookkeeping is done in a consistent milliwatt system: dBm/dB figures
are converted to linear factors 10^(x/10) and the transmitted probe pulse
has unit power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0


@dataclass(frozen=True)
class Geometry:
    """Node placement and array layout, all coordinates in meters."""

    bs_pos: tuple[float, float] = (0.0, 0.0)
    ris_pos: tuple[float, float] = (10.0, 0.0)
    ue_pos: tuple[float, float] = (-20.0, -20.0)
    element_spacing: float = 0.02
    n_elements: int = 100
    carrier_freq: float = 3.5e9

    def __post_init__(self):
        if self.n_elements < 1:
            raise ValueError("n_elements must be >= 1")
        if self.element_spacing <= 0:
            raise ValueError("element_spacing must be positive")
        if self.carrier_freq <= 0:
            raise ValueError("carrier_freq must be positive")
        for name in ("d_bu", "d_br", "d_ru"):
            if getattr(self, name) <= 0:
                raise ValueError(f"degenerate geometry: {name} must be positive")

    @property
    def d_bu(self) -> float:
        return math.dist(self.bs_pos, self.ue_pos)

    @property
    def d_br(self) -> float:
        return math.dist(self.bs_pos, self.ris_pos)

    @property
    def d_ru(self) -> float:
        return math.dist(self.ris_pos, self.ue_pos)

    @property
    def azimuth_to_ue(self) -> float:
        # Departure angle from the array normal; the array runs along x, so
        # sin(theta) is the x-component of the unit vector toward the UE.
        sin_theta = (self.ue_pos[0] - self.ris_pos[0]) / self.d_ru
        return math.asin(min(1.0, max(-1.0, sin_theta)))

    def element_positions(self) -> np.ndarray:
        """Element coordinates along the array axis."""
        return self.ris_pos[0] + self.element_spacing * np.arange(self.n_elements)


@dataclass(frozen=True)
class FadingParams:
    """Stochastic channel parameters.

    The delayed-tap count is twice the number of delayed propagation paths,
    since scattering on either hop of the cascaded link can delay a path.
    Tap variances follow an exponentially decaying power-delay profile with
    unit variance at tap 0; ``pdp_decay = 0`` gives a uniform profile.

    The default path-loss exponent is deliberately gentle: the product
    distance of the cascaded hop is an order of magnitude larger than the
    direct distance at the default geometry, and exponents near free space
    leave a small surface unable to outweigh direct-path ISI.
    """

    kappa: float = 10.0
    n_delayed: int = 10
    pdp_decay: float = 0.5
    path_exp: float = 1.2
    gain_db: float = -43.0
    ris_gain_db: float = -43.0
    noise_dbm: float = -96.0

    def __post_init__(self):
        if self.kappa < 0:
            raise ValueError("kappa must be >= 0")
        if self.n_delayed < 0:
            raise ValueError("n_delayed must be >= 0")
        if self.pdp_decay < 0:
            raise ValueError("pdp_decay must be >= 0")

    @property
    def n_isi(self) -> int:
        return 2 * self.n_delayed

    @property
    def noise_power(self) -> float:
        """Noise power as a linear factor in the milliwatt system."""
        return 10.0 ** (self.noise_dbm / 10.0)

    def tap_variances(self) -> np.ndarray:
        return np.exp(-self.pdp_decay * np.arange(self.n_isi + 1))


@dataclass
class ChannelRealization:
    """Tap matrices of one coherence block.

    ``direct`` holds the L+1 BS-UE taps; ``cascaded`` is M x (L+1) with one
    row of BS-RIS-UE taps per element, reflection coefficients not applied.
    """

    direct: np.ndarray
    cascaded: np.ndarray
    direct_gain: float
    cascaded_gain: float
    geometry: Geometry
    fading: FadingParams

    def __post_init__(self):
        self.direct = np.asarray(self.direct, dtype=complex)
        self.cascaded = np.asarray(self.cascaded, dtype=complex)
        n_taps = self.fading.n_isi + 1
        if self.direct.shape != (n_taps,):
            raise ValueError("direct taps must have length L+1")
        if self.cascaded.shape != (self.geometry.n_elements, n_taps):
            raise ValueError("cascaded taps must be M x (L+1)")
        if not (np.all(np.isfinite(self.direct)) and np.all(np.isfinite(self.cascaded))):
            raise ValueError("channel taps must be finite")


def path_loss(gain_db: float, distances, exponent: float) -> float:
    """Linear link gain 10^(gain_db/10) * prod(d_i^-exponent)."""
    distances = np.atleast_1d(np.asarray(distances, dtype=float))
    if np.any(distances <= 0):
        raise ValueError("path_loss requires strictly positive distances")
    return float(10.0 ** (gain_db / 10.0) * np.prod(distances ** -exponent))


def steering_vector(theta: float, n_elements: int, spacing: float,
                    carrier_freq: float) -> np.ndarray:
    """Unit-magnitude array response exp(j*m*omega), omega = 2*pi*d*(f/c)*sin(theta)."""
    if n_elements < 1:
        raise ValueError("n_elements must be >= 1")
    omega = 2.0 * np.pi * spacing * (carrier_freq / SPEED_OF_LIGHT) * np.sin(theta)
    return np.exp(1j * omega * np.arange(n_elements))


def spatial_correlation(positions, carrier_freq: float) -> np.ndarray:
    """Sinc correlation matrix sinc(2*|u_n - u_m| / wavelength), unit diagonal."""
    positions = np.asarray(positions, dtype=float)
    gaps = np.abs(positions[:, None] - positions[None, :])
    # np.sinc is the normalized sinc sin(pi x)/(pi x)
    return np.sinc(2.0 * gaps * carrier_freq / SPEED_OF_LIGHT)


def matrix_sqrt_psd(r: np.ndarray, neg_tol: float = 1e-10) -> np.ndarray:
    """Symmetric PSD square root via the eigendecomposition.

    Eigenvalues in [-neg_tol, 0), which arise from floating point, are
    clamped to zero; anything more negative is a genuine violation.
    """
    r = np.asarray(r, dtype=float)
    vals, vecs = np.linalg.eigh(r)
    if vals.min() < -neg_tol:
        raise ValueError(f"matrix is not PSD: min eigenvalue {vals.min():.3e}")
    vals = np.clip(vals, 0.0, None)
    root = (vecs * np.sqrt(vals)) @ vecs.T
    return 0.5 * (root + root.T)


def complex_normal(rng: np.random.Generator, shape, variance=1.0) -> np.ndarray:
    """Circularly symmetric complex Gaussian draws with given total variance."""
    scale = np.sqrt(np.asarray(variance, dtype=float) / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def sample_channels(rng: np.random.Generator, geometry: Geometry,
                    fading: FadingParams) -> ChannelRealization:
    """Draw one coherence block of direct and cascaded taps.

    Cascaded tap 0 mixes the line-of-sight steering vector with a scattered
    component at the configured Rician factor; delayed taps are scattered
    only, since the specular component exists just at the first sampling
    instant. The sinc correlation root couples elements at every tap.
    """
    n_taps = fading.n_isi + 1
    variances = fading.tap_variances()

    direct_gain = path_loss(fading.gain_db, [geometry.d_bu], fading.path_exp)
    direct = math.sqrt(direct_gain) * complex_normal(rng, n_taps, variances)

    cascaded_gain = path_loss(fading.ris_gain_db, [geometry.d_br, geometry.d_ru],
                              fading.path_exp)
    corr_root = matrix_sqrt_psd(
        spatial_correlation(geometry.element_positions(), geometry.carrier_freq))
    scattered = complex_normal(rng, (geometry.n_elements, n_taps), variances[None, :])
    los = steering_vector(geometry.azimuth_to_ue, geometry.n_elements,
                          geometry.element_spacing, geometry.carrier_freq)
    mixed = scattered.copy()
    k = fading.kappa
    mixed[:, 0] = math.sqrt(k / (k + 1.0)) * los + math.sqrt(1.0 / (k + 1.0)) * scattered[:, 0]
    cascaded = math.sqrt(cascaded_gain) * (corr_root @ mixed)

    return ChannelRealization(direct=direct, cascaded=cascaded,
                              direct_gain=direct_gain, cascaded_gain=cascaded_gain,
                              geometry=geometry, fading=fading)


def received_pulse(channel: ChannelRealization, reflection: np.ndarray,
                   noise_power: float = 0.0,
                   rng: np.random.Generator | None = None) -> np.ndarray:
    """Received samples y_k = direct_k + sum_m reflection_m * cascaded_{m,k} + n_k.

    The transmitted probe is the unit pulse, so convolution collapses to the
    tap sequences themselves, and the pulse is the complex array y_0 .. y_L.
    Noise is circularly symmetric complex Gaussian with total variance
    ``noise_power``, regenerated on every call.
    """
    reflection = np.asarray(reflection, dtype=complex)
    if reflection.shape != (channel.geometry.n_elements,):
        raise ValueError("reflection vector length must equal the element count")
    if noise_power < 0:
        raise ValueError("noise_power must be >= 0")
    samples = channel.direct + reflection @ channel.cascaded
    if noise_power > 0:
        if rng is None:
            raise ValueError("rng is required when noise_power > 0")
        samples = samples + complex_normal(rng, samples.shape, noise_power)
    if not np.all(np.isfinite(samples)):
        raise ValueError("pulse samples must be finite")
    return samples
