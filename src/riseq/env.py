"""Episodic RIS environment: pulse metrics, states, rewards, user mobility.

One episode corresponds to one channel coherence block. The environment
holds the current block, applies reflection vectors, and reports the pulse
quality metric that doubles as the reward for the learning agents: signed
main-tap power minus total ISI power, optionally normalized by the pulse
energy so it lands in [-1, 1]. A pulse is the complex array of its L+1
received samples, and every metric here takes one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channels import (
    ChannelRealization,
    FadingParams,
    Geometry,
    complex_normal,
    received_pulse,
    sample_channels,
)

DEFAULT_WALK_BOUNDS = (-100.0, -100.0, -10.0, 100.0)
DEFAULT_WALK_MAX_STEP = 20.0
_TINY = np.finfo(float).tiny  # the smallest normal float64


@dataclass(frozen=True)
class EpisodeConfig:
    """Episode length, user mobility box, and reward buffering scale."""

    n_steps: int = 2000
    walk_bounds: tuple[float, float, float, float] = DEFAULT_WALK_BOUNDS
    walk_max_step: float = DEFAULT_WALK_MAX_STEP
    reward_scale: float = 100.0

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        xmin, ymin, xmax, ymax = self.walk_bounds
        if not (xmin < xmax and ymin < ymax):
            raise ValueError("walk_bounds must describe a nonempty rectangle")


def pulse_objective(y) -> float:
    """Signed main-tap power minus ISI power.

    sgn(Re y_0) * (Re y_0)^2 - sum_{k>=1} |y_k|^2. Rewards a large,
    correctly phased real peak at the sampling origin and penalizes all
    delayed energy.
    """
    s = np.asarray(y, dtype=complex)
    main = s[0].real
    return float(np.sign(main) * main**2 - np.sum(np.abs(s[1:]) ** 2))


def normalize_objective(objective: float, y) -> float:
    """``objective`` over the energy of pulse ``y``, clamped to [-1, 1]: the energy
    adds the squares in another order than pulse_objective, so the ratio can round past 1."""
    energy = float(np.sum(np.abs(np.asarray(y, dtype=complex)) ** 2))
    if energy == 0.0:
        raise ValueError("all-zero pulse has no normalized objective")
    return min(max(objective / energy, -1.0), 1.0)


def pulse_objective_norm(y) -> float:
    """Objective normalized by total pulse energy; always in [-1, 1]."""
    return normalize_objective(pulse_objective(y), y)


def state_from_pulse(y) -> np.ndarray:
    """Interleaved Re/Im pulse array scaled by its max magnitude into [-1, 1]."""
    s = np.asarray(y, dtype=complex)
    state = np.empty(2 * s.size)
    state[0::2] = s.real
    state[1::2] = s.imag
    peak = np.max(np.abs(state))
    if peak == 0.0:
        raise ValueError("all-zero pulse has no state representation")
    return state / peak


def normalize_reflection(reflection: np.ndarray) -> np.ndarray:
    """Project onto unit magnitudes; exactly zero entries map to 1.

    z / |z| is inf+nanj for a subnormal modulus and 0 for one that
    overflows, so those entries are first brought into range by an exact
    power of two, which leaves their phase as it is.
    """
    reflection = np.asarray(reflection, dtype=complex)
    mags = np.abs(reflection)
    if mags.size == 0 or (mags.min() >= _TINY and mags.max() < np.inf):
        return reflection / mags
    reflection = reflection * np.where(mags < _TINY, 2.0**600,
                                       np.where(mags == np.inf, 2.0**-600, 1.0))
    mags = np.abs(reflection)
    nonzero = mags > 0
    return np.where(nonzero, reflection / np.where(nonzero, mags, 1.0), 1.0 + 0j)


def action_to_reflection(action) -> np.ndarray:
    """Pair up [Re_1, Im_1, ...] and project each coefficient to unit magnitude.

    An exactly zero pair has no phase; it maps to 1 to stay passive. A
    non-finite entry (a diverged policy) is an error, not a surface.
    """
    action = np.asarray(action, dtype=float)
    if action.ndim != 1 or action.size % 2 != 0:
        raise ValueError("action must be a flat array of Re/Im pairs")
    if not np.all(np.isfinite(action)):
        raise ValueError("action has non-finite entries: the agent has diverged")
    return normalize_reflection(action[0::2] + 1j * action[1::2])


def sinr_db(y, noise_power: float) -> float:
    """Main-tap power over ISI-plus-noise power, in dB."""
    s = np.asarray(y, dtype=complex)
    isi = float(np.sum(np.abs(s[1:]) ** 2))
    denom = isi + noise_power
    if denom <= 0:
        raise ValueError("sinr_db needs positive ISI or noise power")
    return float(10.0 * np.log10(s[0].real ** 2 / denom))


def random_walk_step(rng, pos, bounds=DEFAULT_WALK_BOUNDS,
                     max_step: float = DEFAULT_WALK_MAX_STEP,
                     max_tries: int = 10_000) -> tuple[float, float]:
    """Move up to ``max_step`` meters in a uniform direction, staying in bounds.

    Draws are rejected until the destination is inside the rectangle.
    """
    xmin, ymin, xmax, ymax = bounds
    for _ in range(max_tries):
        angle = rng.uniform(0.0, 2.0 * np.pi)
        dist = rng.uniform(0.0, max_step)
        x = pos[0] + dist * np.cos(angle)
        y = pos[1] + dist * np.sin(angle)
        if xmin <= x <= xmax and ymin <= y <= ymax:
            return (float(x), float(y))
    raise RuntimeError("random walk failed to find an in-bounds step")


def qpsk_constellation(y, n_symbols: int, noise_power: float,
                       rng: np.random.Generator) -> np.ndarray:
    """Received symbol-instant samples for a unit-energy QPSK stream.

    The stream is convolved with the pulse taps and complex Gaussian noise
    is added; the first L outputs are dropped as warm-up so every returned
    sample sees the full tap history.
    """
    s = np.asarray(y, dtype=complex)
    n_isi = s.size - 1
    if n_symbols < s.size:
        raise ValueError("n_symbols must be at least the pulse length")
    alphabet = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)
    symbols = alphabet[rng.integers(0, 4, n_symbols)]
    received = np.convolve(symbols, s)[:n_symbols]
    if noise_power > 0:
        received = received + complex_normal(rng, received.shape, noise_power)
    return received[n_isi:]


class RisEnv:
    """One coherence block at a time; probes the channel with unit pulses.

    Separate generators drive channel draws, receiver noise, and the user's
    random walk so that runs are reproducible stream by stream. Each
    optional stream is also its switch: with ``rng_noise`` every pulse
    carries fresh receiver noise, and with ``rng_walk`` the user takes one
    walk step before each new block. Pulses are complex sample arrays.
    """

    def __init__(self, geometry: Geometry, fading: FadingParams, *,
                 rng_channels: np.random.Generator,
                 rng_noise: np.random.Generator | None = None,
                 rng_walk: np.random.Generator | None = None,
                 episode: EpisodeConfig | None = None):
        self.geometry = geometry
        self.fading = fading
        self.episode = episode or EpisodeConfig()
        self.rng_channels = rng_channels
        self.rng_noise = rng_noise
        self.rng_walk = rng_walk
        self.channel: ChannelRealization | None = None
        self.last_pulse: np.ndarray | None = None

    @property
    def n_elements(self) -> int:
        return self.geometry.n_elements

    @property
    def state_dim(self) -> int:
        return 2 * (self.fading.n_isi + 1)

    @property
    def action_dim(self) -> int:
        return 2 * self.geometry.n_elements

    def new_coherence_block(self) -> ChannelRealization:
        """Redraw all channels, after one walk step of a walking user."""
        if self.rng_walk is not None:
            pos = random_walk_step(self.rng_walk, self.geometry.ue_pos,
                                   self.episode.walk_bounds,
                                   self.episode.walk_max_step)
            self.geometry = replace(self.geometry, ue_pos=pos)
        self.channel = sample_channels(self.rng_channels, self.geometry, self.fading)
        return self.channel

    def pulse(self, reflection, with_noise: bool = True) -> np.ndarray:
        """Synthesize the received pulse for a reflection vector; it is
        noiseless without a noise stream or with ``with_noise=False``."""
        if self.channel is None:
            raise RuntimeError("no active coherence block; call new_coherence_block")
        noisy = with_noise and self.rng_noise is not None
        power = self.fading.noise_power if noisy else 0.0
        return received_pulse(self.channel, reflection, power, self.rng_noise)

    def step(self, reflection) -> tuple[np.ndarray, float]:
        """Apply a reflection vector; return the next state and its reward."""
        y = self.pulse(reflection)
        self.last_pulse = y
        return state_from_pulse(y), pulse_objective_norm(y)
