"""ARISE: adaptive RIS equalization by steepest descent on the coefficients.

The surface has no delay taps, so equalization works purely through the
reflection coefficients acting on the cascaded per-element tap sequences.
The algorithm matches the received pulse, scaled by a frozen target level,
to the transmitted unit pulse by minimizing the mean squared error across
the L+1 tap windows. Updates move the complex coefficients directly (the
error is linear in them), followed by a projection back onto the unit
circle to keep the surface passive.

Two baselines accompany it: uniformly random phases, and the conjugate of
each element's tap-0 cascaded phase (a coherent main-tap combiner).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import ChannelRealization, received_pulse
from .env import (RisEnv, normalize_objective, normalize_reflection, pulse_objective,
                  pulse_objective_norm, sinr_db)


@dataclass(frozen=True)
class AriseConfig:
    """Tuning knobs of the descent.

    ``target_scale`` trades main-tap amplification (near 1) against ISI
    suppression (well below 1); the descent stops once the normalized
    objective moves less than ``conv_tol`` for ten consecutive iterations,
    and halves the step whenever the objective falls more than
    ``overshoot_tol`` below the best value seen.
    """

    target_scale: float = 0.10
    step_scale: float = 10.0
    conv_tol: float = 1e-5
    overshoot_tol: float = 0.5
    max_iters: int = 5000

    def __post_init__(self):
        if self.target_scale <= 0:
            raise ValueError("target_scale must be positive")
        if self.conv_tol <= 0 or self.overshoot_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class AriseTrace:
    """Per-iteration record of one descent run.

    ``initial_*`` hold the noiseless metrics of the starting configuration;
    the per-iteration lists record the pulse after each update.
    """

    objective: list[float] = field(default_factory=list)
    objective_norm: list[float] = field(default_factory=list)
    sinr_db: list[float] = field(default_factory=list)
    step_sizes: list[float] = field(default_factory=list)
    converged: bool = False
    initial_objective: float = 0.0
    initial_objective_norm: float = 0.0

    @property
    def iterations(self) -> int:
        """Descent iterations run: one per entry of each per-iteration list."""
        return len(self.objective)


def _scaled_error(samples: np.ndarray, y_scale: float) -> np.ndarray:
    # Error against the unit pulse, with the received pulse scaled down to
    # the frozen target level.
    if y_scale <= 0:
        raise ValueError("y_scale must be positive")
    err = -samples / y_scale
    err[0] += 1.0
    return err


def cost(reflection, channel: ChannelRealization, y_scale: float) -> float:
    """Mean squared tap error of the scaled pulse against the unit pulse."""
    y = channel.direct + np.asarray(reflection, dtype=complex) @ channel.cascaded
    err = _scaled_error(y, y_scale)
    return float(np.mean(np.abs(err) ** 2))


def cost_gradient(reflection, channel: ChannelRealization,
                  y_scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact cost gradient w.r.t. the real and imaginary coefficient parts."""
    y = channel.direct + np.asarray(reflection, dtype=complex) @ channel.cascaded
    err = _scaled_error(y, y_scale)
    # d(cost)/d(Gamma_m) = -(2 / y_scale) * mean_k conj(h_mk) err_k
    grad = -(2.0 / y_scale) * (channel.cascaded.conj() @ err) / err.size
    return grad.real, grad.imag


def gradient_step(reflection, cascaded: np.ndarray, y, y_scale: float,
                  step: float) -> np.ndarray:
    """One full descent update, averaging the error over all tap windows.

    With a unit probe pulse each window contributes a single term, so the
    update collapses to the mean of conj(cascaded tap) * error over taps.
    The result is returned before passivity normalization.
    """
    err = _scaled_error(np.asarray(y, dtype=complex), y_scale)
    return np.asarray(reflection, dtype=complex) + step * (cascaded.conj() @ err) / err.size


def sgd_step(reflection, cascaded: np.ndarray, y, y_scale: float, step: float,
             window: int) -> np.ndarray:
    """Single-window stochastic variant of :func:`gradient_step`."""
    if y_scale <= 0:
        raise ValueError("y_scale must be positive")
    samples = np.asarray(y, dtype=complex)
    if not 0 <= window < samples.size:
        raise IndexError("window index out of range")
    err_k = (1.0 if window == 0 else 0.0) - samples[window] / y_scale
    return np.asarray(reflection, dtype=complex) + step * cascaded[:, window].conj() * err_k


def run(env: RisEnv, config: AriseConfig | None = None) -> tuple[np.ndarray, AriseTrace]:
    """Descend from the all-ones surface to convergence on the environment's block.

    The initial pulse (observed through the environment, noise and all)
    freezes both the target level and the step size. Iterations then use
    noiseless offline pulse synthesis from the known channels. Convergence
    is declared after ten consecutive iterations with a normalized-objective
    change below the tolerance; an overshoot beyond the best value seen
    halves the step and resets the best-value tracker.
    """
    cfg = config or AriseConfig()
    ch = env.channel
    if ch is None:
        raise RuntimeError("environment has no active coherence block")

    m = ch.geometry.n_elements
    reflection = np.ones(m, dtype=complex)
    y0 = env.pulse(reflection)
    step = cfg.step_scale * y0.size / float(np.sum(np.abs(y0)))
    y_scale = cfg.target_scale * m * float(np.abs(y0[0]))

    trace = AriseTrace()
    best_norm = -1.0
    quiet_count = 0
    y = received_pulse(ch, reflection, 0.0)
    trace.initial_objective = pulse_objective(y)
    trace.initial_objective_norm = pulse_objective_norm(y)
    obj_norm = trace.initial_objective_norm
    for _ in range(cfg.max_iters):
        if obj_norm > best_norm:
            best_norm = obj_norm
        reflection = normalize_reflection(
            gradient_step(reflection, ch.cascaded, y, y_scale, step))
        y_next = received_pulse(ch, reflection, 0.0)
        obj_next = pulse_objective(y_next)
        obj_norm_next = normalize_objective(obj_next, y_next)
        if obj_norm_next < best_norm - cfg.overshoot_tol:
            step /= 2.0
            best_norm = -1.0
        if abs(obj_norm_next - obj_norm) < cfg.conv_tol:
            quiet_count += 1
        else:
            quiet_count = 0
        trace.objective.append(obj_next)
        trace.objective_norm.append(obj_norm_next)
        trace.sinr_db.append(sinr_db(y_next, ch.fading.noise_power))
        trace.step_sizes.append(step)
        y = y_next
        obj_norm = obj_norm_next
        if quiet_count >= 10:
            trace.converged = True
            break
    return reflection, trace


def random_phases(rng: np.random.Generator, n_elements: int) -> np.ndarray:
    """Unit-magnitude coefficients with phases uniform on [-pi, pi)."""
    if n_elements < 1:
        raise ValueError("n_elements must be >= 1")
    return np.exp(1j * rng.uniform(-np.pi, np.pi, n_elements))


def inverse_phases(cascaded: np.ndarray) -> np.ndarray:
    """Conjugate tap-0 phases so the main-tap contributions add coherently."""
    tap0 = np.asarray(cascaded)[:, 0]
    out = np.exp(-1j * np.angle(tap0))
    return np.where(tap0 == 0, 1.0 + 0j, out)
