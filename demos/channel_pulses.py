"""Walk through the channel model: taps, pulses, and the quality metric.

Samples one coherence block, probes it with a few reflection settings, and
prints how the received pulse and its signed main-tap-minus-ISI score react.
"""

import numpy as np

from riseq import (
    FadingParams,
    Geometry,
    inverse_phases,
    pulse_objective,
    pulse_objective_norm,
    random_phases,
    received_pulse,
    sample_channels,
    sinr_db,
)

rng = np.random.Generator(np.random.PCG64(2024))

geometry = Geometry(n_elements=32)
fading = FadingParams(kappa=10.0, n_delayed=4)

print("Geometry:")
print(f"  BS {geometry.bs_pos}, RIS {geometry.ris_pos}, UE {geometry.ue_pos}")
print(f"  distances: BS-UE {geometry.d_bu:.1f} m, BS-RIS {geometry.d_br:.1f} m, "
      f"RIS-UE {geometry.d_ru:.1f} m")
print(f"  {geometry.n_elements} elements at {geometry.element_spacing * 1e3:.0f} mm "
      f"spacing, carrier {geometry.carrier_freq / 1e9:.1f} GHz")
print(f"Fading: Rician factor {fading.kappa}, {fading.n_delayed} delayed paths "
      f"-> {fading.n_isi} ISI taps, tap variances {np.round(fading.tap_variances(), 3)}")

channel = sample_channels(rng, geometry, fading)
print(f"\nLink gains: direct {channel.direct_gain:.3e}, "
      f"cascaded (per element) {channel.cascaded_gain:.3e}")
print(f"Direct tap magnitudes:   {np.round(np.abs(channel.direct) * 1e4, 3)} (x 1e-4)")
print(f"Cascaded tap magnitudes, element 0: "
      f"{np.round(np.abs(channel.cascaded[0]) * 1e4, 3)} (x 1e-4)")

print("\nReflection settings vs pulse quality (noiseless probes):")
settings = {
    "all ones": np.ones(32, dtype=complex),
    "random phases": random_phases(rng, 32),
    "inverse phases": inverse_phases(channel.cascaded),
}
noise_power = fading.noise_power
for name, reflection in settings.items():
    y = received_pulse(channel, reflection)
    print(f"  {name:15s}: |y0| = {abs(y[0]):.3e}, "
          f"score = {pulse_objective(y):+.3e}, "
          f"normalized = {pulse_objective_norm(y):+.3f}, "
          f"SINR = {sinr_db(y, noise_power):+6.2f} dB")

print("\nThe inverse-phase setting lines up every element's main tap, which"
      "\nboosts |y0| by roughly the element count while the delayed taps stay"
      "\nincoherent; the random setting usually scores negative because ISI"
      "\ndominates whatever main-tap power survives the phase scramble.")
