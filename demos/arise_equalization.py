"""The steepest-descent equalizer at work, including the target-scale knob.

Runs the descent on one coherence block with several target scales and
prints the equalization/amplification tradeoff that the scale controls:
small targets practically erase ISI, large targets chase main-tap power.
"""

import numpy as np

from riseq import FadingParams, Geometry, RisEnv, inverse_phases, random_phases
from riseq import pulse_objective_norm, received_pulse, sinr_db
from riseq.arise import AriseConfig, run as arise_run

streams = [np.random.Generator(np.random.PCG64(s))
           for s in np.random.SeedSequence(7).spawn(3)]
geometry = Geometry(n_elements=32)
fading = FadingParams(kappa=10.0, n_delayed=5)
env = RisEnv(geometry, fading, rng_channels=streams[0])  # no noise, no walk
channel = env.new_coherence_block()
noise_power = fading.noise_power

print("Baselines on this block:")
for name, reflection in (("random phases", random_phases(streams[2], 32)),
                         ("inverse phases", inverse_phases(channel.cascaded))):
    y = received_pulse(channel, reflection)
    print(f"  {name:15s}: normalized score {pulse_objective_norm(y):+.3f}, "
          f"SINR {sinr_db(y, noise_power):+6.2f} dB")

print("\nDescent at different target scales (same block):")
print(f"  {'scale':>6s} {'iters':>6s} {'score':>8s} {'|y0|':>10s} {'SINR dB':>8s}")
for scale in (1.00, 0.50, 0.25, 0.10):
    reflection, trace = arise_run(env, config=AriseConfig(target_scale=scale))
    y = received_pulse(channel, reflection)
    print(f"  {scale:6.2f} {trace.iterations:6d} "
          f"{trace.objective_norm[-1]:+8.3f} {abs(y[0]):10.3e} "
          f"{sinr_db(y, noise_power):8.2f}")

print("\nSmaller targets weight the ISI terms more heavily relative to the"
      "\nmain tap, so the converged surface trades raw amplitude for a far"
      "\ncleaner pulse; the step halves automatically whenever the"
      "\nnormalized score overshoots past its best value by the configured"
      "\ndrop tolerance.")
