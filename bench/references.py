"""Regenerate the bit-identity references instead of storing a copy.

    python3 bench/references.py            # cell score, then every workload
    python3 bench/references.py --seed 4

Prints the criterion-8 SAC cell score (M=16, 4 delayed paths, 128-wide
networks, 3 episodes of 2000 steps, seed 0: the mean normalized score of
the last 200 steps) and the records digest of one round of each workload at
``--seed``. A change that claims to keep results bit-identical runs this on
the parent and on the change and compares the two outputs line for line.

The cell runs traced, so it also prints Adam's time per call in each
episode and the subnormal Adam moments the agent holds at the end.
"""

from __future__ import annotations

import argparse
import os
import shutil

import run  # pins BLAS to one thread before numpy loads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    args = parser.parse_args(argv)

    run.use_checkout_sources()
    import numpy as np
    from riseq.agents import AgentHyperparams
    from riseq.channels import FadingParams, Geometry
    from riseq.env import EpisodeConfig
    from riseq.experiments import ScenarioConfig

    import workloads
    from tracer import RiseqTracer

    workdir = run.OUT / f"references-p{os.getpid()}"
    try:
        cell = ScenarioConfig(geometry=Geometry(n_elements=16),
                              fading=FadingParams(kappa=10.0, n_delayed=4),
                              episode=EpisodeConfig(n_steps=2000),
                              agent=AgentHyperparams(hidden_width=128), episodes=3)
        phases = [workloads.Phase("cell", "train", ("train", "sac"), cell, 0)]
        workloads.prepare(phases, workdir)
        tracer = RiseqTracer()
        tracer.install()
        try:
            rnd = workloads.run_round(phases, workdir)
        finally:
            tracer.uninstall()
        score = float(np.mean(rnd.records["cell"].norm[2][-200:]))
        print(f"criterion-8 SAC cell score (seed 0): {score!r}")
        for episode in sorted(tracer.adam_by_episode):
            calls, _ = tracer.adam_by_episode[episode]
            print(f"  episode {episode}: {calls} Adam.step calls, "
                  f"{tracer.adam_us_per_call(episode):.0f} us per call")
        print(f"  subnormal Adam moments at the end: {tracer.subnormal_moments()}")
        for name, make in workloads.WORKLOADS.items():
            phases = make(args.seed)
            workloads.prepare(phases, workdir)
            print(f"{name} records digest (seed {args.seed}): "
                  f"{workloads.run_round(phases, workdir).digest()}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
