"""RIS-assisted pulse equalization and signal boosting.

A simulation and optimization toolkit for configuring a passive
reconfigurable intelligent surface as an over-the-air channel equalizer:
stochastic frequency-selective channel generation, a steepest-descent
equalizer with oracle channel knowledge (ARISE), three model-free
actor-critic agents (DDPG, TD3, SAC) built on a small numpy neural engine,
and an experiment harness with seeded, reproducible scenarios.
"""

from .channels import (
    ChannelRealization,
    FadingParams,
    Geometry,
    matrix_sqrt_psd,
    path_loss,
    received_pulse,
    sample_channels,
    spatial_correlation,
    steering_vector,
)
from .env import (
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
from .arise import AriseConfig, AriseTrace, inverse_phases, random_phases
from .agents import (
    AgentHyperparams,
    DdpgAgent,
    Experience,
    ReplayBuffer,
    SacAgent,
    Td3Agent,
    load_checkpoint,
    polyak_update,
    run_episode,
    save_checkpoint,
)
from .experiments import (
    RunRecord,
    ScenarioConfig,
    SweepRecord,
    emit_constellation,
    emit_csv,
    empirical_cdf,
    load_config,
    rng_streams,
    run_scenario,
    save_config,
    sweep,
)

__all__ = [
    "AgentHyperparams",
    "DdpgAgent",
    "Experience",
    "ReplayBuffer",
    "RunRecord",
    "SacAgent",
    "ScenarioConfig",
    "SweepRecord",
    "Td3Agent",
    "emit_constellation",
    "emit_csv",
    "empirical_cdf",
    "load_checkpoint",
    "load_config",
    "polyak_update",
    "rng_streams",
    "run_episode",
    "run_scenario",
    "save_checkpoint",
    "save_config",
    "sweep",
    "AriseConfig",
    "AriseTrace",
    "ChannelRealization",
    "EpisodeConfig",
    "FadingParams",
    "Geometry",
    "RisEnv",
    "action_to_reflection",
    "inverse_phases",
    "matrix_sqrt_psd",
    "path_loss",
    "pulse_objective",
    "pulse_objective_norm",
    "qpsk_constellation",
    "random_phases",
    "random_walk_step",
    "received_pulse",
    "sample_channels",
    "sinr_db",
    "spatial_correlation",
    "state_from_pulse",
    "steering_vector",
]

__version__ = "0.1.0"
