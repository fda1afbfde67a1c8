"""Scenario definitions, sweeps, metric aggregation, and CSV persistence.

A scenario bundles geometry, fading, episode, descent, and agent settings
with an algorithm tag and a master seed. Configs round-trip through a flat
INI text format (one section per subsystem). Randomness is split into
named substreams (channels, noise, walk, agent init, policy sampling,
constellation symbols) derived from the master seed via SeedSequence
spawning on top of PCG64, so every run is reproducible bit for bit on a
platform and the streams can be documented and reasoned about separately.
"""

from __future__ import annotations

import configparser
import io
import math
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import arise
from .agents import AGENTS, AgentHyperparams, run_episode
from .arise import AriseConfig
from .channels import FadingParams, Geometry
from .env import EpisodeConfig, RisEnv, pulse_objective, pulse_objective_norm, \
    qpsk_constellation, sinr_db

ALGORITHMS = ("arise", *AGENTS, "random", "inverse")
STREAM_NAMES = ("channels", "noise", "walk", "agent", "policy", "qpsk")


class ConfigError(ValueError):
    """Configuration validation failure with a field-level message."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one experiment."""

    geometry: Geometry = field(default_factory=Geometry)
    fading: FadingParams = field(default_factory=FadingParams)
    episode: EpisodeConfig = field(default_factory=EpisodeConfig)
    arise: AriseConfig = field(default_factory=AriseConfig)
    agent: AgentHyperparams = field(default_factory=AgentHyperparams)
    algorithm: str = "arise"
    episodes: int = 10
    seed: int = 0
    noise: bool = True
    move_ue: bool = True

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"run.algorithm: unknown algorithm {self.algorithm!r}, "
                              f"expected one of {ALGORITHMS}")
        if self.episodes < 1:
            raise ConfigError("run.episodes: must be >= 1")
        if self.seed < 0:
            raise ConfigError("run.seed: must be >= 0")
        if self.move_ue:
            # Every walk step must end inside the box, so a user who starts
            # more than one step outside it can never take one.
            xmin, ymin, xmax, ymax = self.episode.walk_bounds
            x, y = self.geometry.ue_pos
            outside = math.hypot(max(xmin - x, 0.0, x - xmax), max(ymin - y, 0.0, y - ymax))
            if outside > self.episode.walk_max_step:
                raise ConfigError(
                    f"geometry.ue_pos: the user at ({x:g}, {y:g}) starts {outside:g} m "
                    f"outside episode.walk_bounds, farther than one walk step "
                    f"(episode.walk_max_step = {self.episode.walk_max_step:g} m)")


@dataclass
class RunRecord:
    """One per-step (or per-episode, for baselines) observation."""

    episode: int
    step: int
    algorithm: str
    objective: float
    objective_norm: float
    sinr_db: float
    wall_time: float


@dataclass
class SweepRecord:
    """Last-10-step summary of one sweep cell."""

    axis: str
    value: float
    algorithm: str
    mean_objective_norm: float
    std_objective_norm: float


def rng_streams(seed: int) -> dict[str, np.random.Generator]:
    """Named, independent PCG64 substreams spawned from the master seed."""
    children = np.random.SeedSequence(seed).spawn(len(STREAM_NAMES))
    return {name: np.random.Generator(np.random.PCG64(child))
            for name, child in zip(STREAM_NAMES, children)}


# ---------------------------------------------------------------------------
# config file round-trip (flat INI, one section per subsystem)

_SECTIONS = {
    "geometry": ("geometry", Geometry),
    "fading": ("fading", FadingParams),
    "episode": ("episode", EpisodeConfig),
    "arise": ("arise", AriseConfig),
    "agent": ("agent", AgentHyperparams),
}


def _render_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ", ".join(repr(float(v)) for v in value)
    return str(value)


def _parse_value(text: str, kind):
    text = text.strip()
    if kind is bool:
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"not a boolean: {text!r}")
    if kind is int:
        return int(text)
    if kind is float:
        return float(text)
    if kind is tuple:
        return tuple(float(part) for part in text.split(","))
    return text


def render_config(cfg: ScenarioConfig) -> str:
    """Serialize to INI text; parse_config inverts this exactly."""
    parser = configparser.ConfigParser()
    parser["run"] = {
        "algorithm": cfg.algorithm,
        "episodes": str(cfg.episodes),
        "seed": str(cfg.seed),
        "noise": _render_value(cfg.noise),
        "move_ue": _render_value(cfg.move_ue),
    }
    for section, (attr, _) in _SECTIONS.items():
        obj = getattr(cfg, attr)
        parser[section] = {f.name: _render_value(getattr(obj, f.name))
                           for f in fields(obj)}
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def parse_config(text: str) -> ScenarioConfig:
    """Parse INI text into a ScenarioConfig, validating field by field."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from exc
    kwargs = {}
    for section, (attr, cls) in _SECTIONS.items():
        if not parser.has_section(section):
            continue
        names, defaults = {f.name for f in fields(cls)}, cls()
        values = {}
        for key, raw in parser.items(section):
            if key not in names:
                raise ConfigError(f"{section}.{key}: unknown field")
            default = getattr(defaults, key)
            kind = tuple if isinstance(default, tuple) else type(default)
            try:
                values[key] = _parse_value(raw, kind)
            except ValueError as exc:
                raise ConfigError(f"{section}.{key}: {exc}") from exc
        try:
            kwargs[attr] = cls(**values)
        except ValueError as exc:
            raise ConfigError(f"{section}: {exc}") from exc
    run_kwargs = {}
    if parser.has_section("run"):
        converters = {"algorithm": str, "episodes": int, "seed": int,
                      "noise": bool, "move_ue": bool}
        for key, raw in parser.items("run"):
            if key not in converters:
                raise ConfigError(f"run.{key}: unknown field")
            try:
                run_kwargs[key] = _parse_value(raw, converters[key])
            except ValueError as exc:
                raise ConfigError(f"run.{key}: {exc}") from exc
    try:
        return ScenarioConfig(**kwargs, **run_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def save_config(cfg: ScenarioConfig, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_config(cfg))


# ---------------------------------------------------------------------------
# scenario execution

def build_env(cfg: ScenarioConfig, streams: dict[str, np.random.Generator]) -> RisEnv:
    return RisEnv(cfg.geometry, cfg.fading, rng_channels=streams["channels"],
                  rng_noise=streams["noise"] if cfg.noise else None,
                  rng_walk=streams["walk"] if cfg.move_ue else None,
                  episode=cfg.episode)


def make_agent(cfg: ScenarioConfig, env: RisEnv, rng: np.random.Generator):
    """The learning agent the config names; None for ARISE and the baselines."""
    cls = AGENTS.get(cfg.algorithm)
    return None if cls is None else cls(env.state_dim, env.action_dim, cfg.agent, rng)


def _metrics(env: RisEnv, pulse) -> tuple[float, float, float]:
    return (pulse_objective(pulse), pulse_objective_norm(pulse),
            sinr_db(pulse, env.fading.noise_power))


def _play_block(cfg: ScenarioConfig, env: RisEnv, streams: dict, agent):
    """Run the configured algorithm on the current block; return the last
    surface and the (objective, normalized objective, SINR) rows: one per
    agent step, one per ARISE iteration, one for a static baseline. ARISE's
    last row re-measures its surface through the live (noisy) receiver.
    """
    if agent is not None:
        trace = run_episode(agent, env, cfg.episode, streams["policy"])
        return trace.final_reflection, list(zip(trace.objective, trace.objective_norm,
                                                trace.sinr_db))
    if cfg.algorithm == "arise":
        reflection, trace = arise.run(env, config=cfg.arise)
        rows = list(zip(trace.objective, trace.objective_norm, trace.sinr_db))
        rows[-1] = _metrics(env, env.pulse(reflection))
        return reflection, rows
    if cfg.algorithm == "random":
        reflection = arise.random_phases(streams["policy"], env.n_elements)
    else:
        reflection = arise.inverse_phases(env.channel.cascaded)
    return reflection, [_metrics(env, env.pulse(reflection))]


def run_scenario(cfg: ScenarioConfig) -> list[RunRecord]:
    """Execute the configured algorithm over all episodes.

    Each episode starts a fresh coherence block (channels redrawn, user
    walked). ARISE contributes one record per descent iteration, the
    learning agents one per environment step, and the two static baselines
    one per episode. Deterministic for a fixed config and seed, except the
    wall-time column.
    """
    streams = rng_streams(cfg.seed)
    env = build_env(cfg, streams)
    agent = make_agent(cfg, env, streams["agent"])
    records: list[RunRecord] = []
    started = time.perf_counter()
    for episode in range(cfg.episodes):
        env.new_coherence_block()
        _, rows = _play_block(cfg, env, streams, agent)
        for step, (objective, objective_norm, sinr) in enumerate(rows):
            records.append(RunRecord(
                episode=episode, step=step, algorithm=cfg.algorithm,
                objective=float(objective), objective_norm=float(objective_norm),
                sinr_db=float(sinr), wall_time=time.perf_counter() - started))
    return records


def final_reflection(cfg: ScenarioConfig) -> np.ndarray:
    """Run one episode of the configured algorithm; return its last surface.

    Used by the constellation pipeline, which needs a converged
    configuration on the scenario's first coherence block.
    """
    streams = rng_streams(cfg.seed)
    env = build_env(cfg, streams)
    env.new_coherence_block()
    agent = make_agent(cfg, env, streams["agent"])
    return _play_block(cfg, env, streams, agent)[0]


def sweep(cfg: ScenarioConfig, axis: str, values,
          algorithms: tuple[str, ...] | None = None) -> list[SweepRecord]:
    """Mean and deviation of the last-10-step objective across 10 episodes.

    ``axis`` is one of n_r (delayed paths), M (element count), or kappa.
    Every (value, algorithm) cell reruns the scenario with that parameter
    substituted and aggregates the final ten steps of each episode.
    """
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one axis value")
    algorithms = algorithms or (cfg.algorithm,)
    out: list[SweepRecord] = []
    for value in values:
        if axis == "n_r":
            varied = replace(cfg, fading=replace(cfg.fading, n_delayed=int(value)))
        elif axis == "M":
            varied = replace(cfg, geometry=replace(cfg.geometry, n_elements=int(value)))
        elif axis == "kappa":
            varied = replace(cfg, fading=replace(cfg.fading, kappa=float(value)))
        else:
            raise ValueError(f"unknown sweep axis {axis!r}")
        for algorithm in algorithms:
            records = run_scenario(replace(varied, algorithm=algorithm))
            tail: list[float] = []
            for episode in range(varied.episodes):
                ep = [r.objective_norm for r in records if r.episode == episode]
                tail.extend(ep[-10:])
            out.append(SweepRecord(axis=axis, value=float(value), algorithm=algorithm,
                                   mean_objective_norm=float(np.mean(tail)),
                                   std_objective_norm=float(np.std(tail))))
    return out


# ---------------------------------------------------------------------------
# output

def empirical_cdf(values) -> list[tuple[float, float]]:
    """Right-continuous empirical CDF as (value, cumulative probability)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empirical_cdf needs at least one value")
    uniq, counts = np.unique(values, return_counts=True)
    probs = np.cumsum(counts) / values.size
    return list(zip(uniq.tolist(), probs.tolist()))


def _format_field(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def emit_csv(records, path, exclude: tuple[str, ...] = (),
             record_type=None) -> None:
    """Write dataclass records as CSV; floats carry 17 significant digits.

    Empty inputs still produce a header row, taken from ``record_type``
    (default RunRecord).
    """
    records = list(records)
    template = records[0] if records else (record_type or RunRecord)
    names = [f.name for f in fields(template) if f.name not in exclude]
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(names) + "\n")
            for rec in records:
                fh.write(",".join(_format_field(getattr(rec, n)) for n in names) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing CSV to {path}: {exc}") from exc


def emit_constellation(cfg: ScenarioConfig, reflection, n_symbols: int, path,
                       env: RisEnv | None = None) -> None:
    """Write constellation samples (Re, Im) for a converged surface.

    The pulse comes from the scenario's first coherence block (rebuilt
    deterministically from the seed unless an environment is supplied);
    the analytic SINR of that pulse is recorded in a comment header.
    """
    if env is None:
        streams = rng_streams(cfg.seed)
        env = build_env(cfg, streams)
        env.new_coherence_block()
        rng = streams["qpsk"]
    else:
        rng = rng_streams(cfg.seed)["qpsk"]
    pulse = env.pulse(reflection, with_noise=False)
    noise_power = env.fading.noise_power if cfg.noise else 0.0
    samples = qpsk_constellation(pulse, n_symbols, noise_power, rng)
    snr = sinr_db(pulse, env.fading.noise_power)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# sinr_db={format(snr, '.17g')}\n")
            fh.write("re,im\n")
            for s in samples:
                fh.write(f"{format(s.real, '.17g')},{format(s.imag, '.17g')}\n")
    except OSError as exc:
        raise OSError(f"failed writing constellation to {path}: {exc}") from exc
