"""The benchmark's workloads: riseq CLI phases, their records and checks.

A workload is a list of phases. Each phase is one call of ``riseq.cli.main``
(``train <agent>``, ``arise`` or ``baseline <scheme>``) on a scenario file
written by the benchmark, and leaves a ``records.csv`` that the checks read
back. A round runs every phase of the workload once; rounds repeat the same
inputs, so every round of a run writes byte-identical records.

Every end-to-end metric is reported on every workload, so each workload has
a focus, whose inputs come from ``--seed``, and small probes for the other
metrics. A probe runs on inputs fixed by ``PROBE_SEED``: its cost does not
move with the seed, so it stays steady while staying cheap. ARISE's cost
per block depends on the block (100 to 5000 iterations), and only a large
seeded block set, as in ``blocks``, averages that out.

Phases carry a sample group. Each group of a round gives one sample of each
rate whose kind of work it holds, and a run reports a high percentile of
all its samples (``run.fast_rate``): the machine's speed comes and goes in
spells, and a spell then spoils some short samples rather than the result. The block
probes are split into identical chunks, one group each; ``blocks`` has one
long round of thirty groups, each on its own thirty blocks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from riseq import cli
from riseq.agents import AgentHyperparams, ScheduleState, adaptive_schedule
from riseq.channels import FadingParams, Geometry
from riseq.env import EpisodeConfig
from riseq.experiments import ScenarioConfig, load_config, save_config

PROBE_SEED = 0

# Criterion-8 shape: M=16, 4 delayed paths, 128-wide networks. One update
# per step: with the paper's four, the adaptive schedule drops to fewer
# updates per step as soon as an agent clears its reward target, which some
# seeds do in a few dozen steps and others never, so the work per step (and
# steps per second) would vary two- to threefold with the seed.
DESK = ScenarioConfig(geometry=Geometry(n_elements=16),
                      fading=FadingParams(kappa=10.0, n_delayed=4),
                      agent=AgentHyperparams(hidden_width=128, n_train=1))
# The paper's default scale: M=100, 10 delayed paths, 512-wide networks.
DEFAULT = ScenarioConfig()

DESK_EPISODES, DESK_STEPS = 2, 500
DEFAULT_SAC_STEPS = 48
# blocks: each group runs ARISE on its first GROUP_ARISE_BLOCKS blocks and
# the baselines on GROUP_BASELINE_BLOCKS; every BLOCK_SAC_EVERY-th group also
# runs the SAC probe.
BLOCK_GROUPS, GROUP_ARISE_BLOCKS, GROUP_BASELINE_BLOCKS = 30, 30, 60
BLOCK_SAC_EVERY = 3
# Block probes: PROBE_CHUNKS identical chunks, each ARISE on the first
# PROBE_ARISE_BLOCKS blocks of PROBE_SEED and each baseline on the first
# PROBE_BASELINE_BLOCKS. PROBE_CHUNKS is a multiple of 2 and of 4, so that
# the chunks split evenly around one and around three training phases.
PROBE_CHUNKS, PROBE_ARISE_BLOCKS, PROBE_BASELINE_BLOCKS = 8, 5, 50
PROBE_TRAIN_STEPS = 150

# Learning check: SAC's mean score over the last LEARN_WINDOW steps of its
# final episode must exceed the mean over that episode's first LEARN_WINDOW
# steps. TD3 and DDPG are reported, not checked: on some seeds they end an
# episode worse than they began it.
LEARN_WINDOW = 20
CHECKED_LEARNERS = ("sac",)
# Share of blocks on which ARISE must beat the inverse-phase baseline.
INVERSE_SHARE = 0.9
# Most ARISE blocks of a run that may stop at max_iters. Today about 0.25%
# of default blocks do, on some seeds and not others, so they cannot count
# as failed operations (the failed share must not depend on the seed). The
# ceiling is three times the worst rate seen on one seed (6 of 900 blocks):
# at that rate the chance that 19 or more of a run's 900 blocks stall is
# about 2e-5, while a change that stalls one block in fifty fails the run.
STALL_SHARE = 0.02


def _cfg(base: ScenarioConfig, episodes: int, n_steps: int | None = None) -> ScenarioConfig:
    episode = base.episode if n_steps is None else EpisodeConfig(n_steps=n_steps)
    return ScenarioConfig(geometry=base.geometry, fading=base.fading, episode=episode,
                          arise=base.arise, agent=base.agent, episodes=episodes)


@dataclass(frozen=True)
class Phase:
    """One ``riseq`` CLI call: its subcommand words, scenario and seed."""

    name: str
    kind: str  # "train", "arise" or "baseline"
    words: tuple[str, ...]
    config: ScenarioConfig
    seed: int
    group: int = 0

    def argv(self, config_path: Path, out: Path) -> list[str]:
        return [*self.words, "--config", str(config_path), "--seed", str(self.seed),
                "--out", str(out)]

    @property
    def agent(self) -> str | None:
        return self.words[1] if self.kind == "train" else None

    @property
    def operations(self) -> int:
        """Training episodes, or coherence blocks equalized or evaluated."""
        return self.config.episodes


def _block_phases(prefix: str, seed: int, arise_blocks: int, baseline_blocks: int,
                  group: int = 0) -> list[Phase]:
    # One seed drives the same channel and walk streams, so ARISE and both
    # baselines see the same blocks, block for block.
    return [Phase(f"{prefix}arise", "arise", ("arise",), _cfg(DEFAULT, arise_blocks), seed,
                  group),
            Phase(f"{prefix}inverse", "baseline", ("baseline", "inverse"),
                  _cfg(DEFAULT, baseline_blocks), seed, group),
            Phase(f"{prefix}random", "baseline", ("baseline", "random"),
                  _cfg(DEFAULT, baseline_blocks), seed, group)]


def _with_block_probe(train: list[Phase]) -> list[Phase]:
    """The training phases (group 0) with the probe chunks (groups 1..) spread
    evenly before, between and after them: the machine slows down in spells
    of a few seconds, and a spell then meets some chunks rather than all."""
    per_gap = PROBE_CHUNKS // (len(train) + 1)
    phases = []
    for c in range(PROBE_CHUNKS):
        if c and c % per_gap == 0:
            phases.append(train[c // per_gap - 1])
        phases += _block_phases(f"probe{c}-", PROBE_SEED, PROBE_ARISE_BLOCKS,
                                PROBE_BASELINE_BLOCKS, 1 + c)
    return phases


def desk_train(seed: int) -> list[Phase]:
    cfg = _cfg(DESK, DESK_EPISODES, DESK_STEPS)
    return _with_block_probe([Phase(agent, "train", ("train", agent), cfg, seed)
                              for agent in ("sac", "td3", "ddpg")])


def default_sac(seed: int) -> list[Phase]:
    return _with_block_probe([Phase("sac", "train", ("train", "sac"),
                                    _cfg(DEFAULT, 1, DEFAULT_SAC_STEPS), seed)])


def blocks(seed: int) -> list[Phase]:
    # Group g runs on master seed seed * BLOCK_GROUPS + g, so the groups of
    # one seed, and of different seeds, never share blocks.
    phases = []
    for g in range(BLOCK_GROUPS):
        phases += _block_phases(f"g{g}-", seed * BLOCK_GROUPS + g, GROUP_ARISE_BLOCKS,
                                GROUP_BASELINE_BLOCKS, g)
        if g % BLOCK_SAC_EVERY == 0:
            phases.append(Phase(f"g{g}-probe-sac", "train", ("train", "sac"),
                                _cfg(DESK, 1, PROBE_TRAIN_STEPS), PROBE_SEED, g))
    return phases


WORKLOADS = {"desk_train": desk_train, "default_sac": default_sac, "blocks": blocks}


# ---------------------------------------------------------------------------
# records and checks

@dataclass
class Records:
    """The rows of one phase's records.csv, grouped per episode."""

    digest: bytes
    norm: dict[int, array]  # episode -> objective_norm of each row

    @property
    def rows(self) -> int:
        return sum(len(v) for v in self.norm.values())


def read_records(path: Path) -> Records:
    """Hash and parse records.csv line by line, so that the benchmark's own
    memory stays small next to riseq's."""
    digest = hashlib.sha256()
    norm: dict[int, array] = {}
    with open(path, "rb") as fh:
        header = fh.readline()
        digest.update(header)
        names = header.decode().rstrip("\n").split(",")
        col_episode, col_norm = names.index("episode"), names.index("objective_norm")
        for line in fh:
            digest.update(line)
            row = line.decode().split(",")
            episode = int(row[col_episode])
            if episode not in norm:
                norm[episode] = array("d")
            norm[episode].append(float(row[col_norm]))
    return Records(digest=digest.digest(), norm=norm)


def expected_updates(phase: Phase, rec: Records) -> int:
    """``agent.update`` calls implied by the rewards, via the schedule's rule.

    Each episode starts with an empty buffer and a fresh schedule; once the
    buffer holds a batch, every step trains ``n_train`` times, and the
    schedule then sees the step's reward (the row's normalized score).
    """
    hp = phase.config.agent
    total = 0
    for episode in sorted(rec.norm):
        sched = ScheduleState(actor_lr=hp.actor_lr, n_train=hp.n_train)
        for t, reward in enumerate(rec.norm[episode]):
            if min(t + 1, hp.buffer_size) >= hp.batch_size:
                total += sched.n_train
            adaptive_schedule(sched, reward)
    return total


def learning_gain(rec: Records) -> float:
    """Final episode: mean score of the last steps minus that of the first."""
    final = rec.norm[max(rec.norm)]
    return float(np.mean(final[-LEARN_WINDOW:]) - np.mean(final[:LEARN_WINDOW]))


def check_phase(phase: Phase, rec: Records) -> list[str]:
    """Properties one phase's records must have; returns the violations."""
    problems = []
    values = [v for rows in rec.norm.values() for v in rows]
    if not all(math.isfinite(v) and -1.0 <= v <= 1.0 for v in values):
        problems.append(f"{phase.name}: normalized score not finite or outside [-1, 1]")
    episodes = phase.config.episodes
    if sorted(rec.norm) != list(range(episodes)):
        problems.append(f"{phase.name}: expected episodes 0..{episodes - 1}")
    elif phase.kind == "train":
        n_steps = phase.config.episode.n_steps
        if any(len(rows) != n_steps for rows in rec.norm.values()):
            problems.append(f"{phase.name}: expected {n_steps} rows per episode")
        elif phase.agent in CHECKED_LEARNERS and not learning_gain(rec) > 0:
            problems.append(f"{phase.name}: no learning in the final episode "
                            f"(last minus first {LEARN_WINDOW} steps: "
                            f"{learning_gain(rec):+.3f})")
    elif phase.kind == "baseline" and rec.rows != episodes:
        problems.append(f"{phase.name}: expected one row per block")
    return problems


def check_blocks(groups: dict[str, tuple[Records, Records, Records]],
                 max_iters: int) -> list[str]:
    """ARISE beats random phases on every block, inverse phases on most.

    ``groups`` maps a group's prefix to its ARISE, inverse and random records;
    the share won against inverse phases is taken over all groups. Blocks
    that stopped at ``max_iters`` are left out: they have no converged score,
    only the last point of an oscillation (see ``unconverged_blocks``).
    """
    problems = []
    wins = compared = 0
    for prefix, (arise, inverse, random) in groups.items():
        blocks = [e for e in sorted(arise.norm) if len(arise.norm[e]) < max_iters]
        if not blocks:
            problems.append(f"{prefix}: no ARISE block converged, so none can be compared")
            continue
        final = {e: arise.norm[e][-1] for e in blocks}
        lost = [e for e in blocks if not final[e] > random.norm[e][0]]
        if lost:
            problems.append(f"{prefix}: ARISE does not beat random phases on blocks {lost}")
        wins += sum(final[e] > inverse.norm[e][0] for e in blocks)
        compared += len(blocks)
    if wins < INVERSE_SHARE * compared:
        problems.append(f"ARISE beats inverse phases on only {wins}/{compared} blocks")
    return problems


def unconverged_blocks(arise: Records, max_iters: int) -> int:
    """ARISE blocks that stopped at ``max_iters`` instead of converging."""
    return sum(len(rows) >= max_iters for rows in arise.norm.values())


# ---------------------------------------------------------------------------
# rounds

def prepare(phases: list[Phase], workdir: Path) -> None:
    """Write each phase's scenario file and read it back through riseq."""
    workdir.mkdir(parents=True, exist_ok=True)
    for phase in phases:
        path = workdir / f"{phase.name}.ini"
        save_config(phase.config, path)
        if load_config(path) != phase.config:
            raise SystemExit(f"error: scenario file {path} does not round-trip")


@dataclass
class Round:
    """One pass over the workload's phases."""

    seconds: float = 0.0
    phase_seconds: dict[str, float] = field(default_factory=dict)
    records: dict[str, Records | None] = field(default_factory=dict)  # None: phase failed

    def digest(self) -> str:
        h = hashlib.sha256()
        for name, rec in self.records.items():
            h.update(name.encode() + b"\0" + (rec.digest if rec else b"failed"))
        return h.hexdigest()


def run_round(phases: list[Phase], workdir: Path) -> Round:
    """Call ``riseq.cli.main`` once per phase, timing each call."""
    rnd = Round()
    started = time.perf_counter()
    for phase in phases:
        out = workdir / phase.name
        argv = phase.argv(workdir / f"{phase.name}.ini", out)
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            status = cli.main(argv)
            rnd.phase_seconds[phase.name] = time.perf_counter() - start
        rnd.records[phase.name] = read_records(out / "records.csv") if status == 0 else None
    rnd.seconds = time.perf_counter() - started
    return rnd


RATES = ("train_steps_per_s", "updates_per_s", "arise_iters_per_s", "baseline_blocks_per_s")


def round_rates(phases: list[Phase], rnd: Round) -> dict[str, list[float]]:
    """Samples of each rate: one per group that holds work of its kind."""
    samples: dict[str, list[float]] = {name: [] for name in RATES}
    for group in sorted({p.group for p in phases}):
        seconds = {"train": 0.0, "arise": 0.0, "baseline": 0.0}
        steps = updates = arise_iters = baseline_blocks = 0
        for phase in phases:
            rec = rnd.records[phase.name]
            if phase.group != group or rec is None:
                continue
            seconds[phase.kind] += rnd.phase_seconds[phase.name]
            if phase.kind == "train":
                steps += phase.config.episodes * phase.config.episode.n_steps
                updates += expected_updates(phase, rec)
            elif phase.kind == "arise":
                arise_iters += rec.rows
            else:
                baseline_blocks += phase.config.episodes
        if seconds["train"]:
            samples["train_steps_per_s"].append(steps / seconds["train"])
            samples["updates_per_s"].append(updates / seconds["train"])
        if seconds["arise"]:
            samples["arise_iters_per_s"].append(arise_iters / seconds["arise"])
        if seconds["baseline"]:
            samples["baseline_blocks_per_s"].append(baseline_blocks / seconds["baseline"])
    return samples


def iterations_per_block(phases: list[Phase], rnd: Round) -> float:
    """ARISE iterations per block over every ARISE phase of the round."""
    done = [p for p in phases if p.kind == "arise" and rnd.records[p.name] is not None]
    return sum(rnd.records[p.name].rows for p in done) / sum(p.config.episodes for p in done)


def check_round(phases: list[Phase], rnd: Round) -> list[str]:
    problems = []
    for phase in phases:
        if rnd.records[phase.name] is not None:
            problems += check_phase(phase, rnd.records[phase.name])
    groups = {}
    for phase in phases:
        if phase.kind == "arise":
            prefix = phase.name[:-len("arise")]
            group = tuple(rnd.records[prefix + n] for n in ("arise", "inverse", "random"))
            if all(group):
                groups[prefix] = group
    if groups:
        max_iters = next(p.config.arise.max_iters for p in phases if p.kind == "arise")
        problems += check_blocks(groups, max_iters)
    stalled, blocks = stalled_blocks(phases, rnd)
    if stalled > STALL_SHARE * blocks:
        problems.append(f"ARISE stopped at max_iters on {stalled}/{blocks} blocks, "
                        f"more than {STALL_SHARE:.0%}")
    return problems


def stalled_blocks(phases: list[Phase], rnd: Round) -> tuple[int, int]:
    """ARISE blocks of the round that stopped at ``max_iters``, and all its ARISE blocks."""
    done = [p for p in phases if p.kind == "arise" and rnd.records[p.name] is not None]
    return (sum(unconverged_blocks(rnd.records[p.name], p.config.arise.max_iters) for p in done),
            sum(p.config.episodes for p in done))


def trace_checks(phases: list[Phase], rnd: Round, calls: dict[str, int]) -> list[str]:
    """Call counts from the tracer against the same totals from the records."""
    done = [p for p in phases if rnd.records[p.name] is not None]
    problems = []
    updates = sum(expected_updates(p, rnd.records[p.name]) for p in done if p.kind == "train")
    if calls["agents.update"] != updates:
        problems.append(f"traced agents.update calls {calls['agents.update']} != "
                        f"{updates} recomputed from the rewards")
    rows = sum(rnd.records[p.name].rows for p in done if p.kind == "arise")
    if calls["arise.gradient_step"] != rows:
        problems.append(f"traced arise.gradient_step calls {calls['arise.gradient_step']} "
                        f"!= {rows} ARISE rows")
    return problems
