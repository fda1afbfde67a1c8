"""Wrapper tracer for riseq's public layer boundaries.

The tracer replaces public functions and methods with thin wrappers at the
places their callers look them up (a module global, a class attribute), so
riseq itself carries no tracing code. Every wrapped call records a span
(name, start, end, parent) in compact arrays kept in memory; per-name call
counts and self times are aggregated as the spans close. A span's self time
is its duration minus the time covered by its direct children.

``RiseqTracer.install`` patches riseq and ``Tracer.uninstall`` restores
every original, so one process can run untraced and traced rounds of the
same work.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

from riseq import agents, arise, channels, cli, env, experiments, nets


class Tracer:
    """Spans and counters collected from wrapped callables."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, time covered by children]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``after(args, result, duration)`` runs once the span has closed, for
        counters that depend on the call's arguments or result.
        """
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        stack, starts, ends = self._stack, self.span_start, self.span_end
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            index = len(starts)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            starts.append(start)
            ends.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                ends[index] = end
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(args, result, duration)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper until uninstall."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    @property
    def n_spans(self) -> int:
        return len(self.span_start)

    def write(self, path: Path) -> None:
        """Write every span and counter: one JSON header line, then columns.

        The columns follow the header as raw native-order arrays, in the
        order the header lists them: ``name`` (int32, an index into
        ``names``), ``parent`` (int32, a span index, -1 for a root), then
        ``start`` and ``end`` (float64 ``time.perf_counter`` seconds).
        """
        columns = [("name", self.span_name), ("parent", self.span_parent),
                   ("start", self.span_start), ("end", self.span_end)]
        header = {
            "names": self.names,
            "n_spans": self.n_spans,
            "columns": [[label, col.typecode, col.itemsize] for label, col in columns],
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, col in columns:
                col.tofile(fh)


# The spans reported per layer, named module.function as riseq defines them.
SPANS = (
    "cli.main",
    "experiments.load_config",
    "experiments.run_scenario",
    "experiments.emit_csv",
    "channels.sample_channels",
    "channels.matrix_sqrt_psd",
    "channels.received_pulse",
    "env.RisEnv.new_coherence_block",
    "env.RisEnv.step",
    "env.pulse_objective",
    "env.pulse_objective_norm",
    "arise.run",
    "arise.gradient_step",
    "agents.run_episode",
    "agents.reset_episode",
    "agents.select_action",
    "agents.ReplayBuffer.sample",
    "agents.update",
    "agents.polyak_update",
    "nets.squashed_gaussian_sample",
    "nets.Mlp.forward",
    "nets.Mlp.backward",
    "nets.Adam.step",
)


class RiseqTracer(Tracer):
    """A tracer wired into riseq's modules, with riseq's own counters."""

    def __init__(self):
        super().__init__()
        self.agents: list = []
        self._episodes: dict[int, int] = {}
        self._episode = 0
        # episode index within its agent -> [Adam.step calls, seconds]
        self.adam_by_episode: dict[int, list] = defaultdict(lambda: [0, 0.0])

    def install(self) -> None:
        counts = self.counts

        def iterations(args, result, duration):
            counts["arise.iterations"] += result[1].iterations

        def rows(args, result, duration):
            counts["experiments.emit_csv.rows"] += len(args[0])

        def adam(args, result, duration):
            # p, g, m and v: four float64 arrays per parameter
            counts["nets.Adam.step.bytes_computed"] += 32 * sum(p.size for p in args[1])
            bucket = self.adam_by_episode[self._episode]
            bucket[0] += 1
            bucket[1] += duration

        def episode(args, result, duration):
            agent = args[0]
            if id(agent) not in self._episodes:
                self.agents.append(agent)
            self._episode = self._episodes.get(id(agent), -1) + 1
            self._episodes[id(agent)] = self._episode

        # Patched where the caller looks the name up: the CLI imported its
        # helpers by name, env and arise imported the channel functions.
        self.patch(cli, "main", "cli.main")
        self.patch(cli, "load_config", "experiments.load_config")
        self.patch(cli, "run_scenario", "experiments.run_scenario")
        self.patch(cli, "emit_csv", "experiments.emit_csv", rows)
        self.patch(experiments, "run_episode", "agents.run_episode")
        self.patch(env, "sample_channels", "channels.sample_channels")
        self.patch(channels, "matrix_sqrt_psd", "channels.matrix_sqrt_psd")
        for module in (env, arise):
            self.patch(module, "received_pulse", "channels.received_pulse")
        self.patch(env.RisEnv, "new_coherence_block", "env.RisEnv.new_coherence_block")
        self.patch(env.RisEnv, "step", "env.RisEnv.step")
        for module in (env, arise, agents, experiments):
            self.patch(module, "pulse_objective", "env.pulse_objective")
        for module in (env, arise, experiments):
            self.patch(module, "pulse_objective_norm", "env.pulse_objective_norm")
        self.patch(arise, "run", "arise.run", iterations)
        self.patch(arise, "gradient_step", "arise.gradient_step")
        for cls in (agents.DdpgAgent, agents.Td3Agent, agents.SacAgent):
            self.patch(cls, "reset_episode", "agents.reset_episode", episode)
            self.patch(cls, "select_action", "agents.select_action")
            self.patch(cls, "update", "agents.update")
        self.patch(agents.ReplayBuffer, "sample", "agents.ReplayBuffer.sample")
        self.patch(agents, "polyak_update", "agents.polyak_update")
        self.patch(agents, "squashed_gaussian_sample", "nets.squashed_gaussian_sample")
        self.patch(nets.Mlp, "forward", "nets.Mlp.forward")
        self.patch(nets.Mlp, "backward", "nets.Mlp.backward")
        self.patch(nets.Adam, "step", "nets.Adam.step", adam)

    def subnormal_moments(self) -> int:
        """Nonzero Adam moments below the smallest normal float64, counted
        over every network the traced agents hold now."""
        tiny = np.finfo(np.float64).tiny
        total = 0
        for agent in self.agents:
            for value in vars(agent).values():
                held = value if isinstance(value, list) else [value]
                for net in held:
                    if isinstance(net, nets.Mlp):
                        for moment in (*net.adam.m, *net.adam.v):
                            total += int(np.count_nonzero((moment != 0)
                                                          & (np.abs(moment) < tiny)))
        return total

    def adam_us_per_call(self, episode: int) -> float:
        calls, seconds = self.adam_by_episode[episode]
        return 1e6 * seconds / calls if calls else 0.0

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for name in SPANS:
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
            out[f"{name}.self_s"] = (self.self_s.get(name, 0.0), "s")
        out["arise.iterations"] = (self.counts["arise.iterations"], "count")
        out["experiments.emit_csv.rows"] = (self.counts["experiments.emit_csv.rows"], "count")
        out["nets.Adam.step.bytes_computed"] = (self.counts["nets.Adam.step.bytes_computed"],
                                                "B")
        episodes = sorted(e for e, (calls, _) in self.adam_by_episode.items() if calls)
        out["nets.Adam.step.first_episode_us"] = (
            self.adam_us_per_call(episodes[0]) if episodes else 0.0, "us")
        out["nets.Adam.step.last_episode_us"] = (
            self.adam_us_per_call(episodes[-1]) if episodes else 0.0, "us")
        out["nets.adam_subnormal_moments"] = (self.subnormal_moments(), "count")
        out["trace.spans"] = (self.n_spans, "count")
        return out
