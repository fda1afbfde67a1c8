"""Self-tests of the benchmark's own code; they run no workload.

    python3 -m pytest -q bench/selftest.py

The file name does not match pytest's ``test_*.py`` pattern, so the root
test run does not collect it; it takes a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from array import array
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.use_checkout_sources()

import workloads  # noqa: E402
from tracer import RiseqTracer, Tracer  # noqa: E402
from riseq.agents import AgentHyperparams  # noqa: E402
from riseq.arise import AriseConfig  # noqa: E402
from riseq.channels import FadingParams, Geometry  # noqa: E402
from riseq.env import EpisodeConfig  # noqa: E402
from riseq.experiments import ScenarioConfig  # noqa: E402


class _Calls:
    def inner(self, delay):
        time.sleep(delay)
        return delay


def test_spans_nest_and_self_time_excludes_children(tmp_path):
    tracer = Tracer()
    tracer.patch(_Calls, "inner", "inner")
    inner = _Calls().inner

    def outer():
        time.sleep(0.002)
        return inner(0.001) + inner(0.001)

    outer = tracer.wrap("outer", outer)
    assert outer() == 0.002
    tracer.uninstall()
    assert _Calls.__dict__["inner"].__name__ == "inner"
    assert dict(tracer.calls) == {"inner": 2, "outer": 1}
    assert list(tracer.span_parent) == [-1, 0, 0]
    starts, ends = tracer.span_start, tracer.span_end
    outer_s = ends[0] - starts[0]
    inner_s = (ends[1] - starts[1]) + (ends[2] - starts[2])
    assert tracer.self_s["inner"] == pytest.approx(inner_s, abs=1e-12)
    assert tracer.self_s["outer"] == pytest.approx(outer_s - inner_s, abs=1e-12)
    assert tracer.self_s["outer"] >= 0.002

    path = tmp_path / "spans.bin"
    tracer.write(path)
    blob = path.read_bytes()
    newline = blob.index(b"\n")
    header = json.loads(blob[:newline])
    pos, columns = newline + 1, {}
    for label, typecode, size in header["columns"]:
        col = array(typecode)
        col.frombytes(blob[pos:pos + size * header["n_spans"]])
        pos += size * header["n_spans"]
        columns[label] = col
    assert pos == len(blob)
    assert [header["names"][i] for i in columns["name"]] == ["outer", "inner", "inner"]
    assert columns["end"] == tracer.span_end


def _tiny(episodes=2, n_steps=40, n_train=4):
    return ScenarioConfig(geometry=Geometry(n_elements=4),
                          fading=FadingParams(n_delayed=1),
                          episode=EpisodeConfig(n_steps=n_steps),
                          agent=AgentHyperparams(hidden_width=8, n_train=n_train),
                          episodes=episodes)


def test_traced_counts_match_the_records(tmp_path):
    phases = [workloads.Phase("sac", "train", ("train", "sac"), _tiny(), 3),
              workloads.Phase("ddpg", "train", ("train", "ddpg"), _tiny(), 3),
              *workloads._block_phases("", 3, 3, 3)]
    phases = [p if p.kind == "train" else
              workloads.Phase(p.name, p.kind, p.words, _tiny(episodes=3), p.seed)
              for p in phases]
    workloads.prepare(phases, tmp_path)
    plain = workloads.run_round(phases, tmp_path)
    tracer = RiseqTracer()
    tracer.install()
    try:
        traced = workloads.run_round(phases, tmp_path)
    finally:
        tracer.uninstall()
    assert traced.digest() == plain.digest()
    assert workloads.trace_checks(phases, traced, tracer.calls) == []
    assert tracer.calls["agents.update"] > 0
    assert tracer.calls["agents.reset_episode"] == 4
    assert tracer.counts["arise.iterations"] == tracer.calls["arise.gradient_step"]
    assert len(tracer.agents) == 2
    metrics = tracer.layer_metrics()
    assert metrics["cli.main.calls"][0] == len(phases)
    assert metrics["nets.Adam.step.first_episode_us"][0] > 0


def _records(*episodes):
    return workloads.Records(digest=b"", norm={e: array("d", rows)
                                               for e, rows in enumerate(episodes)})


def test_expected_updates_follows_the_schedule():
    phase = workloads.Phase("sac", "train", ("train", "sac"), _tiny(1, 12), 0)
    low = _records([0.0] * 12)
    assert workloads.expected_updates(phase, low) == 4 * 9
    # Training starts at step 3, once the buffer holds a batch. Five rewards
    # above 0.75 lower n_train to 3 after step 4; the target then rises to
    # 0.8, which 0.79 never clears.
    high = _records([0.79] * 12)
    assert workloads.expected_updates(phase, high) == 2 * 4 + 7 * 3


def test_checks_reject_bad_records():
    phase = workloads.Phase("sac", "train", ("train", "sac"), _tiny(1, 40), 0)
    flat = _records([0.1] * 40)
    assert any("no learning" in p for p in workloads.check_phase(phase, flat))
    rising = _records([i / 40 for i in range(40)])
    assert workloads.check_phase(phase, rising) == []
    bad = _records([float("nan")] + [i / 40 for i in range(39)])
    assert any("finite" in p for p in workloads.check_phase(phase, bad))
    arise = _records([0.2, 0.9], [0.1, 0.5], [0.3, 0.2, -0.9])
    inverse = _records([0.3], [0.6], [0.9])
    random = _records([-0.2], [0.7], [0.1])
    # Block 2 stopped at max_iters = 3, so it is left out of both comparisons.
    problems = workloads.check_blocks({"g0-": (arise, inverse, random)}, max_iters=3)
    assert any("random" in p and "[1]" in p for p in problems)
    assert any("1/2" in p for p in problems)
    # The share won against inverse phases is taken over all groups.
    # Group b- alone wins 8/10, but 18/20 over both groups is 90%.
    final, low = _records(*[[0.5]] * 10), _records(*[[0.0]] * 10)
    high_two = _records(*[[0.0]] * 8, [0.9], [0.9])
    assert workloads.check_blocks({"a-": (final, low, low), "b-": (final, high_two, low)},
                                  max_iters=3) == []
    assert workloads.check_blocks({"b-": (final, high_two, low)}, max_iters=3) == [
        "ARISE beats inverse phases on only 8/10 blocks"]
    assert workloads.unconverged_blocks(arise, max_iters=3) == 1


def test_stalled_arise_blocks_fail_the_check_above_the_ceiling():
    config = ScenarioConfig(arise=AriseConfig(max_iters=3), episodes=50)
    phases = [workloads.Phase("arise", "arise", ("arise",), config, 0),
              workloads.Phase("inverse", "baseline", ("baseline", "inverse"), config, 0),
              workloads.Phase("random", "baseline", ("baseline", "random"), config, 0)]

    def check(stalled):
        rnd = workloads.Round()
        rnd.records["arise"] = _records(*[[0.2, 0.2, 0.2]] * stalled, *[[0.9]] * (50 - stalled))
        rnd.records["inverse"] = rnd.records["random"] = _records(*[[0.0]] * 50)
        return workloads.check_round(phases, rnd)

    assert workloads.STALL_SHARE * 50 == 1
    assert check(1) == []
    assert any("2/50" in p for p in check(2))
    assert any("no ARISE block converged" in p for p in check(50))


def test_each_sample_group_gives_one_sample_per_kind_of_work():
    phases = workloads.blocks(2)
    assert len({p.seed for p in phases if p.kind == "arise"}) == workloads.BLOCK_GROUPS
    rnd = workloads.Round()
    for p in phases:
        rows = {"train": p.config.episode.n_steps, "arise": 2, "baseline": 1}[p.kind]
        rnd.records[p.name] = _records(*[[0.0] * rows] * p.config.episodes)
        rnd.phase_seconds[p.name] = 1.0
    samples = workloads.round_rates(phases, rnd)
    probes = workloads.BLOCK_GROUPS // workloads.BLOCK_SAC_EVERY
    assert samples["train_steps_per_s"] == [workloads.PROBE_TRAIN_STEPS] * probes
    assert samples["updates_per_s"] == [workloads.PROBE_TRAIN_STEPS - 3] * probes
    assert samples["arise_iters_per_s"] == [2 * workloads.GROUP_ARISE_BLOCKS] * workloads.BLOCK_GROUPS
    assert samples["baseline_blocks_per_s"] == [workloads.GROUP_BASELINE_BLOCKS] * workloads.BLOCK_GROUPS
    assert workloads.iterations_per_block(phases, rnd) == 2

    phases = workloads.default_sac(2)
    samples = workloads.round_rates(phases, workloads.Round(
        phase_seconds={p.name: 1.0 for p in phases},
        records={p.name: _records(*[[0.0] * 2] * p.config.episodes) for p in phases}))
    assert [len(samples[name]) for name in workloads.RATES] == [1, 1, workloads.PROBE_CHUNKS,
                                                                 workloads.PROBE_CHUNKS]


def test_fast_rate_is_the_interpolated_90th_percentile():
    assert run.fast_rate([5.0]) == 5.0
    assert run.fast_rate([2.0, 1.0]) == pytest.approx(1.9)
    assert run.fast_rate([float(v) for v in range(11)]) == 9.0


def test_setup_clock_counts_from_process_start():
    assert run.seconds_since_process_start() >= time.perf_counter() - run._ENTERED


def test_refuses_to_run_without_riseq_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "blocks",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    layers = {name: unit for name, (_, unit) in RiseqTracer().layer_metrics().items()}
    layers["trace.overhead_s"] = "s"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
