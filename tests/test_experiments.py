import csv
from dataclasses import replace

import numpy as np
import pytest

from riseq.agents import AgentHyperparams
from riseq.arise import AriseConfig
from riseq.channels import ChannelRealization, FadingParams, Geometry
from riseq.env import EpisodeConfig, RisEnv, pulse_objective_norm
from riseq.experiments import (
    ConfigError,
    RunRecord,
    ScenarioConfig,
    SweepRecord,
    build_env,
    emit_constellation,
    emit_csv,
    empirical_cdf,
    load_config,
    parse_config,
    render_config,
    rng_streams,
    run_scenario,
    save_config,
    sweep,
)
from riseq import arise
from riseq.cli import main as cli_main


def desk_config(**kw):
    base = dict(
        geometry=Geometry(n_elements=8),
        fading=FadingParams(n_delayed=2, kappa=10.0),
        episode=EpisodeConfig(n_steps=40),
        agent=AgentHyperparams(hidden_width=16),
        arise=AriseConfig(max_iters=300),
        algorithm="arise",
        episodes=2,
        seed=7,
    )
    base.update(kw)
    return ScenarioConfig(**base)


class TestEmpiricalCdf:
    def test_single_value(self):
        assert empirical_cdf([5.0]) == [(5.0, 1.0)]

    def test_duplicates(self):
        assert empirical_cdf([1, 2, 2, 4]) == [(1.0, 0.25), (2.0, 0.75), (4.0, 1.0)]

    def test_monotone_ends_at_one(self):
        values = np.random.default_rng(0).normal(size=500)
        cdf = empirical_cdf(values)
        probs = [p for _, p in cdf]
        assert np.all(np.diff(probs) > 0)
        assert probs[-1] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf([])


class TestEmitCsv:
    def make_records(self, n):
        return [RunRecord(episode=0, step=i, algorithm="arise",
                          objective=np.pi * (i + 1), objective_norm=-0.123456789,
                          sinr_db=1.0 / 3.0, wall_time=0.5) for i in range(n)]

    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("episode,step,algorithm")

    def test_single_record_two_lines(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv(self.make_records(1), path)
        assert len(path.read_text().splitlines()) == 2

    def test_float_round_trip(self, tmp_path):
        path = tmp_path / "rt.csv"
        records = self.make_records(3)
        emit_csv(records, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        for rec, row in zip(records, rows):
            assert float(row["objective"]) == rec.objective
            assert float(row["objective_norm"]) == rec.objective_norm
            assert float(row["sinr_db"]) == rec.sinr_db

    def test_exclude_column(self, tmp_path):
        path = tmp_path / "ex.csv"
        emit_csv(self.make_records(2), path, exclude=("wall_time",))
        header = path.read_text().splitlines()[0]
        assert "wall_time" not in header

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            emit_csv(self.make_records(1), tmp_path / "missing" / "x.csv")


class TestConfigRoundTrip:
    def test_default_round_trip(self):
        cfg = ScenarioConfig()
        assert parse_config(render_config(cfg)) == cfg

    def test_modified_round_trip(self):
        cfg = desk_config(algorithm="sac", noise=False, seed=123)
        assert parse_config(render_config(cfg)) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = desk_config(algorithm="td3")
        path = tmp_path / "scenario.ini"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_unknown_algorithm_field_message(self):
        with pytest.raises(ConfigError, match="run.algorithm"):
            ScenarioConfig(algorithm="nope")

    def test_unknown_key_rejected(self):
        text = render_config(ScenarioConfig()).replace(
            "pdp_decay = 0.5", "pdp_decay = 0.5\nbogus = 1")
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(text)

    def test_bad_value_has_field_context(self):
        text = render_config(ScenarioConfig()).replace(
            "episodes = 10", "episodes = soon")
        with pytest.raises(ConfigError, match="run.episodes"):
            parse_config(text)


class TestRngStreams:
    def test_streams_are_independent_and_reproducible(self):
        a, b = rng_streams(42), rng_streams(42)
        assert a.keys() == b.keys()
        for name in a:
            assert a[name].random() == b[name].random()
        c = rng_streams(43)
        assert a["channels"].random() != c["channels"].random()


def strip_wall_time(records):
    return [(r.episode, r.step, r.algorithm, r.objective, r.objective_norm,
             r.sinr_db) for r in records]


class TestRunScenario:
    def test_deterministic_given_seed(self):
        cfg = desk_config(algorithm="sac", episodes=1,
                          episode=EpisodeConfig(n_steps=12))
        assert strip_wall_time(run_scenario(cfg)) == strip_wall_time(run_scenario(cfg))

    def test_random_baseline_matches_direct_evaluation(self):
        cfg = desk_config(algorithm="random", episodes=3)
        records = run_scenario(cfg)
        assert len(records) == 3
        streams = rng_streams(cfg.seed)
        env = build_env(cfg, streams)
        for rec in records:
            env.new_coherence_block()
            refl = arise.random_phases(streams["policy"], env.n_elements)
            expected = pulse_objective_norm(env.pulse(refl))
            assert rec.objective_norm == pytest.approx(expected)

    def test_arise_improves_most_episodes(self):
        # surfaces below ~16 elements cannot always equalize; the descent
        # contract is checked at a size where the physics allows it
        cfg = desk_config(geometry=Geometry(n_elements=32),
                          fading=FadingParams(n_delayed=5, kappa=10.0),
                          arise=AriseConfig(), episodes=4, noise=False)
        records = run_scenario(cfg)
        improved = 0
        for ep in range(4):
            ep_records = [r for r in records if r.episode == ep]
            improved += ep_records[-1].objective_norm > ep_records[0].objective_norm
        assert improved >= 3

    def test_agent_record_count(self):
        cfg = desk_config(algorithm="sac", episodes=2,
                          episode=EpisodeConfig(n_steps=15))
        records = run_scenario(cfg)
        assert len(records) == 30
        assert all(-1.0 <= r.objective_norm <= 1.0 for r in records)


class TestSweep:
    def test_row_count(self):
        cfg = desk_config(episodes=2, episode=EpisodeConfig(n_steps=10),
                          algorithm="random")
        rows = sweep(cfg, "M", [4, 8], algorithms=("random", "inverse"))
        assert len(rows) == 4
        assert {(r.value, r.algorithm) for r in rows} == \
            {(4.0, "random"), (8.0, "inverse"), (4.0, "inverse"), (8.0, "random")}

    def test_single_value_matches_run_scenario(self):
        cfg = desk_config(algorithm="inverse", episodes=3)
        rows = sweep(cfg, "kappa", [10.0])
        records = run_scenario(replace(
            cfg, fading=replace(cfg.fading, kappa=10.0)))
        tail = [r.objective_norm for r in records]  # one record per episode
        assert rows[0].mean_objective_norm == pytest.approx(np.mean(tail))
        assert rows[0].std_objective_norm == pytest.approx(np.std(tail))

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            sweep(desk_config(), "bogus", [1])

    def test_empty_values(self):
        with pytest.raises(ValueError):
            sweep(desk_config(), "M", [])


class TestConstellation:
    def test_ideal_channel_four_point_clusters(self, tmp_path):
        geom = Geometry(n_elements=1)
        fading = FadingParams(n_delayed=0)
        cfg = desk_config(geometry=geom, fading=fading, noise=False)
        env = RisEnv(geom, fading, rng_channels=rng_streams(0)["channels"],
                     noise_enabled=False)
        env.channel = ChannelRealization(
            direct=np.zeros(1, dtype=complex), cascaded=np.array([[1.0 + 0j]]),
            direct_gain=1.0, cascaded_gain=1.0, geometry=geom, fading=fading)
        path = tmp_path / "const.csv"
        emit_constellation(cfg, np.ones(1), 64, path, env=env)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# sinr_db=")
        assert lines[1] == "re,im"
        points = {tuple(np.round([float(v) for v in line.split(",")], 9))
                  for line in lines[2:]}
        assert len(points) == 4
        assert len(lines) - 2 == 64

    def test_row_count_discards_warmup(self, tmp_path):
        cfg = desk_config(noise=False)
        refl = np.ones(cfg.geometry.n_elements, dtype=complex)
        path = tmp_path / "c.csv"
        emit_constellation(cfg, refl, 500, path)
        n_isi = cfg.fading.n_isi
        assert len(path.read_text().splitlines()) - 2 == 500 - n_isi


class TestCli:
    def test_simulate_deterministic_byte_identical(self, tmp_path):
        cfg = desk_config(algorithm="sac", episodes=1,
                          episode=EpisodeConfig(n_steps=10))
        cfg_path = tmp_path / "cfg.ini"
        save_config(cfg, cfg_path)
        rc1 = cli_main(["simulate", "--config", str(cfg_path), "--seed", "7",
                        "--out", str(tmp_path / "a")])
        rc2 = cli_main(["simulate", "--config", str(cfg_path), "--seed", "7",
                        "--out", str(tmp_path / "b")])
        assert rc1 == 0 and rc2 == 0
        a = (tmp_path / "a" / "records.csv").read_bytes()
        b = (tmp_path / "b" / "records.csv").read_bytes()
        assert a == b

    def test_baseline_and_arise_commands(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        save_config(desk_config(episodes=1), cfg_path)
        assert cli_main(["baseline", "inverse", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o1")]) == 0
        assert cli_main(["arise", "--config", str(cfg_path), "--alpha-s", "0.5",
                         "--out", str(tmp_path / "o2")]) == 0
        assert (tmp_path / "o1" / "records.csv").exists()

    def test_sweep_command(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        save_config(desk_config(algorithm="random", episodes=2,
                                episode=EpisodeConfig(n_steps=5)), cfg_path)
        rc = cli_main(["sweep", "--axis", "M", "--values", "4,8",
                       "--config", str(cfg_path), "--out", str(tmp_path / "s")])
        assert rc == 0
        lines = (tmp_path / "s" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_constellation_command(self, tmp_path):
        cfg_path = tmp_path / "cfg.ini"
        save_config(desk_config(algorithm="inverse", episodes=1), cfg_path)
        rc = cli_main(["constellation", "--symbols", "200",
                       "--config", str(cfg_path), "--out", str(tmp_path / "c")])
        assert rc == 0
        assert (tmp_path / "c" / "constellation.csv").exists()

    def test_validation_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[run]\nalgorithm = bogus\n")
        assert cli_main(["simulate", "--config", str(bad),
                         "--out", str(tmp_path / "x")]) == 1

    def test_unreachable_walk_box_exit_code(self, tmp_path, capsys):
        # 30 m right of the box: no walk step (at most 20 m) can reach it
        cfg = desk_config(geometry=Geometry(n_elements=8, ue_pos=(20.0, 50.0)),
                          move_ue=False)
        text = render_config(cfg).replace("move_ue = false", "move_ue = true")
        bad = tmp_path / "walk.ini"
        bad.write_text(text)
        assert cli_main(["simulate", "--config", str(bad),
                         "--out", str(tmp_path / "w")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: geometry.ue_pos") and err.count("\n") == 1
        assert "(20, 50)" in err and "30 m" in err and "walk_max_step = 20 m" in err

    def test_missing_config_file(self, tmp_path):
        assert cli_main(["simulate", "--config", str(tmp_path / "nope.ini"),
                         "--out", str(tmp_path / "y")]) == 1
