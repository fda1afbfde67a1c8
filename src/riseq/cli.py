"""Command-line front end for the experiment harness.

Subcommands: simulate (run the configured algorithm), arise / train / baseline
(convenience wrappers that pin the algorithm), sweep, and constellation.
Outputs are CSV files under --out. Exit code 0 on success, 1 on validation
or I/O failures (with a diagnostic on stderr), 2 on argument errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .agents import AGENTS
from .experiments import (
    ConfigError,
    ScenarioConfig,
    emit_constellation,
    emit_csv,
    final_reflection,
    load_config,
    run_scenario,
    save_config,
    sweep,
    SweepRecord,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="INI scenario file")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory (default: ./out)")
    parser.add_argument("--episodes", type=int, help="episode count override")
    parser.add_argument("--steps", type=int, help="steps per episode override")
    parser.add_argument("--no-noise", action="store_true",
                        help="disable receiver noise")
    parser.add_argument("--timings", action="store_true",
                        help="include the wall_time column in CSV output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="riseq",
                                     description="RIS equalization experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the configured algorithm")
    _add_common(p)

    p = sub.add_parser("arise", help="run the steepest-descent equalizer")
    _add_common(p)
    p.add_argument("--alpha-s", type=float, help="target-scale override")

    p = sub.add_parser("train", help="train a learning agent")
    p.add_argument("agent", choices=list(AGENTS))
    _add_common(p)

    p = sub.add_parser("baseline", help="evaluate a static baseline")
    p.add_argument("scheme", choices=["random", "inverse"])
    _add_common(p)

    p = sub.add_parser("sweep", help="sweep one axis and summarize")
    p.add_argument("--axis", required=True, choices=["n_r", "M", "kappa"])
    p.add_argument("--values", required=True,
                   help="comma-separated axis values")
    p.add_argument("--algorithms",
                   help="comma-separated algorithm list (default: configured)")
    _add_common(p)

    p = sub.add_parser("constellation", help="emit converged QPSK samples")
    p.add_argument("--symbols", type=int, default=2000)
    _add_common(p)

    return parser


def _load_scenario(args) -> ScenarioConfig:
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.episodes is not None:
        cfg = replace(cfg, episodes=args.episodes)
    if args.steps is not None:
        cfg = replace(cfg, episode=replace(cfg.episode, n_steps=args.steps))
    if args.no_noise:
        cfg = replace(cfg, noise=False)
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_scenario(args)
        if args.command == "arise":
            cfg = replace(cfg, algorithm="arise")
            if args.alpha_s is not None:
                cfg = replace(cfg, arise=replace(cfg.arise, target_scale=args.alpha_s))
        elif args.command == "train":
            cfg = replace(cfg, algorithm=args.agent)
        elif args.command == "baseline":
            cfg = replace(cfg, algorithm=args.scheme)

        out: Path = args.out
        out.mkdir(parents=True, exist_ok=True)
        exclude = () if args.timings else ("wall_time",)

        if args.command == "sweep":
            values = [float(v) for v in args.values.split(",") if v.strip()]
            algorithms = (tuple(a.strip() for a in args.algorithms.split(","))
                          if args.algorithms else None)
            rows = sweep(cfg, args.axis, values, algorithms)
            emit_csv(rows, out / "sweep.csv", record_type=SweepRecord)
            print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows)")
        elif args.command == "constellation":
            reflection = final_reflection(cfg)
            emit_constellation(cfg, reflection, args.symbols,
                               out / "constellation.csv")
            print(f"wrote {out / 'constellation.csv'}")
        else:
            records = run_scenario(cfg)
            emit_csv(records, out / "records.csv", exclude=exclude)
            save_config(cfg, out / "scenario.ini")
            print(f"wrote {out / 'records.csv'} ({len(records)} rows)")
        return 0
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
