"""riseq benchmark: run one workload with one seed in a fresh process.

    python3 bench/run.py --workload blocks --seed 3 --seconds 30 --trace 0

The process pins BLAS to one thread before numpy loads, then repeats whole
rounds of the workload (every round the same riseq CLI calls on the same
inputs) while another round still fits in ``--seconds``. Each rate is the
90th percentile of its samples (see ``fast_rate``), one per round and
sample group that holds its kind of work. The records of the first round are checked (see workloads.py) and
every later round must write the same bytes.

With ``--trace 0`` the run prints the end-to-end metrics. With ``--trace 1``
it runs untraced rounds for half the time, then one round with riseq's
public functions wrapped (tracer.py), prints the per-layer metrics, and
writes the spans to ``bench/out/trace-<workload>-s<seed>.bin``. The last
line of standard output is the JSON result; a failed check makes
``correct`` false and the exit status 1.
"""

from __future__ import annotations

import os
import time

_ENTERED = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "train_steps_per_s": "steps/s",
    "updates_per_s": "updates/s",
    "arise_blocks_per_s": "blocks/s",
    "arise_iters_per_s": "iterations/s",
    "baseline_blocks_per_s": "blocks/s",
}


def seconds_since_process_start() -> float:
    """Wall time since this process started.

    The kernel gives the start in clock ticks; only the part before this
    script was entered is taken from it, the rest from ``perf_counter``.
    """
    with open("/proc/self/stat", encoding="ascii") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    in_script = time.perf_counter() - _ENTERED
    since_start = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    return max(since_start - in_script, 0.0) + in_script


def use_checkout_sources() -> None:
    """Make ``import riseq`` load this checkout's ``src``, never another copy."""
    src = ROOT / "src"
    if not (src / "riseq" / "__init__.py").is_file():
        raise SystemExit(f"error: no riseq sources under {src}")
    sys.path.insert(0, str(src))
    import riseq

    if Path(riseq.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"error: riseq imported from {riseq.__file__}, not {src}")


def fast_rate(rates: list[float]) -> float:
    """The 90th percentile of a run's samples of one rate, interpolated
    linearly between neighbouring samples.

    The machine the benchmark was written on switches between its normal
    speed and a state up to 1.8 times slower on ARISE and baseline code, for
    seconds to over a minute at a time. A median then moves with the share of
    a run that happened to be slow; a high percentile reads the normal speed
    whenever a run meets it at all, as timeit's best of several repeats does.
    """
    ordered = sorted(rates)
    pos = 0.9 * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def main(argv=None) -> int:
    use_checkout_sources()
    import workloads
    from tracer import RiseqTracer

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    phases = workloads.WORKLOADS[args.workload](args.seed)
    workdir = OUT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        workloads.prepare(phases, workdir)
        setup_s = seconds_since_process_start()
        rounds = []
        started = time.perf_counter()
        budget = args.seconds / 2 if args.trace else args.seconds
        # Whole rounds, at least one, while another one fits in the budget.
        while True:
            rounds.append(workloads.run_round(phases, workdir))
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / len(rounds) > budget:
                break
        if args.trace:
            tracer = RiseqTracer()
            tracer.install()
            try:
                rounds.append(workloads.run_round(phases, workdir))
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = rounds[0]
    problems = workloads.check_round(phases, first)
    if len({rnd.digest() for rnd in rounds}) != 1:
        problems.append("rounds wrote different records: "
                        + ", ".join(rnd.digest()[:16] for rnd in rounds))
    attempted = len(rounds) * sum(p.operations for p in phases)
    failed = sum(p.operations for rnd in rounds for p in phases if rnd.records[p.name] is None)
    stalled, arise_blocks = workloads.stalled_blocks(phases, first)

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}"
          + ("  (the last one traced)" if args.trace else ""))
    print(f"records digest {first.digest()}")
    print(f"ARISE blocks stopped at max_iters: {stalled}/{arise_blocks}")
    for p in phases:
        if p.kind == "train" and p.group == 0 and first.records[p.name]:
            print(f"{p.name}: last minus first {workloads.LEARN_WINDOW} steps of the final "
                  f"episode {workloads.learning_gain(first.records[p.name]):+.3f}")

    if args.trace:
        traced = rounds[-1]
        problems += workloads.trace_checks(phases, traced, tracer.calls)
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_s"] = (
            traced.seconds - statistics.median(r.seconds for r in rounds[:-1]), "s")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-s{args.seed}.bin")
    else:
        samples: dict[str, list[float]] = {name: [] for name in workloads.RATES}
        for rnd in rounds:
            for name, rates in workloads.round_rates(phases, rnd).items():
                samples[name] += rates
        values = {name: fast_rate(rates) for name, rates in samples.items()}
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # How many iterations a block takes differs from one sample group's
        # blocks to the next, so a percentile of per-group block rates would move
        # with the seed; the iteration rate does not, and the run's mean
        # iterations per block turns it into blocks per second.
        values["arise_blocks_per_s"] = (values["arise_iters_per_s"]
                                        / workloads.iterations_per_block(phases, first))
        metrics = {name: (values[name], unit) for name, unit in UNITS.items()}

    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:>16.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"attempted {attempted}  failed {failed}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
