"""execsched benchmark: solve, simulate and attribute workloads.

    python3 bench/run.py --workload {solve,simulate,attribute} --seed N \\
        --seconds S --trace {0,1}

Every op is one `execsched` command, run in this process through
``execsched.cli.main(argv)`` on inputs that ``inputs.py`` writes from the
seed: closed loop, one op at a time, ``--workers 1``.  Each op's output is
checked (``checks.py``); an op fails if it exits nonzero or its check finds a
problem.  Working files go to ``.bench_work/`` at the repository root.

With ``--trace 0`` the run measures set-up time, then runs the workload's
commands for ``--seconds`` and prints the end-to-end metrics: medians of
wall times scaled by a calibration loop timed beside each op
(``calibrate.py``).  With
``--trace 1`` it runs every workload's commands untraced, traced
(``tracing.py``) and untraced again, probes the Mills kernel and the
simulation pool, and prints the per-layer metrics; that fixed amount of work
ignores ``--seconds``, and the spans are written to ``.bench_work/``.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are for people.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

# One BLAS thread, set before numpy loads: on a machine of two cores a second
# thread measures the scheduler, and the program runs with --workers 1 too.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import calibrate  # noqa: E402
import inputs  # noqa: E402
import ops  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# Fresh interpreters started per run to time set-up.
SETUP_LAUNCHES = 3
SETUP_TIMEOUT_S = 60


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def declared_metrics() -> dict[str, dict]:
    """Metric name -> spec, from BENCHMARK.json at the repository root."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        doc = json.load(f)
    return {"end_to_end": {m["name"]: m for m in doc["end_to_end"]},
            "per_layer": {m["name"]: m for m in doc["per_layer"]}}


def measure_setup() -> calibrate.Timeline:
    """Fresh interpreters that import the console entry point, between calibration passes."""
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = [sys.executable, "-c", "import execsched.cli"]
    timeline = calibrate.Timeline()
    for _ in range(SETUP_LAUNCHES):
        t0 = perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, check=True, timeout=SETUP_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        timeline.add("setup", perf_counter() - t0)
    return timeline


def timed_run(runner, commands, seconds: float) -> tuple[calibrate.Timeline, float]:
    """Closed loop over the commands for ``seconds``, between calibration passes.

    Returns the timeline and the peak resident memory in MB after the first
    round, which runs every command once in a fixed order: later ops add
    only heap growth that depends on how many ran and in what order.

    After the first round the next op is the command with the fewest
    samples weighted by the fourth root of its median, and an op that would
    end past the deadline is not started.  In the solve workload this gives
    the 6 s liquidity solve 2 or 3 samples and each sub-second solve 5 to 10.
    """
    timeline = calibrate.Timeline()
    walls = {c.name: [] for c in commands}
    start = perf_counter()

    def run(c):
        walls[c.name].append(runner.run(c))
        timeline.add(c.name, walls[c.name][-1])

    for c in commands:
        run(c)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def weight(c):
        xs = walls[c.name]
        return len(xs) * statistics.median(xs) ** 0.25

    # an op costs its own time and the calibration passes after it
    cost = 1.0 + 2.0 * calibrate.Timeline.CAL_SHARE
    while True:
        elapsed = perf_counter() - start
        fits = [c for c in commands
                if elapsed + cost * statistics.median(walls[c.name]) <= seconds]
        if not fits:
            break
        run(min(fits, key=weight))
    return timeline, peak_mb


def end_to_end_metrics(commands, scaled, setup_scaled, peak_mb) -> dict[str, float]:
    """Medians of scaled times: set-up, and the geometric mean over the commands.

    Every time is scaled by the calibration loop timed beside it
    (``calibrate.py``), because the host's speed shifts for whole runs.
    """
    medians = [statistics.median(scaled[c.name]) for c in commands]
    return {
        "setup_s": statistics.median(setup_scaled),
        "cmd_geomean_s": ops.geomean(medians),
        "peak_rss_mb": peak_mb,
    }


def report_samples(names, timeline: calibrate.Timeline) -> None:
    walls, scaled = timeline.walls(), timeline.scaled()
    for name in names:
        xs = scaled[name]
        q1, q3 = _quartiles(xs)
        print(f"  {name:<28} n={len(xs):<3} wall median {statistics.median(walls[name]):.4f} s "
              f"fastest {min(walls[name]):.4f} s  scaled median {statistics.median(xs):.4f} s "
              f"quartiles {q1:.4f}..{q3:.4f} s")
    passes = timeline.passes()
    print(f"    calibration: {len(passes)} passes, fastest {min(passes):.4f} s, "
          f"median {statistics.median(passes):.4f} s, reference {calibrate.REFERENCE_S} s")


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "execsched", "cli.py")):
        print(f"error: no execsched sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    specs = declared_metrics()

    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    if args.trace:
        import traced

        result, env = traced.run(args.seed, work, specs["per_layer"])
    else:
        # importing first compiles the bytecode that every later launch reuses
        from execsched import cli

        setup = measure_setup()
        commands = inputs.generate(args.workload, args.seed, os.path.join(work, "in"))
        env = ops.environment({args.workload: commands})
        runner = ops.Runner(cli, os.path.join(work, "out"))
        runner.warm(commands)
        timeline, peak_mb = timed_run(runner, commands, args.seconds)
        values = end_to_end_metrics(commands, timeline.scaled(), setup.scaled()["setup"], peak_mb)
        with open(os.path.join(work, "samples.json"), "w", encoding="utf-8") as f:
            json.dump({"setup": setup.entries, "run": timeline.entries}, f, indent=1)
        print(f"workload {args.workload} seed {args.seed}: {runner.attempted} ops "
              f"({len(timeline.entries) - len(timeline.passes())} timed), "
              f"{runner.failed} failed")
        report_samples([c.name for c in commands], timeline)
        report_samples(["setup"], setup)
        result = ops.result(runner.failed == 0, runner.attempted, runner.failed,
                         values, specs["end_to_end"])

    with open(os.path.join(work, "environment.json"), "w", encoding="utf-8") as f:
        json.dump(env, f, indent=2)
    print("environment " + json.dumps(env, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:<52} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
