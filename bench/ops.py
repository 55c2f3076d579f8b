"""Running ops through the CLI entry point, and the environment record."""
from __future__ import annotations

import contextlib
import io
import math
import os
import platform
import sys
import traceback
from time import perf_counter

import checks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# Environment record.
# ---------------------------------------------------------------------------


def _git_sha() -> str | None:
    """HEAD of a checkout's .git directory, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(commands_by_workload: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "inputs": {
            w: {c.name: {"items": c.items, "argv": c.argv[:1] + [
                os.path.relpath(a, ROOT) if os.path.isabs(a) else a for a in c.argv[1:]]}
                for c in cmds}
            for w, cmds in commands_by_workload.items()
        },
    }


# ---------------------------------------------------------------------------
# Ops.
# ---------------------------------------------------------------------------


class Runner:
    """Runs ops through the CLI entry point, checks them, and counts failures."""

    def __init__(self, cli, outroot: str):
        self.cli = cli
        self.outroot = outroot
        self.attempted = 0
        self.failed = 0
        self.state: dict[str, dict] = {}  # per-command check state

    def run(self, command, argv=None, *, check=True, tracer=None) -> float:
        """Run one op and return its wall time in seconds."""
        outdir = os.path.join(self.outroot, command.name)
        os.makedirs(outdir, exist_ok=True)
        argv = list(command.argv if argv is None else argv) + ["--output-dir", outdir]
        self.attempted += 1
        rc = None
        sid = None
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is not None:
                tracer.op = command.name
                sid = tracer.begin(f"cli.{command.name}", "cli")
            t0 = perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception:  # an uncaught error is a failed op, not a crash
                traceback.print_exc()
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.end(sid)
                tracer.op = None
        problems = [f"exit code {rc}"] if rc != 0 else []
        if rc == 0 and check:
            try:
                problems += checks.check(command, outdir, self.state.setdefault(command.name, {}))
            except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
                problems.append(f"unreadable output: {e!r}")
        if problems:
            self.failed += 1
            print(f"FAILED {command.name}: {'; '.join(problems)}", file=sys.stderr)
        return elapsed

    def warm(self, commands) -> None:
        """Run every command once on its small input, so lazy set-up is done."""
        for c in commands:
            self.run(c, c.warm_argv, check=False)


def geomean(xs) -> float:
    xs = list(xs)
    return math.exp(math.fsum(math.log(x) for x in xs) / len(xs))


def result(correct: bool, attempted: int, failed: int, values: dict, specs: dict) -> dict:
    """The benchmark's final JSON object, one entry per declared metric."""
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": spec["unit"]}
                    for name, spec in specs.items()},
    }
