"""Self-test of the output checks: corrupted outputs must count as failures.

    python3 bench/selftest.py

Runs one small real op per workload, confirms its check passes, then
corrupts the output in several ways and confirms that each corruption is
reported.  The unbalanced-market case goes through the runner, so it also
shows that a nonzero exit code counts as a failed op.  Exits 1 if any clean
output is rejected or any corruption slips through.
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

from execsched import cli  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import ops  # noqa: E402

SEED = 7
SMALL_PATHS = 2000


def in_json(name, edit):
    """A corruption that applies ``edit`` to the JSON artifact ``name``."""
    def apply(outdir):
        path = os.path.join(outdir, name)
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        edit(doc)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2)
    return apply


def flip_middle_byte(name):
    def apply(outdir):
        path = os.path.join(outdir, name)
        with open(path, "r+b") as f:
            f.seek(os.path.getsize(path) // 2)
            b = f.read(1)
            f.seek(-1, os.SEEK_CUR)
            f.write(bytes([b[0] ^ 0x01]))
    return apply


def _scale_first_trade(doc):
    doc["schedule"]["trades"][0] *= 1.01


def _negate_first_trade(doc):
    # keeps the sum, so only the sign check can catch it
    t = doc["schedule"]["trades"]
    t[1] += 2.0 * t[0]
    t[0] = -t[0]


def _move_top_value(doc):
    doc["value_samples"][0][-1][1] *= 1.0 + 1e-5


def _extra_infeasible(doc):
    doc["n_infeasible"] += 1


def _fail_audit(doc):
    doc["audit"]["passed"] = False


def _drop_report(doc):
    doc["reports"].pop()


def _break_decomposition(doc):
    doc["reports"][3]["timing"] += 1.0


class SelfTest:
    def __init__(self, work):
        self.work = work
        self.runner = ops.Runner(cli, os.path.join(work, "out"))
        self.bad = 0

    def expect(self, label, problems, should_fail):
        ok = bool(problems) == should_fail
        self.bad += not ok
        verdict = "ok  " if ok else "BAD "
        what = "; ".join(problems) if problems else "no problems"
        print(f"{verdict} {label}: {what}")

    def corrupted(self, label, command, corrupt, state=None):
        """Corrupt a copy of the command's output, then check the copy.

        ``state`` is the command's check state from its clean runs; without
        it the copy is the first output the check sees.
        """
        src = os.path.join(self.work, "out", command.name)
        dst = os.path.join(self.work, "corrupt", label.replace(" ", "-"))
        shutil.copytree(src, dst)
        corrupt(dst)
        self.expect(label, checks.check(command, dst, dict(state or {})), True)

    def run_op(self, label, command, should_fail=False):
        before = self.runner.failed
        self.runner.run(command)
        self.expect(label, ["op failed"] * (self.runner.failed - before), should_fail)

    def solve(self):
        cmds = inputs.generate("solve", SEED, os.path.join(self.work, "in", "solve"))
        bench = next(c for c in cmds if c.name == "solve.benchmark")
        self.run_op("clean solve.benchmark", bench)
        self.corrupted("schedule that does not sum to the total", bench,
                       in_json("policy.json", _scale_first_trade))
        self.corrupted("negative trade", bench, in_json("policy.json", _negate_first_trade))
        self.corrupted("top-node value off the reference", bench,
                       in_json("policy.json", _move_top_value))

    def simulate(self):
        cmds = inputs.generate("simulate", SEED, os.path.join(self.work, "in", "simulate"))
        for c in cmds:
            small = dataclasses.replace(
                c, argv=c.argv + ["--paths", str(SMALL_PATHS)],
                expect={**c.expect, "n_paths": SMALL_PATHS})
            self.run_op(f"clean {c.name}", small)
            self.run_op(f"clean {c.name}, rerun", small)
            self.corrupted(f"{c.name} flipped byte in paths.csv", small,
                           flip_middle_byte("paths.csv"), self.runner.state[small.name])
            self.corrupted(f"{c.name} path counts that do not add up", small,
                           in_json("distribution.json", _extra_infeasible))
            if "solver_value" in c.expect:
                def off_by_5_se(doc, value=c.expect["solver_value"]):
                    obj = doc["objective"]
                    obj["estimate"] = value + 5.0 * obj["standard_error"]

                self.corrupted(f"{c.name} objective 5 standard errors off", small,
                               in_json("distribution.json", off_by_5_se))

    def attribute(self):
        indir = os.path.join(self.work, "in", "attribute")
        (cmd,) = inputs.generate("attribute", SEED, indir)
        small = dataclasses.replace(cmd, argv=cmd.warm_argv, expect={"orders": 20})
        self.run_op("clean attribute.market", small)
        self.corrupted("audit that did not pass", small, in_json("attribution.json", _fail_audit))
        self.corrupted("missing report", small, in_json("attribution.json", _drop_report))
        self.corrupted("shortfall != impact + timing", small,
                       in_json("attribution.json", _break_decomposition))

        # one extra share bought makes interval 1 unbalanced: the program exits 4
        with open(small.argv[1], encoding="utf-8") as f:
            lines = f.read().splitlines()
        t, who, side, qty, price = lines[1].split(",")
        lines[1] = ",".join([t, who, side, str(int(qty) + 1), price])
        bad_fills = os.path.join(indir, "unbalanced-fills.csv")
        with open(bad_fills, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        unbalanced = dataclasses.replace(small, name="attribute.unbalanced",
                                         argv=[small.argv[0], bad_fills, *small.argv[2:]])
        self.run_op("unbalanced market through the runner", unbalanced, should_fail=True)


def main() -> int:
    work = os.path.join(ROOT, ".bench_work", "selftest")
    shutil.rmtree(work, ignore_errors=True)
    test = SelfTest(work)
    test.solve()
    test.simulate()
    test.attribute()
    print(f"self-test: {test.bad} unexpected results")
    return 1 if test.bad else 0


if __name__ == "__main__":
    sys.exit(main())
