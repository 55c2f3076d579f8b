"""Output checks run after every op; any problem counts the op as failed.

Each check reads the artifacts a command wrote and returns a list of
problems, empty when the output is correct.  The checks are independent of
how the program computes its answer: they test invariants (trades sum to the
order, shortfall = impact + timing, the zero-sum audit), agreement with
values recorded when the benchmark was defined, and byte-identical
reruns.
"""
from __future__ import annotations

import hashlib
import json
import math
import os

# Solver top-node values may move by this much relative to the recorded
# ones: the accuracy the solvers publish (the liquidity quadrature
# stability check in `execsched verify` uses the same figure).
TOP_VALUE_REL_TOL = 1e-6
TRADE_SUM_REL_TOL = 1e-9
# The Monte Carlo objective must lie within this many standard errors of the
# solver's value.
OBJECTIVE_SE = 4.0
# shortfall - (impact + timing), relative to the order's arrival notional
DECOMPOSITION_REL_TOL = 1e-12


def _load_json(path: str):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def check_solve(outdir: str, expect: dict) -> list[str]:
    policy = _load_json(os.path.join(outdir, "policy.json"))
    trades = policy["schedule"]["trades"]
    problems = []
    if any(s < 0.0 for s in trades):
        problems.append(f"negative trade in {trades}")
    total = expect["total"]
    if abs(math.fsum(trades) - total) > TRADE_SUM_REL_TOL * total:
        problems.append(f"trades sum to {math.fsum(trades)}, not {total}")
    w_top, v_top = policy["value_samples"][0][-1]
    if w_top != total:
        problems.append(f"top value node sits at W={w_top}, not {total}")
    ref = expect["top_value"]
    if not abs(v_top - ref) <= TOP_VALUE_REL_TOL * abs(ref):
        problems.append(f"top-node value {v_top} differs from the recorded {ref}")
    return problems


def check_simulate(outdir: str, expect: dict, first_digests: dict) -> list[str]:
    """``first_digests`` holds the artifact digests of the command's first op.

    An empty dict is filled in; later ops must then match it byte for byte.
    """
    dist_path = os.path.join(outdir, "distribution.json")
    paths_path = os.path.join(outdir, "paths.csv")
    dist = _load_json(dist_path)
    problems = []
    n = expect["n_paths"]
    if dist["n_paths"] != n or dist["n_feasible"] + dist["n_infeasible"] != n:
        problems.append(
            f"n_feasible {dist['n_feasible']} + n_infeasible {dist['n_infeasible']} "
            f"does not make n_paths {n} (file says {dist['n_paths']})"
        )
    with open(paths_path, "rb") as f:
        rows = f.read().count(b"\n") - 1
    if rows != dist["n_feasible"]:
        problems.append(f"paths.csv has {rows} rows for {dist['n_feasible']} feasible paths")
    if "solver_value" in expect:
        obj = dist["objective"]
        gap = abs(obj["estimate"] - expect["solver_value"])
        if not gap <= OBJECTIVE_SE * obj["standard_error"]:
            problems.append(
                f"objective estimate {obj['estimate']} +/- {obj['standard_error']} is "
                f"more than {OBJECTIVE_SE} standard errors from {expect['solver_value']}"
            )
    digests = {"distribution.json": _digest(dist_path), "paths.csv": _digest(paths_path)}
    if not first_digests:
        first_digests.update(digests)
    for name, d in digests.items():
        if d != first_digests[name]:
            problems.append(f"{name} differs from the first run of the same command")
    return problems


def check_attribute(outdir: str, expect: dict) -> list[str]:
    doc = _load_json(os.path.join(outdir, "attribution.json"))
    problems = []
    audit = doc["audit"]
    if audit is None or audit["passed"] is not True:
        problems.append(f"zero-sum audit did not pass: {audit}")
    reports = doc["reports"]
    if len(reports) != expect["orders"]:
        problems.append(f"{len(reports)} reports, expected {expect['orders']}")
    for r in reports:
        gap = r["shortfall"] - (r["impact"] + r["timing"])
        if not abs(gap) <= DECOMPOSITION_REL_TOL * r["reference_value"]:
            problems.append(
                f"{r['participant']}: shortfall {r['shortfall']} != impact "
                f"{r['impact']} + timing {r['timing']}"
            )
            break
    return problems


def check(command, outdir: str, state: dict) -> list[str]:
    """Problems with ``command``'s output in ``outdir``; ``state`` persists per command."""
    if command.kind == "solve":
        return check_solve(outdir, command.expect)
    if command.kind == "simulate":
        return check_simulate(outdir, command.expect, state)
    return check_attribute(outdir, command.expect)
