"""The traced run: per-layer metrics for every workload.

Each workload's commands run untraced, traced, and untraced again, so the
per-layer numbers and the tracing overhead come from the same process and
inputs.
Every traced run covers all three workloads, whichever ``--workload`` was
named, because each per-layer metric belongs to one workload and the run
reports all of them.  Layer names are the package modules: kernels, models,
dp, gbm, liquidity, simulate, attribution and cli.
"""
from __future__ import annotations

import json
import math
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

import inputs
from ops import Runner, environment, geomean, result
from tracing import Tracer, self_times

LAYERS = ("kernels", "models", "dp", "gbm", "liquidity", "simulate", "attribution", "cli")

# Direct kernel probe: one fixed array from the deep left tail (past the
# series branch at u = -150) to the right tail.
PROBE_ELEMS = 2_000_000
PROBE_RANGE = (-200.0, 12.0)
PROBE_REPEATS = 5
# Each element reads one float64 and writes one: the bytes any implementation
# must move, used to state a computed bandwidth.
PROBE_BYTES_PER_ELEM = 16


def probe_kernels() -> dict[str, float]:
    from execsched.kernels import mills_psi, mills_psi_prime

    u = np.linspace(*PROBE_RANGE, PROBE_ELEMS)
    out = {}
    for name, fn in (("mills_psi", mills_psi), ("mills_psi_prime", mills_psi_prime)):
        fn(u)
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = perf_counter()
            fn(u)
            times.append(perf_counter() - t0)
        ns = float(np.median(times)) / PROBE_ELEMS * 1e9
        out[f"kernels.{name}.ns_per_elem"] = ns
        out[f"kernels.{name}.computed_gb_per_s"] = PROBE_BYTES_PER_ELEM / ns
    return out


def _spans(records, op, name):
    return [r for r in records if r["op"] == op and r["name"] == name]


def _dur(rs) -> float:
    return math.fsum(r["end"] - r["start"] for r in rs)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(records, counts, commands) -> dict[str, float]:
    """Per-layer metrics from the spans and counts of one traced round each."""
    selfs = self_times(records)
    m: dict[str, float] = {}

    def self_of(op, name):
        return math.fsum(selfs[r["id"]] for r in _spans(records, op, name))

    layer_self = defaultdict(float)
    for r in records:
        layer_self[r["layer"]] += selfs[r["id"]]
    for layer in LAYERS:
        m[f"layer_self_s.{layer}"] = layer_self[layer]

    # kernels and solvers
    solvers = {
        "benchmark": "dp.solve_benchmark_complex",
        "ar1": "dp.solve_ar1_complex",
        "linear_percentage": "gbm.solve_gbm_simple",
        "liquidity": "liquidity.solve_liquidity",
    }
    for model, span in solvers.items():
        op = f"solve.{model}"
        solve_s = _dur(_spans(records, op, span))
        kernel_s = _dur([r for r in records if r["op"] == op and r["layer"] == "kernels"])
        m[f"kernels.calls.{model}"] = counts[f"kernels.calls.{model}"]
        m[f"kernels.elems.{model}"] = counts[f"kernels.elems.{model}"]
        m[f"kernels.share.{model}"] = _ratio(kernel_s, solve_s)
    for model in ("benchmark", "ar1"):
        own = self_of(f"solve.{model}", solvers[model])
        m[f"dp.self_s.{model}"] = own
        m[f"dp.us_per_node_stage.{model}"] = _ratio(own, counts[f"dp.node_stages.{model}"]) * 1e6
    m["gbm.self_s"] = self_of("solve.linear_percentage", solvers["linear_percentage"])
    m["liquidity.self_s"] = self_of("solve.liquidity", solvers["liquidity"])
    m["liquidity.probes"] = counts["liquidity.probes"]
    m["liquidity.ms_per_probe"] = _ratio(
        _dur(_spans(records, "solve.liquidity", solvers["liquidity"])),
        counts["liquidity.probes"]) * 1e3

    # models and simulate
    steps = [r for r in records if r["name"] == "models.step"]
    calls = sum(r["calls"] for r in steps)
    m["models.step.calls"] = calls
    m["models.step.us_per_call"] = _ratio(_dur(steps), calls) * 1e6
    m["models.volume_clamps"] = counts["models.volume_clamps"]
    sims = commands["simulate"]
    for c in sims:
        model = c.name.split(".")[1]
        for fn in ("evaluate_policy", "estimate_objective"):
            m[f"simulate.{fn}.us_per_path.{model}"] = (
                _dur(_spans(records, c.name, f"simulate.{fn}")) / c.items * 1e6)
    passes = [r for r in records if r["name"] == "simulate.generate_paths"]
    m["simulate.passes"] = len(passes) / len(sims)
    buckets = [r for r in records if r["name"] == "simulate.momentum_volatility_buckets"]
    m["simulate.buckets_ms"] = _dur(buckets) / len(sims) * 1e3

    # attribution
    m["attribution.path_costs.ns_per_path"] = _ratio(
        _dur([r for r in records if r["name"] == "attribution.path_costs"]),
        counts["attribution.paths_costed"]) * 1e9
    m["attribution.zero_sum_audit.us_per_fill"] = _ratio(
        _dur([r for r in records if r["name"] == "attribution.zero_sum_audit"]),
        counts["attribution.audit_fills"]) * 1e6
    m["attribution.orders"] = counts["attribution.orders"]

    # cli: command wall time minus the library spans directly under it
    m["cli.load_fills.us_per_fill"] = _ratio(
        _dur([r for r in records if r["name"] == "cli.load_fills"]),
        counts["cli.fills_loaded"]) * 1e6
    for kind in inputs.WORKLOADS:
        total = 0.0
        for r in records:
            if r["layer"] == "cli" and r["name"].startswith(f"cli.{kind}."):
                library = _dur([ch for ch in records
                                if ch["parent"] == r["id"] and ch["layer"] != "cli"])
                total += (r["end"] - r["start"]) - library
        m[f"cli.self_s.{kind}"] = total
        m[f"cli.bytes_written.{kind}"] = counts[f"cli.bytes_written.{kind}"]
    return m


def run(seed: int, work: str, specs: dict) -> tuple[dict, dict]:
    from execsched import cli

    runner = Runner(cli, os.path.join(work, "out"))
    tracer = Tracer()
    commands, untraced, traced = {}, {}, {}
    values: dict[str, float] = {}
    for w in inputs.WORKLOADS:
        cmds = inputs.generate(w, seed, os.path.join(work, "in", w))
        commands[w] = cmds
        runner.warm(cmds)
        before = {c.name: runner.run(c) for c in cmds}
        tracer.install()
        try:
            traced[w] = {c.name: runner.run(c, tracer=tracer) for c in cmds}
        finally:
            tracer.uninstall()
        # untraced rounds on both sides of the traced one cancel a linear drift
        after = {c.name: runner.run(c) for c in cmds}
        untraced[w] = {n: (before[n] + after[n]) / 2.0 for n in before}
        values[f"trace.overhead.cmd_geomean_s.{w}"] = (
            geomean(traced[w].values()) - geomean(untraced[w].values()))
        if w == "simulate":
            bench = next(c for c in cmds if c.name == "simulate.benchmark")
            # same check state: the artifacts must not depend on the worker count
            pooled = runner.run(bench, bench.argv + ["--workers", "2"])
            values["simulate.pool_speedup"] = untraced[w][bench.name] / pooled
            with open(os.path.join(work, "out", "simulate.liquidity", "distribution.json"),
                      encoding="utf-8") as f:
                dist = json.load(f)
            values["simulate.infeasible_ratio.liquidity"] = dist["n_infeasible"] / dist["n_paths"]

    for model in inputs.VARIANTS:
        values[f"solve_s.{model}"] = untraced["solve"][f"solve.{model}"]
    for model in ("benchmark", "liquidity"):
        values[f"simulate_paths_per_s.{model}"] = (
            inputs.N_PATHS / untraced["simulate"][f"simulate.{model}"])
    (att,) = commands["attribute"]
    values["attribute_fills_per_s"] = att.items / untraced["attribute"][att.name]
    values.update(probe_kernels())

    records = tracer.records()
    values.update(layer_metrics(records, tracer.counts, commands))
    tracer.write(os.path.join(work, "spans.jsonl"))

    missing = sorted(set(specs) - set(values))
    extra = sorted(set(values) - set(specs))
    if missing or extra:
        raise RuntimeError(f"per-layer metrics out of step with BENCHMARK.json: "
                           f"missing {missing}, undeclared {extra}")
    print(f"traced run seed {seed}: {runner.attempted} ops, {runner.failed} failed, "
          f"{len(records)} span records in {os.path.relpath(work)}/spans.jsonl")
    for w in inputs.WORKLOADS:
        for name in untraced[w]:
            print(f"  {name:<28} untraced {untraced[w][name]:.4f} s  "
                  f"traced {traced[w][name]:.4f} s")
    return (result(runner.failed == 0, runner.attempted, runner.failed, values, specs),
            environment(commands))
