"""Seeded input generator for the benchmark workloads.

Every input file the program reads is written here from the workload seed:
run configs, the liquidity replay schedule, the balanced fills CSV and the
attribution context.  The same seed always writes the same bytes.  Each
workload is a list of :class:`Command` objects, one per `execsched`
invocation; the benchmark drives them through ``execsched.cli.main``.

The solve and simulate configs are drawn from a small pool of parameter
variants so that a seed changes the inputs without changing the amount of
work a command does: every variant runs the same grids, iteration counts and
quadrature orders.  ``reference.json`` holds each variant's top-node value
as solved by the code the benchmark was defined on.
"""
from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("solve", "simulate", "attribute")

N_PATHS = 20_000
N_BUYERS = N_SELLERS = 1000
ATTRIBUTE_T = 50

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# One varied parameter per model; the first entry of each is the config the
# workload description names (benchmark theta=3, ar1 x0=0.5, ...).
VARIANTS = {
    "benchmark": (3.0, 2.5, 3.5, 2.0),
    "ar1": (0.5, 0.3, 0.7, 0.9),
    "linear_percentage": (0.05, 0.03, 0.07, 0.04),
    "liquidity": (20.0, 18.0, 22.0, 16.0),
}

# Replay schedule shape for the liquidity simulation: back-loaded, so late
# stages meet a decayed volume and about a quarter of paths go infeasible.
_LIQUIDITY_REPLAY_SHAPE = (2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 14.0, 18.0, 30.0)


@dataclass
class Command:
    """One `execsched` invocation of a workload, with what its check expects.

    ``argv`` omits ``--output-dir``, which the runner appends.  ``warm_argv``
    runs the same code paths on a small input, so that lazy set-up finishes
    before timing starts.  ``items`` counts the work units (paths, fills, or 1
    for a solve) used for throughput.
    """

    name: str
    kind: str
    argv: list[str]
    warm_argv: list[str]
    items: int
    expect: dict = field(default_factory=dict)


def solve_config(model: str, value: float) -> dict:
    """Run config of one solve variant; ``value`` is the varied parameter."""
    if model == "benchmark":
        return {
            "model": "benchmark",
            "formulation": "complex",
            "params": {"theta": value, "sigma_eps": 1.0},
            "horizon": {"periods": 10, "total_shares": 100.0},
            "initial_state": {"price": 100.0},
        }
    if model == "ar1":
        return {
            "model": "ar1",
            "formulation": "complex",
            "params": {"theta": 1.0, "gamma": 0.5, "rho": 0.9,
                       "sigma_eps": 1.0, "sigma_eta": 1.0},
            "horizon": {"periods": 10, "total_shares": 10.0},
            "initial_state": {"price": 100.0, "aux": value},
        }
    if model == "linear_percentage":
        return {
            "model": "linear_percentage",
            "formulation": "simple",
            "params": {"mu_B": 0.0, "sigma_B": 0.1, "theta": 0.001,
                       "gamma": value, "rho": 0.5, "sigma_eta": 1.0},
            "horizon": {"periods": 5, "total_shares": 10.0},
            "initial_state": {"price": 100.0, "aux": 0.0, "no_impact_price": 100.0},
        }
    if model == "liquidity":
        return {
            "model": "liquidity",
            "formulation": "simple",
            "params": {"alpha": 0.01, "theta": 0.05, "gamma": 0.02,
                       "rho": 0.5, "sigma_eps": 0.5, "sigma_eta": 10.0},
            "horizon": {"periods": 2, "total_shares": value},
            "initial_state": {"price": 100.0, "aux": 50.0},
            "solver": {"quad_order": 40},
        }
    raise ValueError(f"no solve config for model {model!r}")


def _warm_solve_config(cfg: dict) -> dict:
    """The same model at a small size: short horizon, coarse grid, low order."""
    warm = copy.deepcopy(cfg)
    warm["horizon"]["periods"] = min(warm["horizon"]["periods"], 3)
    warm["solver"] = {"grid_nodes": 8, "quad_order": 8}
    return warm


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as f:
        return json.load(f)


def _write_json(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    return path


def _variant(rng: np.random.Generator, model: str) -> tuple[int, float]:
    k = int(rng.integers(len(VARIANTS[model])))
    return k, VARIANTS[model][k]


def _solve_commands(rng, indir, reference) -> list[Command]:
    out = []
    for model in VARIANTS:
        k, value = _variant(rng, model)
        cfg = solve_config(model, value)
        path = _write_json(os.path.join(indir, f"solve-{model}.json"), cfg)
        warm = _write_json(os.path.join(indir, f"warm-solve-{model}.json"),
                           _warm_solve_config(cfg))
        out.append(Command(
            name=f"solve.{model}",
            kind="solve",
            argv=["solve", path],
            warm_argv=["solve", warm],
            items=1,
            expect={
                "total": cfg["horizon"]["total_shares"],
                "top_value": reference[model][k],
            },
        ))
    return out


def liquidity_replay_schedule(rng: np.random.Generator) -> list[float]:
    """Back-loaded trades jittered by up to 10%, on a half-share grid."""
    jitter = rng.uniform(0.9, 1.1, len(_LIQUIDITY_REPLAY_SHAPE))
    return [float(x) for x in np.round(np.array(_LIQUIDITY_REPLAY_SHAPE) * jitter * 2.0) / 2.0]


def _simulate_commands(rng, indir, reference) -> list[Command]:
    k, theta = _variant(rng, "benchmark")
    bench_cfg = solve_config("benchmark", theta)
    bench_cfg["simulation"] = {
        "n_paths": N_PATHS, "seed": int(rng.integers(2**63)), "workers": 1,
    }
    schedule = liquidity_replay_schedule(rng)
    liq_cfg = {
        "model": "liquidity",
        "formulation": "simple",
        "params": {"alpha": 0.015, "theta": 0.0005, "gamma": 0.0002,
                   "rho": 0.95, "sigma_eps": 0.5, "sigma_eta": 18.0},
        "horizon": {"periods": len(schedule), "total_shares": float(sum(schedule))},
        "initial_state": {"price": 100.0, "aux": 100.0},
        "schedule": schedule,
        "simulation": {"n_paths": N_PATHS, "seed": int(rng.integers(2**63)), "workers": 1},
    }
    out = []
    for model, cfg, expect in (
        ("benchmark", bench_cfg, {"solver_value": reference["benchmark"][k]}),
        ("liquidity", liq_cfg, {}),
    ):
        path = _write_json(os.path.join(indir, f"simulate-{model}.json"), cfg)
        out.append(Command(
            name=f"simulate.{model}",
            kind="simulate",
            argv=["simulate", path, "--workers", "1"],
            warm_argv=["simulate", path, "--workers", "1", "--paths", "200"],
            items=N_PATHS,
            expect={"n_paths": N_PATHS, **expect},
        ))
    return out


def balanced_market(rng: np.random.Generator, n_buyers: int, n_sellers: int, T: int):
    """Fills CSV text and context document for one balanced market.

    Every participant trades at every interval.  Quantities are whole
    shares, so each interval's bought and sold totals are equal exactly;
    every fill prints at the interval's path price, so the zero-sum audit
    holds up to rounding.
    """
    steps = rng.normal(0.0, 0.002, T)
    path = np.round(100.0 * np.exp(np.concatenate(([0.0], np.cumsum(steps)))), 2)
    buyers = [f"b{i:04d}" for i in range(n_buyers)]
    sellers = [f"s{i:04d}" for i in range(n_sellers)]
    rows = ["t,participant,side,qty,price"]
    for t in range(1, T + 1):
        bq = rng.integers(1, 101, n_buyers)
        total = int(bq.sum())
        sq = 1 + rng.multinomial(total - n_sellers, rng.dirichlet(np.ones(n_sellers)))
        price = repr(float(path[t]))
        rows.extend(f"{t},{p},buy,{int(q)},{price}" for p, q in zip(buyers, bq))
        rows.extend(f"{t},{p},sell,{int(q)},{price}" for p, q in zip(sellers, sq))
    context = {
        "arrival_price": float(path[0]),
        "horizon": T,
        "price_path": [float(p) for p in path],
    }
    return "\n".join(rows) + "\n", context


def _attribute_commands(rng, indir) -> list[Command]:
    paths = {}
    for label, (nb, ns, T) in (
        ("full", (N_BUYERS, N_SELLERS, ATTRIBUTE_T)),
        ("warm", (10, 10, 5)),
    ):
        fills, context = balanced_market(rng, nb, ns, T)
        fills_path = os.path.join(indir, f"{label}-fills.csv")
        with open(fills_path, "w", encoding="utf-8") as f:
            f.write(fills)
        ctx_path = _write_json(os.path.join(indir, f"{label}-context.json"), context)
        paths[label] = (fills_path, ctx_path)
    return [Command(
        name="attribute.market",
        kind="attribute",
        argv=["attribute", *paths["full"], "--formulation", "complex"],
        warm_argv=["attribute", *paths["warm"], "--formulation", "complex"],
        items=(N_BUYERS + N_SELLERS) * ATTRIBUTE_T,
        expect={"orders": N_BUYERS + N_SELLERS},
    )]


def generate(workload: str, seed: int, indir: str) -> list[Command]:
    """Write the inputs of one workload under ``indir`` and return its commands."""
    os.makedirs(indir, exist_ok=True)
    # the workload name keys the stream too, so workloads draw independently
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "solve":
        return _solve_commands(rng, indir, load_reference())
    if workload == "simulate":
        return _simulate_commands(rng, indir, load_reference())
    if workload == "attribute":
        return _attribute_commands(rng, indir)
    raise ValueError(f"unknown workload {workload!r}")
