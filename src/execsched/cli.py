"""Command-line entry points: solve, attribute, simulate, verify.

Configs and reports are JSON, tabular data is CSV.  Every number written
out uses the shortest representation that parses back to the same float,
so outputs can be diffed and round-tripped byte-exactly.

Exit codes are stable across commands: 0 success, 2 input problem (schema
violation, malformed file, unknown selector), 3 solver failure, 4 audit
failure (unbalanced fills, broken zero-sum, failed verify suite).

``solve``, ``attribute`` and ``simulate`` write their artifacts plus a
``manifest.json`` carrying the command, input digests, seed, library
version, timestamps, for ``solve`` the threads it ran on, and the sha256 of
each output.  JSON outputs embed the manifest's ``run_id`` (a digest of the
command and its effective inputs, no clock, so reruns reproduce it); CSV
outputs keep their strict column schema and are bound to the run by their
digest in the manifest.
The only environment knob is EXECSCHED_OUTPUT_DIR, an output-directory
fallback for runs that do not pass --output-dir.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import importlib
import json
import os
import sys
import warnings
from datetime import datetime, timezone
from time import perf_counter

import numpy as np

from execsched import __version__
from execsched.attribution import (
    FORMULATIONS,
    SIDES,
    OrderContext,
    UnbalancedIntervalError,
    attribute,
    zero_sum_audit,
)
from execsched.models import (
    Ar1Extra,
    Benchmark,
    LinearPercentage,
    Liquidity,
    MarketState,
    SolverError,
    Spread,
)
from execsched.schema import (
    SchemaError,
    _choice,
    _intval,
    _no_unknown,
    _num,
    _obj,
    _parse_json,
    _read_bytes,
    _required,
)

# What the commands take from the modules that only some of them need, by
# module.  The solvers load scipy.special, and ``attribute`` needs neither
# them nor the simulator, so these load on first use: a function that uses
# one of the names calls ``_bind`` on its module first, and a lookup of one
# as an attribute of this module binds it too.  Commands call the names
# through this module's globals, so a wrapper set on this module (by a
# tracer or a test) is what runs.
_DEFERRED = {
    "execsched.dp": (
        "ClosedLinearPolicy", "Horizon", "RecursionConfig", "Schedule",
        "solve_ar1_complex", "solve_ar1_simple", "solve_benchmark_complex",
        "solve_benchmark_simple",
    ),
    "execsched.gbm": ("solve_gbm_simple",),
    "execsched.liquidity": ("solve_liquidity",),
    "execsched.simulate": (
        "STREAM_VERSION", "SimConfig", "estimate_objective", "evaluate_policy",
        "momentum_volatility_buckets", "simulate_paths",
    ),
    "execsched.fills": ("_validate_context", "load_fills"),
}


def _bind(*modules: str) -> None:
    """Import ``modules`` and bind their ``_DEFERRED`` names here, keeping a
    name that is bound already."""
    scope = globals()
    for module in modules:
        defined = importlib.import_module(module)
        for name in _DEFERRED[module]:
            if name not in scope:
                scope[name] = getattr(defined, name)


def __getattr__(name: str):
    for module, names in _DEFERRED.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_AUDIT = 4

PATHS_HEADER = [
    "path_index",
    "shortfall",
    "impact",
    "timing",
    "side_adjusted_return",
    "price_cov",
]

_MODEL_TYPES = {
    "benchmark": Benchmark,
    "ar1": Ar1Extra,
    "spread": Spread,
    "linear_percentage": LinearPercentage,
    "liquidity": Liquidity,
}
_MODEL_FIELDS = {
    name: tuple(f.name for f in dataclasses.fields(cls) if f.init)
    for name, cls in _MODEL_TYPES.items()
}


# ---------------------------------------------------------------------------
# Config schema.
# ---------------------------------------------------------------------------


def validate_config(doc) -> dict:
    """Check the run-config document and return its canonical form.

    The canonical form has every optional field made explicit, so
    parse -> serialize -> parse is a fixed point.
    """
    root = _obj(doc, "config")
    _no_unknown(
        root,
        "",
        {"model", "formulation", "params", "horizon", "initial_state", "solver",
         "simulation", "schedule"},
    )
    model = _choice(_required(root, "model", ""), "model", _MODEL_FIELDS)
    formulation = _choice(root.get("formulation", "simple"), "formulation", FORMULATIONS)

    params_obj = _obj(_required(root, "params", ""), "params")
    wanted = _MODEL_FIELDS[model]
    _no_unknown(params_obj, "params", set(wanted))
    params = {}
    for name in wanted:
        if name not in params_obj:
            raise SchemaError(f"params.{name}", f"required for model '{model}'")
        params[name] = _num(params_obj[name], f"params.{name}")

    horizon_obj = _obj(_required(root, "horizon", ""), "horizon")
    _no_unknown(horizon_obj, "horizon", {"periods", "total_shares"})
    periods = _intval(_required(horizon_obj, "periods", "horizon"), "horizon.periods", lo=1)
    total = _num(
        _required(horizon_obj, "total_shares", "horizon"),
        "horizon.total_shares",
        positive=True,
    )

    state = None
    if root.get("initial_state") is not None:
        st = _obj(root["initial_state"], "initial_state")
        _no_unknown(st, "initial_state", {"price", "aux", "no_impact_price"})
        state = {
            "price": _num(_required(st, "price", "initial_state"),
                          "initial_state.price", positive=True),
            "aux": _num(st.get("aux", 0.0), "initial_state.aux"),
            "no_impact_price": None
            if st.get("no_impact_price") is None
            else _num(st["no_impact_price"], "initial_state.no_impact_price",
                      positive=True),
        }

    solver = {}
    if root.get("solver") is not None:
        sv = _obj(root["solver"], "solver")
        _bind("execsched.dp")
        _no_unknown(sv, "solver", {f.name for f in dataclasses.fields(RecursionConfig)})
        solver = {key: _intval(value, f"solver.{key}", lo=1) for key, value in sv.items()}

    simulation = None
    if root.get("simulation") is not None:
        sm = _obj(root["simulation"], "simulation")
        _no_unknown(sm, "simulation", {"n_paths", "seed", "workers", "side"})
        simulation = {
            "n_paths": _intval(_required(sm, "n_paths", "simulation"),
                               "simulation.n_paths", lo=1),
            "seed": _intval(_required(sm, "seed", "simulation"),
                            "simulation.seed", lo=0, hi=2**63),
            "workers": _intval(sm.get("workers", 1), "simulation.workers", lo=1),
            "side": _choice(sm.get("side", "buy"), "simulation.side", SIDES),
        }

    schedule = None
    if root.get("schedule") is not None:
        raw = root["schedule"]
        if not isinstance(raw, list):
            raise SchemaError("schedule", f"expected a list of trades, got {raw!r}")
        if len(raw) != periods:
            raise SchemaError(
                "schedule", f"needs exactly {periods} trades, got {len(raw)}"
            )
        schedule = [_num(v, f"schedule[{i}]") for i, v in enumerate(raw)]

    return {
        "model": model,
        "formulation": formulation,
        "params": params,
        "horizon": {"periods": periods, "total_shares": total},
        "initial_state": state,
        "solver": solver,
        "simulation": simulation,
        "schedule": schedule,
    }


def load_config(path: str) -> tuple[dict, str]:
    """Read, validate and canonicalize a config file; also return its digest."""
    raw = _read_bytes(path)
    return validate_config(_parse_json(raw, "config")), hashlib.sha256(raw).hexdigest()


def build_model(cfg: dict):
    try:
        return _MODEL_TYPES[cfg["model"]](**cfg["params"])
    except ValueError as e:
        raise SchemaError("params", str(e)) from None


def build_horizon(cfg: dict) -> Horizon:
    _bind("execsched.dp")
    h = cfg["horizon"]
    try:
        return Horizon(h["periods"], h["total_shares"])
    except ValueError as e:
        raise SchemaError("horizon", str(e)) from None


def build_state(cfg: dict) -> MarketState | None:
    st = cfg["initial_state"]
    if st is None:
        return None
    try:
        return MarketState(
            price=st["price"], aux=st["aux"], no_impact_price=st["no_impact_price"]
        )
    except ValueError as e:
        raise SchemaError("initial_state", str(e)) from None


def build_recursion_config(cfg: dict) -> RecursionConfig | None:
    if not cfg["solver"]:
        return None
    _bind("execsched.dp")
    try:
        return RecursionConfig(**cfg["solver"])
    except ValueError as e:
        raise SchemaError("solver", str(e)) from None


def _require_state(cfg: dict) -> MarketState:
    state = build_state(cfg)
    if state is None:
        raise SchemaError("initial_state", f"required for model '{cfg['model']}'")
    return state


def solve_from_config(cfg: dict) -> tuple[Schedule, "object"]:
    """Dispatch the configured model and formulation to its solver."""
    _bind("execsched.dp")
    model = build_model(cfg)
    horizon = build_horizon(cfg)
    rc = build_recursion_config(cfg)
    name = cfg["model"]
    formulation = cfg["formulation"]
    if name == "benchmark":
        fn = solve_benchmark_simple if formulation == "simple" else solve_benchmark_complex
        return fn(model, horizon, config=rc)
    if name in ("ar1", "spread"):
        x0 = _require_state(cfg).aux
        fn = solve_ar1_simple if formulation == "simple" else solve_ar1_complex
        return fn(model, horizon, x0, config=rc)
    if name == "linear_percentage":
        if formulation != "simple":
            raise SchemaError(
                "formulation",
                "the percentage law solves the trade-weighted objective only",
            )
        state = _require_state(cfg)
        if state.no_impact_price is None:
            raise SchemaError(
                "initial_state.no_impact_price", "required for model 'linear_percentage'"
            )
        _bind("execsched.gbm")
        return solve_gbm_simple(model, horizon, state, config=rc)
    if formulation != "simple":
        raise SchemaError(
            "formulation", "the liquidity law solves the trade-weighted objective only"
        )
    _bind("execsched.liquidity")
    return solve_liquidity(model, horizon, _require_state(cfg), config=rc)


# ---------------------------------------------------------------------------
# Output plumbing.
# ---------------------------------------------------------------------------


def _json_default(o):
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.integer):
        return int(o)
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


@functools.cache
def _json_encoder(depth: int) -> json.JSONEncoder:
    """The C encoder whose item separator carries the indent of nesting ``depth``."""
    pad = "\n" + "  " * (depth + 1)
    return json.JSONEncoder(separators=("," + pad, ": "), default=_json_default)


def _json_block(o, depth: int) -> str:
    """``o`` as ``json.dumps(o, indent=2)`` prints it at nesting ``depth``.

    A container none of whose values is a nonempty container is one call of
    the C encoder, since an encoded string never holds a raw newline; only
    nested containers recurse.
    """
    enc = _json_encoder(depth)
    if not isinstance(o, (dict, list, tuple)) or not o:
        return enc.encode(o)
    is_dict = isinstance(o, dict)
    pad = enc.item_separator[1:]
    close = "\n" + "  " * depth + ("}" if is_dict else "]")
    if not any(isinstance(v, (dict, list, tuple)) and v for v in (o.values() if is_dict else o)):
        text = enc.encode(o)
        return text[0] + pad + text[1:-1] + close
    if not is_dict and len(o) > 1 and _flat_items(o):
        return _json_flat_items(o, depth)
    if is_dict:
        # '{"key": null}' less its brace and 'null}' is the key and its separator
        items = (enc.encode({k: None})[1:-5] + _json_block(v, depth + 1) for k, v in o.items())
    else:
        items = (_json_block(v, depth + 1) for v in o)
    return ("{" if is_dict else "[") + pad + enc.item_separator.join(items) + close


def _flat_items(o) -> bool:
    """Whether every item of list ``o`` is a nonempty container of the first
    item's kind (dict, or list/tuple) that holds no container."""
    kind = dict if isinstance(o[0], dict) else (list, tuple)
    return all(
        isinstance(item, kind)
        and item
        and not any(
            isinstance(v, (dict, list, tuple)) for v in (item.values() if kind is dict else item)
        )
        for item in o
    )


def _json_flat_items(o, depth: int) -> str:
    """List ``o`` of flat containers (see :func:`_flat_items`) at nesting ``depth``.

    One call of the C encoder at ``depth`` + 1 indents the items' values
    right; only the brackets between items need their own lines.  Inside an
    item a separator is followed by a key or a scalar, never by a bracket,
    and an encoded string never holds a raw newline, so the close, separator
    and open of each pair of neighbours is the one match of a single
    replace.
    """
    enc = _json_encoder(depth + 1)
    sep = enc.item_separator
    outer, inner = "\n" + "  " * (depth + 1), sep[1:]
    opens, closes = ("{", "}") if isinstance(o[0], dict) else ("[", "]")
    body = enc.encode(o)[2:-2].replace(
        closes + sep + opens, outer + closes + "," + outer + opens + inner
    )
    return "[" + outer + opens + inner + body + outer + closes + "\n" + "  " * depth + "]"


def _json_text(doc) -> str:
    return _json_block(doc, 0) + "\n"


def _write_output(outdir: str, name: str, text: str) -> dict:
    data = text.encode("utf-8")
    with open(os.path.join(outdir, name), "wb") as f:
        f.write(data)
    return {"path": name, "sha256": hashlib.sha256(data).hexdigest()}


def _run_id(*parts) -> str:
    joined = "\n".join(str(p) for p in parts)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]


def _resolve_outdir(args) -> str:
    outdir = args.output_dir or os.environ.get("EXECSCHED_OUTPUT_DIR") or "."
    os.makedirs(outdir, exist_ok=True)
    return outdir


def _phases(started: float, loaded: float, computed: float) -> dict:
    """Wall seconds of a command's load, compute and write phases, ending now."""
    return {
        "load": loaded - started,
        "compute": computed - loaded,
        "write": perf_counter() - computed,
    }


def _write_manifest(
    outdir: str, *, command, run_id, inputs, seed, outputs, phases_s, **extra
) -> None:
    # the only file of a run that may differ between reruns: it carries the clock
    doc = {
        "run_id": run_id,
        "command": command,
        "library_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "seed": seed,
        **extra,
        "inputs": inputs,
        "outputs": outputs,
        "phases_s": phases_s,
    }
    _write_output(outdir, "manifest.json", _json_text(doc))


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _stage_doc(stage) -> dict:
    _bind("execsched.dp")
    if isinstance(stage, ClosedLinearPolicy):
        return {"kind": "closed-linear", "fraction": stage.fraction}
    return {
        "kind": "interpolated",
        "interpolation": "pchip",
        "residual_grid": stage.grid.tolist(),
        "trades": stage.trades.tolist(),
    }


def _solve_threads(model: str) -> int:
    """Threads a solve of ``model`` runs on: the liquidity solver's block pool
    is as wide as the CPUs the process may use; every other solver runs on one."""
    if model != "liquidity":
        return 1
    return importlib.import_module("execsched.liquidity")._pool_width()


def cmd_solve(args) -> int:
    started = perf_counter()
    cfg, digest = load_config(args.config)
    loaded = perf_counter()
    schedule, table = solve_from_config(cfg)
    computed = perf_counter()
    run_id = _run_id("solve", digest)
    outdir = _resolve_outdir(args)

    rows = [",".join(["t", "S_t", "W_t"])]
    for t, (s, w) in enumerate(zip(schedule.trades, schedule.residuals), start=1):
        rows.append(f"{t},{float(s)},{float(w)}")
    schedule_entry = _write_output(outdir, "schedule.csv", "\n".join(rows) + "\n")

    policy_doc = {
        "run_id": run_id,
        "config_digest": digest,
        "model": table.metadata["model"],
        "formulation": table.metadata["formulation"],
        "method": table.metadata.get("method"),
        "horizon": dict(cfg["horizon"]),
        "metadata": {
            k: v
            for k, v in table.metadata.items()
            if k not in ("model", "formulation", "method")
        },
        "schedule": {
            "trades": [float(s) for s in schedule.trades],
            "residuals": [float(w) for w in schedule.residuals],
        },
        "stages": [_stage_doc(s) for s in table.stages],
        "value_samples": [vs.tolist() for vs in table.value_samples],
    }
    policy_entry = _write_output(outdir, "policy.json", _json_text(policy_doc))

    _write_manifest(
        outdir,
        command="solve",
        run_id=run_id,
        inputs={"config": {"path": args.config, "sha256": digest}},
        seed=None,
        threads=_solve_threads(cfg["model"]),
        outputs=[schedule_entry, policy_entry],
        phases_s=_phases(started, loaded, computed),
    )
    print(f"wrote schedule.csv, policy.json, manifest.json to {outdir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# attribute
# ---------------------------------------------------------------------------


def cmd_attribute(args) -> int:
    started = perf_counter()
    _bind("execsched.fills")
    raw_ctx = _read_bytes(args.context)
    ctx_digest = hashlib.sha256(raw_ctx).hexdigest()
    context = _validate_context(_parse_json(raw_ctx, "context"))
    fills, fills_digest = load_fills(args.fills)
    formulation = args.formulation

    loaded = perf_counter()
    if len(fills.orders) > 1:
        audit = zero_sum_audit(fills, context["price_path"], formulation)
        reports = list(audit.reports)
    else:
        if context["total_shares"] is None:
            raise SchemaError(
                "context.total_shares", "required when the fills carry a single order"
            )
        octx = OrderContext(
            arrival_price=context["arrival_price"],
            total_shares=context["total_shares"],
            horizon=context["horizon"],
            price_path=context["price_path"],
        )
        audit = None
        reports = [attribute(octx, fills, formulation)]

    computed = perf_counter()
    run_id = _run_id("attribute", ctx_digest, fills_digest, formulation)
    outdir = _resolve_outdir(args)
    doc = {
        "run_id": run_id,
        "context_digest": ctx_digest,
        "fills_digest": fills_digest,
        "formulation": formulation,
        "reports": [
            {
                "participant": r.participant,
                "side": r.side,
                "shortfall": r.shortfall,
                "impact": r.impact,
                "timing": r.timing,
                "shortfall_bps": r.shortfall_bps,
                "impact_bps": r.impact_bps,
                "timing_bps": r.timing_bps,
                "reference_value": r.reference_value,
            }
            for r in reports
        ],
        "audit": None
        if audit is None
        else {
            "total_impact": audit.total_impact,
            "total_timing": audit.total_timing,
            "residual": audit.residual,
            "tolerance": audit.tolerance,
            "passed": audit.passed,
        },
    }
    entry = _write_output(outdir, "attribution.json", _json_text(doc))
    _write_manifest(
        outdir,
        command="attribute",
        run_id=run_id,
        inputs={
            "fills": {"path": args.fills, "sha256": fills_digest},
            "context": {"path": args.context, "sha256": ctx_digest},
        },
        seed=None,
        outputs=[entry],
        phases_s=_phases(started, loaded, computed),
    )
    if audit is None:
        r = reports[0]
        print(
            f"{r.participant} ({r.side}): shortfall {r.shortfall} = "
            f"impact {r.impact} + timing {r.timing}"
        )
        return EXIT_OK
    verdict = "passed" if audit.passed else "FAILED"
    print(
        f"{len(reports)} orders; zero-sum residual {audit.residual} "
        f"(tolerance {audit.tolerance}): {verdict}"
    )
    return EXIT_OK if audit.passed else EXIT_AUDIT


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    started = perf_counter()
    _bind("execsched.dp", "execsched.simulate")
    cfg, digest = load_config(args.config)
    if cfg["simulation"] is None:
        raise SchemaError("simulation", "required: supply n_paths and seed")
    sim = dict(cfg["simulation"])
    if args.paths is not None:
        sim["n_paths"] = _intval(args.paths, "--paths", lo=1)
    if args.seed is not None:
        sim["seed"] = _intval(args.seed, "--seed", lo=0, hi=2**63)
    if args.workers is not None:
        sim["workers"] = _intval(args.workers, "--workers", lo=1)
    if args.side is not None:
        sim["side"] = args.side
    formulation = args.formulation or cfg["formulation"]

    model = build_model(cfg)
    horizon = build_horizon(cfg)
    state = _require_state(cfg)
    loaded = perf_counter()
    if cfg["schedule"] is not None:
        try:
            schedule = Schedule.from_trades(cfg["schedule"], horizon.total_shares)
        except ValueError as e:
            raise SchemaError("schedule", str(e)) from None
    else:
        schedule, _ = solve_from_config(cfg)

    sim_config = SimConfig(
        model=model,
        horizon=horizon,
        n_paths=sim["n_paths"],
        seed=sim["seed"],
        initial_state=state,
    )
    # one pass of path generation feeds both the distribution and the objective
    paths = simulate_paths(sim_config, schedule)
    dist = evaluate_policy(sim_config, paths, formulation, side=sim["side"])
    summary = dist.summary()
    buckets = momentum_volatility_buckets(dist)
    # The realized-shortfall mean is not the solver objective (which is a
    # conditional premium), so the comparable estimate gets its own block.
    objective = None
    if dist.shortfall.size:
        est, se = estimate_objective(sim_config, paths, formulation, side=sim["side"])
        objective = {"estimate": est, "standard_error": se}
    computed = perf_counter()

    # workers have no effect and stay out of the run identity; the stream
    # version goes in, so a run on another random stream gets another id
    run_id = _run_id(
        "simulate", digest, sim["seed"], sim["n_paths"], formulation, sim["side"],
        f"stream_version={STREAM_VERSION}",
    )
    outdir = _resolve_outdir(args)
    dist_doc = {
        "run_id": run_id,
        "config_digest": digest,
        "seed": sim["seed"],
        "formulation": formulation,
        "side": sim["side"],
        "n_paths": dist.n_paths,
        "n_feasible": int(dist.shortfall.size),
        "n_infeasible": dist.n_infeasible,
        "counters": {name: v.tolist() for name, v in paths.counters.items()},
        "schedule": {
            "trades": [float(s) for s in schedule.trades],
            "residuals": [float(w) for w in schedule.residuals],
        },
        "objective": objective,
        "summary": summary,
        "buckets": buckets,
    }
    dist_entry = _write_output(outdir, "distribution.json", _json_text(dist_doc))

    lines = [",".join(PATHS_HEADER)]
    columns = (
        dist.path_index, dist.shortfall, dist.impact, dist.timing,
        dist.side_adjusted_return, dist.price_cov,
    )
    # rows convert to Python numbers 1024 at a time, so that peak memory
    # does not grow by a Python float per cell
    for lo in range(0, dist.path_index.size, 1024):
        rows = zip(*(c[lo:lo + 1024].tolist() for c in columns))
        lines.extend(f"{i},{sf},{imp},{tim},{ret},{cov}" for i, sf, imp, tim, ret, cov in rows)
    paths_entry = _write_output(outdir, "paths.csv", "\n".join(lines) + "\n")

    _write_manifest(
        outdir,
        command="simulate",
        run_id=run_id,
        inputs={"config": {"path": args.config, "sha256": digest}},
        seed=sim["seed"],
        outputs=[dist_entry, paths_entry],
        phases_s=_phases(started, loaded, computed),
        stream_version=STREAM_VERSION,
    )
    mean = summary["shortfall"]["mean"]
    print(
        f"{dist.shortfall.size} feasible paths ({dist.n_infeasible} infeasible "
        f"excluded); mean shortfall {mean}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

#: The suites of ``execsched verify``, in the order ``all`` runs them.
VERIFY_SUITES = ("kernels", "solvers", "attribution", "zero-sum")


def cmd_verify(args) -> int:
    from execsched.verify import _SUITES  # here, so the other commands never load it

    names = VERIFY_SUITES if args.suite == "all" else [args.suite]
    checks = []
    for name in names:
        # a suite yields each check as it finishes, so the wall time since
        # the previous one is the time that check took
        start = perf_counter()
        for check in _SUITES[name]():
            now = perf_counter()
            checks.append({**check, "seconds": now - start})
            start = now
    passed = all(c["passed"] for c in checks)
    sys.stdout.write(_json_text({"selector": args.suite, "passed": passed, "checks": checks}))
    return EXIT_OK if passed else EXIT_AUDIT


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="execsched",
        description="Optimal execution schedules and trading-cost attribution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a config into schedule.csv + policy.json")
    p.add_argument("config", help="run-config JSON file")
    p.add_argument("--output-dir", default=None,
                   help="defaults to $EXECSCHED_OUTPUT_DIR, then the working directory")
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser(
        "attribute", help="decompose fills into impact and timing (attribution.json)"
    )
    p.add_argument("fills", help="fills CSV: t,participant,side,qty,price")
    p.add_argument("context", help="order-context JSON file")
    p.add_argument("--formulation", choices=list(FORMULATIONS), default="simple")
    p.add_argument("--output-dir", default=None)
    p.set_defaults(handler=cmd_attribute)

    p = sub.add_parser(
        "simulate",
        help="simulate the configured schedule into distribution.json + paths.csv",
    )
    p.add_argument("config", help="run-config JSON file with a simulation block")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--paths", type=int, default=None)
    p.add_argument("--formulation", choices=list(FORMULATIONS), default=None)
    p.add_argument("--workers", type=int, default=None, help="validated; has no effect")
    p.add_argument("--side", choices=list(SIDES), default=None)
    p.add_argument("--output-dir", default=None)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("verify", help="run built-in consistency checks")
    p.add_argument("suite", choices=[*VERIFY_SUITES, "all"])
    p.set_defaults(handler=cmd_verify)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a warning as ``<Category>: <message>``, without a source location."""
    print(f"{category.__name__}: {message}", file=sys.stderr if file is None else file)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a warning prints without this file's path and line, so stderr reads the
    # same from any checkout; library callers get Python's display back on return
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.handler(args)
        except UnbalancedIntervalError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_AUDIT
        except SolverError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_SOLVER
        except (ValueError, OSError) as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_INPUT
