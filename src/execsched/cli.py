"""Command-line entry points: solve, attribute, simulate, verify.

Configs and reports are JSON, tabular data is CSV.  Every number written
out uses the shortest representation that parses back to the same float,
so outputs can be diffed and round-tripped byte-exactly.

Exit codes are stable across commands: 0 success, 2 input problem (schema
violation, malformed file, unknown selector), 3 solver failure, 4 audit
failure (unbalanced fills, broken zero-sum, failed verify suite).

``solve``, ``attribute`` and ``simulate`` write their artifacts plus a
``manifest.json`` carrying the command, input digests, seed, library
version, timestamps and the sha256 of each output.  JSON outputs embed
the manifest's ``run_id`` (a digest of the command and its effective
inputs, no clock, so reruns reproduce it); CSV outputs keep their strict
column schema and are bound to the run by their digest in the manifest.
The only environment knob is EXECSCHED_OUTPUT_DIR, an output-directory
fallback for runs that do not pass --output-dir.
"""
import argparse
import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import sys
import warnings
from collections.abc import Iterator
from datetime import datetime, timezone
from time import perf_counter

import numpy as np
from scipy.special import ndtr

from execsched import __version__
from execsched.attribution import (
    FORMULATIONS,
    SIDES,
    Fill,
    OrderContext,
    UnbalancedIntervalError,
    _FillColumns,
    _int_column,
    attribute,
    zero_sum_audit,
)
from execsched.dp import (
    ClosedLinearPolicy,
    Horizon,
    MillsRecursionProblem,
    RecursionConfig,
    Schedule,
    SolverError,
    approximate_recursion,
    solve_ar1_complex,
    solve_ar1_simple,
    solve_benchmark_complex,
    solve_benchmark_simple,
)
from execsched.gbm import solve_gbm_simple
from execsched.kernels import Gaussian, mills_psi, mills_psi_prime, nln_mixture_expectation
from execsched.liquidity import solve_liquidity
from execsched.models import (
    Ar1Extra,
    Benchmark,
    LinearPercentage,
    Liquidity,
    MarketState,
    Spread,
)
from execsched.simulate import (
    STREAM_VERSION,
    SimConfig,
    estimate_objective,
    evaluate_policy,
    momentum_volatility_buckets,
    simulate_paths,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_AUDIT = 4

FILLS_HEADER = ["t", "participant", "side", "qty", "price"]
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
_SOLVER_FIELDS = {f.name for f in dataclasses.fields(RecursionConfig)}


class SchemaError(ValueError):
    """Input-file violation; the message leads with the offending field path."""

    def __init__(self, path: str, problem: str):
        self.path = path
        super().__init__(f"{path}: {problem}" if path else problem)


# ---------------------------------------------------------------------------
# Schema walking.
# ---------------------------------------------------------------------------


def _obj(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected an object, got {type(value).__name__}")
    return value


def _num(value, path: str, *, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise SchemaError(path, f"must be finite, got {value!r}")
    if positive and v <= 0.0:
        raise SchemaError(path, f"must be > 0, got {value!r}")
    return v


def _intval(value, path: str, *, lo: int | None = None, hi: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {value!r}")
    if lo is not None and value < lo:
        raise SchemaError(path, f"must be >= {lo}, got {value}")
    if hi is not None and value >= hi:
        raise SchemaError(path, f"must be < {hi}, got {value}")
    return value


def _choice(value, path: str, options) -> str:
    if value not in options:
        raise SchemaError(path, f"expected one of {sorted(options)}, got {value!r}")
    return value


def _required(obj: dict, key: str, path: str):
    if key not in obj:
        raise SchemaError(f"{path}.{key}" if path else key, "required field is missing")
    return obj[key]


def _no_unknown(obj: dict, path: str, allowed) -> None:
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}" if path else str(key), "unknown field")


def _parse_json(raw: bytes, label: str):
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise SchemaError(label, f"not valid UTF-8 ({e})") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(label, f"invalid JSON: {e}") from None
    except ValueError:  # int() refuses a literal past the interpreter's digit limit
        raise SchemaError(
            label,
            f"an integer literal is too long (over {sys.get_int_max_str_digits()} digits)",
        ) from None


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


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
        _no_unknown(sv, "solver", _SOLVER_FIELDS)
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


def canonical_json(cfg: dict) -> str:
    return json.dumps(cfg, indent=2, sort_keys=True) + "\n"


def build_model(cfg: dict):
    try:
        return _MODEL_TYPES[cfg["model"]](**cfg["params"])
    except ValueError as e:
        raise SchemaError("params", str(e)) from None


def build_horizon(cfg: dict) -> Horizon:
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
        return solve_gbm_simple(model, horizon, state, config=rc)
    if formulation != "simple":
        raise SchemaError(
            "formulation", "the liquidity law solves the trade-weighted objective only"
        )
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
    if is_dict:
        # '{"key": null}' less its brace and 'null}' is the key and its separator
        items = (enc.encode({k: None})[1:-5] + _json_block(v, depth + 1) for k, v in o.items())
    else:
        items = (_json_block(v, depth + 1) for v in o)
    return ("{" if is_dict else "[") + pad + enc.item_separator.join(items) + close


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
    if isinstance(stage, ClosedLinearPolicy):
        return {"kind": "closed-linear", "fraction": stage.fraction}
    return {
        "kind": "interpolated",
        "interpolation": "pchip",
        "residual_grid": stage.grid.tolist(),
        "trades": stage.trades.tolist(),
    }


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
        outputs=[schedule_entry, policy_entry],
        phases_s=_phases(started, loaded, computed),
    )
    print(f"wrote schedule.csv, policy.json, manifest.json to {outdir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# attribute
# ---------------------------------------------------------------------------


def _validate_context(doc) -> dict:
    ctx = _obj(doc, "context")
    _no_unknown(ctx, "context", {"arrival_price", "total_shares", "horizon", "price_path"})
    arrival = _num(_required(ctx, "arrival_price", "context"),
                   "context.arrival_price", positive=True)
    horizon = _intval(_required(ctx, "horizon", "context"), "context.horizon", lo=1)
    raw_path = _required(ctx, "price_path", "context")
    if not isinstance(raw_path, list):
        raise SchemaError("context.price_path", f"expected a list, got {raw_path!r}")
    if len(raw_path) != horizon + 1:
        raise SchemaError(
            "context.price_path",
            f"needs horizon + 1 = {horizon + 1} prices, got {len(raw_path)}",
        )
    path = tuple(
        _num(p, f"context.price_path[{i}]", positive=True)
        for i, p in enumerate(raw_path)
    )
    if not math.isclose(arrival, path[0], rel_tol=1e-12):
        raise SchemaError(
            "context.arrival_price", f"must equal price_path[0] = {path[0]}"
        )
    total = None
    if ctx.get("total_shares") is not None:
        total = _num(ctx["total_shares"], "context.total_shares", positive=True)
    return {
        "arrival_price": arrival,
        "total_shares": total,
        "horizon": horizon,
        "price_path": path,
    }


def _fill_row_problem(t, participant, side, qty, price) -> str | None:
    """Why one fills row is rejected, or None when it is valid."""
    try:
        t = int(t)
    except ValueError:
        return f"t: not an integer: {t!r}"
    try:
        qty, price = float(qty), float(price)
    except ValueError:
        return f"qty/price: not a number: {qty!r}, {price!r}"
    try:
        Fill(t=t, price=price, qty=qty, side=side, participant=participant)
    except ValueError as e:
        return str(e)
    return None


def _record_line(text: str, index: int) -> int:
    """Physical line on which the index-th nonblank record after the header starts."""
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)
    start = reader.line_num + 1
    for row in reader:
        if row:
            if index == 0:
                break
            index -= 1
        start = reader.line_num + 1
    return start


def _first_bad_fill(cols: _FillColumns) -> int:
    """Index of the first fill that a column check rejects, or ``len(cols)``."""
    pair_ok = np.array([side in SIDES and who != "" for who, side in cols.orders], dtype=bool)
    bad = ~(
        (cols.t >= 1)
        & np.isfinite(cols.qty) & (cols.qty > 0.0)
        & np.isfinite(cols.price) & (cols.price > 0.0)
        & pair_ok[cols.order]
    )
    return int(np.argmax(bad)) if bad.any() else len(cols)


# ASCII bytes of a fills file that send it to the csv route: numpy does not
# read quotes and CR as csv does, it strips \x1c-\x1f around a number, which
# int() and float() reject, and a fixed-width string field drops trailing NULs
_CSV_ONLY_BYTES = (b'"', b"\r", b"\x1c", b"\x1d", b"\x1e", b"\x1f", b"\x00")
_PLAIN_HEADER = (",".join(FILLS_HEADER) + "\n").encode("ascii")
# The plain route reads participant and side at the width of the longest line,
# so its records take more memory the more that line outgrows the others.  A
# fill's line holds at least 12 bytes ("1,a,buy,1,1" and a newline), so when
# every line is about as long as the longest the records take under 4 bytes per
# byte of the file.  A file whose records would take more than this many bytes
# per file byte (a few very long lines among short ones) goes to the csv route,
# whose strings take each field's own length.
_PLAIN_RECORD_BYTES_PER_FILE_BYTE = 8


def _plain_fill_columns(raw: bytes) -> _FillColumns | None:
    """The columns of an ASCII fills file that starts with the header line and
    holds none of ``_CSV_ONLY_BYTES``, read after the header by numpy's C
    tokenizer; None when a record does not parse, a row fails a check or the
    records would outgrow ``_PLAIN_RECORD_BYTES_PER_FILE_BYTE``.

    On such a file ``loadtxt`` splits records and fields as ``csv.reader``
    does, skips blank lines, rejects a record that is not 5 fields wide and
    parses a number to the value ``int()``/``float()`` give or not at all, so
    the columns are those of the csv route, which words every error.
    Participant and side are read as bytes as wide as the longest line (the
    last one counts without a newline), so no field is cut short, and one
    stable ``np.unique`` over each record's (participant, side) bytes codes
    the orders.
    """
    body = np.frombuffer(raw, np.uint8, offset=len(_PLAIN_HEADER))
    lengths = np.diff(np.flatnonzero(body == ord("\n")), prepend=-1, append=len(body)) - 1
    width = max(int(lengths.max()), 1)
    dtype = np.dtype([
        ("t", "i8"), ("participant", f"S{width}"), ("side", f"S{width}"),
        ("qty", "f8"), ("price", "f8"),
    ])
    if len(lengths) * dtype.itemsize > _PLAIN_RECORD_BYTES_PER_FILE_BYTE * len(raw):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a file with no record only warns
        try:
            rec = np.loadtxt(
                io.BytesIO(raw), dtype=dtype, delimiter=",", comments=None,
                skiprows=1, ndmin=1, encoding="latin1",
            )
        except (ValueError, Warning):
            return None
    # participant and side lie side by side in a record: key each fill on
    # their bytes, then number the keys in order of first appearance
    pair = np.dtype({
        "names": ["pair"], "formats": [f"V{2 * width}"],
        "offsets": [dtype.fields["participant"][1]], "itemsize": dtype.itemsize,
    })
    _, first, inverse = np.unique(rec.view(pair)["pair"], return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    cols = _FillColumns(
        t=rec["t"].copy(),
        qty=rec["qty"].copy(),
        price=rec["price"].copy(),
        order=np.argsort(by_first)[inverse],
        orders=tuple(
            (who.decode("ascii"), side.decode("ascii"))
            for who, side in rec[["participant", "side"]][first[by_first]].tolist()
        ),
    )
    return cols if _first_bad_fill(cols) == len(cols) else None


def _csv_fill_columns(text: str) -> _FillColumns:
    """The columns of a fills text parsed by ``csv``.

    Errors name the physical line on which the first bad record starts.
    csv's field size limit (131072 characters by default) is lifted to the
    text's length for the read, since the numpy route has none, and put back
    afterwards.
    """
    limit = csv.field_size_limit(max(csv.field_size_limit(), len(text)))
    try:
        reader = csv.reader(io.StringIO(text, newline=""))
        header = next(reader, None)
        if header is None:
            raise SchemaError("fills", "empty file")
        if header != FILLS_HEADER:
            raise SchemaError(
                "fills",
                "header must be exactly "
                f"'{','.join(FILLS_HEADER)}', got '{','.join(header)}'",
            )
        t_raw, qty_raw, price_raw, order = [], [], [], []
        codes: dict[tuple[str, str], int] = {}
        width = None
        for row in reader:
            if len(row) == 5:
                t_raw.append(row[0])
                qty_raw.append(row[3])
                price_raw.append(row[4])
                order.append(codes.setdefault((row[1], row[2]), len(codes)))
            elif row:
                # the rows before it are checked first, so the earliest bad line is named
                width = len(row)
                break
        n = len(t_raw)
        if not n and width is None:
            raise SchemaError("fills", "no fill rows after the header")
        orders = tuple(codes)
        try:
            cols = _FillColumns(
                t=_int_column(t_raw),
                qty=np.fromiter(map(float, qty_raw), np.float64, n),
                price=np.fromiter(map(float, price_raw), np.float64, n),
                order=np.array(order, dtype=np.intp),
                orders=orders,
            )
        except ValueError:
            first_bad = 0
        else:
            first_bad = _first_bad_fill(cols)
            if first_bad == n and width is None:
                return cols
        # a value did not parse, a mask caught a row or a record has the wrong
        # width: the row checks word the error of the first bad row
        for i in range(first_bad, n):
            problem = _fill_row_problem(t_raw[i], *orders[order[i]], qty_raw[i], price_raw[i])
            if problem is not None:
                raise SchemaError(f"fills line {_record_line(text, i)}", problem)
        raise SchemaError(
            f"fills line {_record_line(text, n)}", f"expected 5 columns, got {width}"
        )
    finally:
        csv.field_size_limit(limit)


def _parse_fills(raw: bytes) -> _FillColumns:
    """The columns of a fills CSV (strict header).

    An ASCII file that starts with the header line and holds none of
    ``_CSV_ONLY_BYTES`` goes through :func:`_plain_fill_columns`; any other
    file, and any file that route turns down, is decoded and goes through
    :func:`_csv_fill_columns`, which words every error.  Both give the same
    columns.  (numpy's int64 reader takes many non-ASCII characters for
    digits, so a non-ASCII file never reaches it.)
    """
    if (
        raw.startswith(_PLAIN_HEADER)
        and raw.isascii()
        and not any(b in raw for b in _CSV_ONLY_BYTES)
    ):
        cols = _plain_fill_columns(raw)
        if cols is not None:
            return cols
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as e:
        raise SchemaError("fills", f"not valid UTF-8 ({e})") from None
    return _csv_fill_columns(text)


def load_fills(path: str) -> tuple[_FillColumns, str]:
    """Parse a fills CSV (strict header) into columns; also return the file digest."""
    raw = _read_bytes(path)
    return _parse_fills(raw), hashlib.sha256(raw).hexdigest()


def cmd_attribute(args) -> int:
    started = perf_counter()
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


def _check(name: str, passed, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _verify_kernels() -> Iterator[dict]:
    v = mills_psi(-30.0)
    yield _check(
        "psi-deep-tail",
        abs(v / 0.03325966743367704 - 1.0) < 1e-12,
        f"psi(-30) = {v}",
    )
    v = 7.0 * mills_psi(7.0)
    yield _check(
        "psi-near-linear-tail",
        abs(v / 49.00000000006394 - 1.0) < 1e-13,
        f"7*psi(7) = {v}",
    )
    # E[exp(0.3 Z)] for the quadrature rule against the exact moment
    from execsched.kernels import gauss_hermite

    moment = gauss_hermite(48).expect(lambda z: np.exp(0.3 * z))
    yield _check(
        "gauss-hermite-moment",
        abs(moment / math.exp(0.045) - 1.0) < 1e-12,
        f"E[exp(0.3 Z)] = {moment}",
    )
    # mixture kernel against the closed form of its nearly-degenerate-Y limit
    mu_x, sig_x, mu_y, k = 0.0, 0.1, 1010.0, -1000.0
    mix = nln_mixture_expectation(Gaussian(mu_x, sig_x), Gaussian(mu_y, 1e-6), k)
    z = (math.log(-k / mu_y) - mu_x) / sig_x
    p = ndtr(-z)
    closed = (mu_y * math.exp(mu_x + sig_x**2 / 2) * ndtr(sig_x - z) + k * p) / p
    yield _check(
        "mixture-degenerate-limit",
        abs(mix / closed - 1.0) < 1e-6,
        f"mixture {mix} vs closed {closed}",
    )


def _verify_solvers() -> Iterator[dict]:
    from scipy.integrate import quad  # here, so importing the CLI leaves scipy.integrate out

    T = 6
    table = approximate_recursion(MillsRecursionProblem.uniform(Horizon(T, 10.0), 2.0, 1.0))
    worst = 0.0
    for t in range(1, T):
        grid = table.value_samples[t - 1][:, 0]
        lin = grid / (T - t + 1)
        pol = np.array([table.trade_at(t, w) for w in grid])
        worst = max(worst, float(np.max(np.abs(pol - lin) / lin)))
    yield _check(
        "linear-law-equal-split",
        worst < 1e-6,
        f"worst relative policy error {worst}",
    )

    params = Ar1Extra(theta=1.0, gamma=0.5, rho=0.9, sigma_eps=1.0, sigma_eta=1.0)
    _, table = solve_ar1_simple(params, Horizon(2, 1.0), 1.0)
    closed = float(table.value_samples[0][-1, 1])
    beta = math.hypot(0.5 * 1.0, 1.0)
    mu = 1.0 * (1.0 / 2) + 0.5 * 0.9 * 1.0
    dens = lambda y: math.exp(-0.5 * ((y - mu) / beta) ** 2)  # noqa: E731
    num, _ = quad(lambda y: y * dens(y), 0.0, np.inf, epsabs=1e-13, epsrel=1e-13)
    den, _ = quad(dens, 0.0, np.inf, epsabs=1e-13, epsrel=1e-13)
    v_quad = 1.0 * num / den
    rel = abs(closed / v_quad - 1.0)
    yield _check(
        "ar1-closed-vs-quadrature",
        rel < 1e-8,
        f"closed {closed} vs quadrature {v_quad} (rel {rel})",
    )

    theta, sigma, W = 5.0, 1.0, 1.0
    sched, _ = solve_benchmark_complex(Benchmark(theta, sigma), Horizon(2, W))
    s = sched.trades[0]
    u1, u2 = theta * s / sigma, theta * (W - s) / sigma
    terms = (
        W * theta * mills_psi_prime(u1),
        -sigma * mills_psi(u2),
        -theta * (W - s) * mills_psi_prime(u2),
    )
    resid = math.fsum(terms)
    scale = max(1.0, *(abs(t) for t in terms))
    yield _check(
        "penultimate-foc-residual",
        abs(resid) <= 1e-8 * scale,
        f"FOC residual {resid} at S_1 = {s} (scale {scale})",
    )

    lparams = Liquidity(
        alpha=0.01, theta=0.05, gamma=0.02, rho=0.5, sigma_eps=0.5, sigma_eta=10.0
    )
    lstate = MarketState(price=100.0, aux=50.0)
    values = []
    for order in (40, 80):
        _, lt = solve_liquidity(
            lparams, Horizon(2, 20.0), lstate, config=RecursionConfig(quad_order=order)
        )
        values.append(float(lt.value_samples[0][-1, 1]))
    rel = abs(values[0] / values[1] - 1.0)
    yield _check(
        "liquidity-quadrature-stability",
        rel < 1e-6,
        f"order 40 {values[0]} vs order 80 {values[1]} (rel {rel})",
    )


def _verify_attribution() -> Iterator[dict]:
    up = OrderContext(
        arrival_price=100.0,
        total_shares=10.0,
        horizon=4,
        price_path=(100.0, 101.0, 103.0, 106.0, 110.0),
    )
    fills = [
        Fill(t=t, price=p, qty=q, side="buy")
        for t, p, q in zip((1, 2, 3, 4), up.price_path[1:], (4.0, 3.0, 2.0, 1.0))
    ]
    rep = attribute(up, fills, "complex")
    yield _check(
        "monotone-up-timing-vanishes",
        rep.timing == 0.0,
        f"complex timing {rep.timing} on a monotone adverse path",
    )
    dip = OrderContext(
        arrival_price=100.0,
        total_shares=10.0,
        horizon=4,
        price_path=(100.0, 103.0, 101.0, 99.0, 104.0),
    )
    fills = [
        Fill(t=t, price=p, qty=q, side="buy")
        for t, p, q in zip((1, 2, 3, 4), dip.price_path[1:], (4.0, 3.0, 2.0, 1.0))
    ]
    rep = attribute(dip, fills, "complex")
    yield _check(
        "dip-timing-is-residual-weighted-drop",
        rep.timing == -18.0,
        f"complex timing {rep.timing}, expected -18.0",
    )


def _verify_zero_sum() -> Iterator[dict]:
    rng = np.random.default_rng(np.random.Philox(20260814))
    all_passed = True
    worst = 0.0
    for _ in range(50):
        T = int(rng.integers(1, 6))
        steps = rng.normal(0.0, 0.02, T)
        path = (100.0 * np.exp(np.concatenate(([0.0], np.cumsum(steps))))).tolist()
        fills = []
        for t in range(1, T + 1):
            qty = float(rng.uniform(1.0, 10.0))
            price = path[t]
            for prefix, n in (("b", int(rng.integers(1, 3))), ("s", int(rng.integers(1, 3)))):
                side = "buy" if prefix == "b" else "sell"
                for i, frac in enumerate(rng.dirichlet(np.ones(n))):
                    if frac > 0.0:
                        fills.append(
                            Fill(
                                t=t,
                                price=price,
                                qty=qty * float(frac),
                                side=side,
                                participant=f"{prefix}{i}",
                            )
                        )
        for formulation in FORMULATIONS:
            audit = zero_sum_audit(fills, path, formulation)
            all_passed = all_passed and audit.passed
            worst = max(worst, abs(audit.residual) / audit.tolerance)
    yield _check(
        "randomized-balanced-markets",
        all_passed,
        f"50 markets x both formulations; worst |residual|/tolerance {worst}",
    )


_SUITES = {
    "kernels": _verify_kernels,
    "solvers": _verify_solvers,
    "attribution": _verify_attribution,
    "zero-sum": _verify_zero_sum,
}


def cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
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
    p.add_argument("suite", choices=[*_SUITES, "all"])
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
