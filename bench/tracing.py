"""In-memory tracing by wrapping the names each layer imports.

The program is not edited.  A :class:`Tracer` replaces module attributes
such as ``execsched.cli.solve_liquidity`` or ``execsched.dp.mills_psi`` with
wrappers that record one span per call (name, start, end, parent span, op id)
and counts at the same boundary, and puts the originals back on
:meth:`Tracer.uninstall`.  Because a module looks its globals up at call
time, patching the importing module's name catches every call made through
it.

``execsched.models.step`` runs once per path and stage (about 400k calls per
simulate op); its wrapper keeps a count and summed duration per enclosing
span instead of one span each, so that the trace stays small.
"""
from __future__ import annotations

import importlib
import json
import os
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, span name, layer) for every wrapped call site.
SPAN_SITES = (
    ("execsched.cli", "solve_benchmark_simple", "dp.solve_benchmark_simple", "dp"),
    ("execsched.cli", "solve_benchmark_complex", "dp.solve_benchmark_complex", "dp"),
    ("execsched.cli", "solve_ar1_simple", "dp.solve_ar1_simple", "dp"),
    ("execsched.cli", "solve_ar1_complex", "dp.solve_ar1_complex", "dp"),
    ("execsched.cli", "solve_gbm_simple", "gbm.solve_gbm_simple", "gbm"),
    ("execsched.cli", "solve_liquidity", "liquidity.solve_liquidity", "liquidity"),
    ("execsched.cli", "evaluate_policy", "simulate.evaluate_policy", "simulate"),
    ("execsched.cli", "estimate_objective", "simulate.estimate_objective", "simulate"),
    ("execsched.cli", "momentum_volatility_buckets",
     "simulate.momentum_volatility_buckets", "simulate"),
    ("execsched.cli", "zero_sum_audit", "attribution.zero_sum_audit", "attribution"),
    ("execsched.cli", "attribute", "attribution.attribute", "attribution"),
    ("execsched.cli", "load_fills", "cli.load_fills", "cli"),
    ("execsched.cli", "_write_output", "cli.write_output", "cli"),
    ("execsched.dp", "mills_psi", "kernels.mills_psi", "kernels"),
    ("execsched.dp", "mills_psi_prime", "kernels.mills_psi_prime", "kernels"),
    ("execsched.dp", "_mills_psi_second", "kernels.mills_psi_second", "kernels"),
    ("execsched.gbm", "_mixture_expectation_gh", "kernels.mixture_expectation_gh", "kernels"),
    ("execsched.gbm", "_lognormal_shift_conditional",
     "kernels.lognormal_shift_conditional", "kernels"),
    ("execsched.liquidity", "mills_psi", "kernels.mills_psi", "kernels"),
    ("execsched.liquidity", "mills_psi_prime", "kernels.mills_psi_prime", "kernels"),
    ("execsched.liquidity", "gauss_hermite", "kernels.gauss_hermite", "kernels"),
    ("execsched.simulate", "_simulate", "simulate.generate_paths", "simulate"),
    ("execsched.simulate", "path_costs", "attribution.path_costs", "attribution"),
)
ROLLUP_SITES = (("execsched.simulate", "step", "models.step", "models"),)
# Counted only: it runs inside ``step``, whose rollup already holds its time.
COUNT_SITES = (("execsched.models", "ar1_volume_update", "models.ar1_volume_update", "models"),)

_SOLVER_MODEL = {
    "dp.solve_benchmark_simple": "benchmark",
    "dp.solve_benchmark_complex": "benchmark",
    "dp.solve_ar1_simple": "ar1",
    "dp.solve_ar1_complex": "ar1",
    "gbm.solve_gbm_simple": "linear_percentage",
    "liquidity.solve_liquidity": "liquidity",
}


def _elements(name: str, args) -> int:
    """Values a kernel call returns, from the shapes of its array arguments."""
    if name.startswith("kernels.mills"):
        return int(np.size(args[0]))
    if name in ("kernels.mixture_expectation_gh", "kernels.lognormal_shift_conditional"):
        return int(np.broadcast(*(np.asarray(a) for a in args[:5])).size)
    return 0


class Tracer:
    """Spans and counts for one traced run, kept in memory until :meth:`write`."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent, op, calls]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        # (name, layer, parent, op) -> [calls, summed seconds]
        self._rollups: dict = defaultdict(lambda: [0, 0.0])
        self._patched: list[tuple] = []
        self.op: str | None = None
        self.model: str | None = None

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str, layer: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, perf_counter(), None, parent, self.op, 1])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][3] = perf_counter()
        self._stack.pop()

    def _span_wrapper(self, fn, name: str, layer: str):
        model = _SOLVER_MODEL.get(name)

        def wrapper(*args, **kwargs):
            outer_model = self.model
            if model is not None:
                self.model = model
            sid = self.begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
                self.model = outer_model
            self._count(name, args, result, model)
            return result

        return wrapper

    def _rollup_wrapper(self, fn, name: str, layer: str):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            acc = self._rollups[(name, layer, parent, self.op)]
            acc[0] += 1
            acc[1] += perf_counter() - t0
            return result

        return wrapper

    def _volume_update_counter(self, fn, name: str, layer: str):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts["models.volume_updates"] += 1
            self.counts["models.volume_clamps"] += result[1]
            return result

        return wrapper

    def _count(self, name: str, args, result, model) -> None:
        c = self.counts
        if name.startswith("kernels."):
            where = self.model or "none"
            c[f"kernels.calls.{where}"] += 1
            c[f"kernels.elems.{where}"] += _elements(name, args)
            # a probe of the stage T-1 expectation evaluates psi on the
            # (nodes, price, volume) tensor
            if where == "liquidity" and name == "kernels.mills_psi" and np.ndim(args[0]) == 3:
                c["liquidity.probes"] += 1
        elif model is not None:
            table = result[1]
            c[f"dp.node_stages.{model}"] += table.horizon_length * table.metadata["grid_nodes"]
        elif name == "cli.load_fills":
            c["cli.fills_loaded"] += len(result[0])
        elif name == "attribution.zero_sum_audit":
            c["attribution.audit_fills"] += len(args[0])
            c["attribution.orders"] += len(result.reports)
        elif name == "attribution.path_costs":
            c["attribution.paths_costed"] += int(np.shape(args[0])[0])
        elif name == "simulate.generate_paths":
            c["simulate.paths_generated"] += args[0].n_paths
        elif name == "cli.write_output":
            outdir, fname = args[0], args[1]
            c[f"cli.bytes_written.{self.op_kind}"] += os.path.getsize(os.path.join(outdir, fname))

    @property
    def op_kind(self) -> str:
        return (self.op or "none").split(".")[0]

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        for sites, make in (
            (SPAN_SITES, self._span_wrapper),
            (ROLLUP_SITES, self._rollup_wrapper),
            (COUNT_SITES, self._volume_update_counter),
        ):
            for module_name, attr, name, layer in sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                setattr(module, attr, make(original, name, layer))
                self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def records(self) -> list[dict]:
        """Every span, then one record per rolled-up name and parent span.

        A rolled-up record starts where its parent starts and lasts the
        summed duration of its calls; ``calls`` gives their number.
        """
        out = [
            {"id": i, "name": n, "layer": layer, "start": t0, "end": t1,
             "parent": p, "op": op, "calls": calls}
            for i, (n, layer, t0, t1, p, op, calls) in enumerate(self.spans)
        ]
        for (name, layer, parent, op), (calls, total) in self._rollups.items():
            start = self.spans[parent][2] if parent >= 0 else 0.0
            out.append({"id": len(out), "name": name, "layer": layer, "start": start,
                        "end": start + total, "parent": parent, "op": op, "calls": calls,
                        "rollup": True})
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"counts": dict(self.counts)}, f)
            f.write("\n")
            for rec in self.records():
                f.write(json.dumps(rec) + "\n")


def self_times(records: list[dict]) -> dict[int, float]:
    """Each span's duration minus the summed durations of its child spans.

    Calls in one process are sequential, so child spans never overlap and
    their summed duration is the part of the parent interval they cover.
    """
    child = defaultdict(float)
    for r in records:
        if r["parent"] >= 0:
            child[r["parent"]] += r["end"] - r["start"]
    return {r["id"]: (r["end"] - r["start"]) - child[r["id"]] for r in records}
