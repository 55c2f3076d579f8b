"""Every call site the benchmark's tracer wraps must resolve in the package.

``bench/tracing.py`` replaces module attributes such as
``execsched.dp.mills_psi`` by name.  A refactor that drops one of those
imports should fail here rather than in a traced benchmark run.
"""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_site_resolves():
    tracing = _load_tracing()
    sites = [*tracing.SPAN_SITES, *tracing.ROLLUP_SITES, *tracing.COUNT_SITES]
    assert sites
    missing = [
        (module, attr)
        for module, attr, *_ in sites
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
