"""Every call site the benchmark's tracer wraps must resolve in the package.

``bench/tracing.py`` replaces module attributes such as
``execsched.dp.mills_psi`` by name.  A refactor that drops one of those
imports should fail here rather than in a traced benchmark run.  The other
way round, an import a module leaves unused must be one the tracer wraps
there; any other is dead.
"""
import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
PACKAGE = ROOT / "src" / "execsched"


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


def _unused_imports(source: str) -> set[str]:
    """Names the module ``source`` imports and never reads; ``__all__`` reads its entries."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return imported - read


def test_unused_imports_are_wrapped_sites():
    source = "import os.path\nfrom a import b, c as d, e\n__all__ = ['b']\nos.sep\n"
    assert _unused_imports(source) == {"d", "e"}
    tracing = _load_tracing()
    sites = [*tracing.SPAN_SITES, *tracing.ROLLUP_SITES, *tracing.COUNT_SITES]
    stray = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = "execsched" if path.stem == "__init__" else f"execsched.{path.stem}"
        wrapped = {attr for name, attr, *_ in sites if name == module}
        unused = _unused_imports(path.read_text()) - wrapped
        if unused:
            stray[module] = sorted(unused)
    assert stray == {}
