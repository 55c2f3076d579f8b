"""The package namespace resolves each public name from its defining module
on first use (PEP 562); ``tests/test_cli.py::TestColdImport`` checks that
importing the package alone loads none of them.  No module keeps a
definition that nothing uses."""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import execsched

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
PACKAGE = ROOT / "src" / "execsched"


def test_every_public_name_is_the_object_of_its_defining_module():
    names = [n for n in execsched.__all__ if n != "__version__"]
    assert len(names) == len(set(names)) == len(execsched._EXPORTS)
    for name in names:
        value = getattr(execsched, name)
        home = importlib.import_module(f"execsched.{execsched._EXPORTS[name]}")
        assert value is getattr(home, name), name
        # classes and functions also name their module
        assert getattr(value, "__module__", home.__name__) == home.__name__, name


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from execsched import *", namespace)
    assert set(execsched.__all__) <= namespace.keys()
    assert namespace["__version__"] == execsched.__version__
    assert set(execsched.__all__) <= set(dir(execsched))


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        execsched.no_such_name  # noqa: B018
    with pytest.raises(ImportError, match="no_such_name"):
        from execsched import no_such_name  # noqa: F401


def _dead_definitions(sources: dict[str, str], live: set[str]) -> set[str]:
    """Top-level functions and classes in ``sources`` (module -> source) that
    no module names outside their definition; dunders and ``live`` names are
    kept.  A name is named by a read, an attribute, an import or a string
    constant (``__all__`` entries, and the command line binds its deferred
    names by string)."""
    defined, named = set(), set()
    for source in sources.values():
        tree = ast.parse(source)
        defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        defined |= {node.name for node in tree.body if isinstance(node, defs)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    dunders = {name for name in defined if name.startswith("__") and name.endswith("__")}
    return defined - named - dunders - live


def test_no_dead_definitions():
    sources = {
        "a": "from b import f\n__all__ = ['g']\ndef f(): pass\ndef g(): pass\n"
        "def h(): pass\nclass K: pass\ndef __getattr__(name): pass\n",
        "b": "import a\na.K\ndef traced(): pass\ndef unused(): f()\n",
    }
    assert _dead_definitions(sources, {"traced"}) == {"h", "unused"}
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    sites = [*tracing.SPAN_SITES, *tracing.ROLLUP_SITES, *tracing.COUNT_SITES]
    live = set(execsched._EXPORTS) | {attr for _, attr, *_ in sites}
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    for stem in sources:
        if stem not in ("__init__", "__main__"):
            live |= set(getattr(importlib.import_module(f"execsched.{stem}"), "__all__", ()))
    assert _dead_definitions(sources, live) == set()
