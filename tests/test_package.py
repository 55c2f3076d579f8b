"""The package namespace resolves each public name from its defining module
on first use (PEP 562); ``tests/test_cli.py::TestColdImport`` checks that
importing the package alone loads none of them."""
import importlib

import pytest

import execsched


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
