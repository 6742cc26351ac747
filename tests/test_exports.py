"""Every exported name resolves: a class or function deleted from a module
must leave its __all__ and the package imports with it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import bootperc

MODULES = sorted(m.name for m in pkgutil.iter_modules(bootperc.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"bootperc.{name}")
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    namespace = {}
    exec(f"from bootperc.{name} import *", namespace)  # noqa: S102
    assert set(exported) <= set(namespace)


def test_package_imports_resolve():
    tree = ast.parse(Path(bootperc.__file__).read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert imported
    missing = [f"{where}.{attr}" for where, attr in imported
               if not hasattr(importlib.import_module(f"bootperc.{where}"),
                              attr)
               or not hasattr(bootperc, attr)]
    assert missing == []
