"""Every exported name resolves: a class or function deleted from a module
must leave its __all__ and the package imports with it.  And the imports
keep to the declared dependencies."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import bootperc
from bootperc import errors

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


def _imported_packages(path: Path):
    """Top-level package of every absolute import statement in `path`."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_library_imports_no_scipy_and_tests_no_mpmath():
    # numpy is the only runtime dependency; mpmath is no dependency at all;
    # the sampler threads need no concurrent.futures, whose import (logging
    # with it) a fresh process would pay on its first threaded batch
    library = sorted(Path(bootperc.__file__).parent.rglob("*.py"))
    tests = sorted(Path(__file__).parent.glob("*.py"))
    assert len(library) > 5 and len(tests) > 5
    found = [(path.name, package)
             for paths, banned in ((library, "scipy"), (library, "concurrent"),
                                   (tests, "mpmath"))
             for path in paths for package in _imported_packages(path)
             if package == banned]
    assert found == []


def test_library_raises_only_package_errors():
    # the CLI maps each BootpercError to its exit code; any other exception
    # would end in a traceback
    allowed = {name for name, obj in vars(errors).items()
               if isinstance(obj, type)
               and issubclass(obj, errors.BootpercError)}
    # process._map_chunks passes on the first exception that a chunk's fill
    # raised on a worker thread, as the thread pool before it did; it makes
    # no exception of its own
    passed_on = {("process.py", "failed[0]")}
    found, raised = [], set()
    for path in sorted(Path(bootperc.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                name = ast.unparse(exc) if exc is not None else "re-raise"
                raised.add(name)
                if name not in allowed \
                        and (path.name, name) not in passed_on:
                    found.append((path.name, node.lineno, name))
    assert len(allowed) > 5
    assert found == []
    # and conversely every subclass, with its exit code, is raised somewhere
    assert allowed - {"BootpercError"} <= raised
