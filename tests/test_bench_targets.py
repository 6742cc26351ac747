"""The benchmark's traced run wraps library names listed in
bench/spans.py, and README.md cites library names by module; a name
removed from the library breaks that run or leaves the README stale."""

import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import bootperc

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"


def test_every_traced_name_resolves():
    loader = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spans)
    missing = [f"bootperc.{where}.{attr}" for where, attr, _ in spans.TARGETS
               if not hasattr(importlib.import_module(f"bootperc.{where}"),
                              attr)]
    assert not missing
    assert {owner for _, _, owner in spans.TARGETS} <= set(spans.LAYER_OF)


def test_every_module_qualified_name_in_the_readme_resolves():
    modules = {m.name for m in pkgutil.iter_modules(bootperc.__path__)}
    cited = [(where, attr) for where, attr in re.findall(
        r"`(?:bootperc\.)?(\w+)\.(\w+)", (ROOT / "README.md").read_text())
        if where in modules]
    assert cited
    missing = [f"{where}.{attr}" for where, attr in cited
               if not hasattr(importlib.import_module(f"bootperc.{where}"),
                              attr)]
    assert not missing
