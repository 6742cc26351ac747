"""The benchmark's traced run wraps library names listed in
bench/spans.py; a name removed from the library breaks that run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_name_resolves():
    loader = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spans)
    missing = [f"bootperc.{where}.{attr}" for where, attr, _ in spans.TARGETS
               if not hasattr(importlib.import_module(f"bootperc.{where}"),
                              attr)]
    assert not missing
    assert {owner for _, _, owner in spans.TARGETS} <= set(spans.LAYER_OF)
