"""In-memory spans around the library's public calls, for the traced run.

A `Tracer` records one span per wrapped call: name, layer, start, end,
parent span and pass id.  `Tracer.installed()` swaps the wrapped module
attributes in for the duration of a traced pass and puts the originals
back afterwards, so untraced passes run the library untouched.

Wrapping a module attribute catches every caller that looks the name up
at call time: the benchmark's own calls (`oracle.exact_pmf(...)`) and the
cross-module names a library module bound at import
(`bootperc.montecarlo.exact_stop_cdf`).  Those child spans split a
module's self time from the time it spends in the modules it calls.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

#: layer names reported per module; core and ratefun form one layer
LAYER_OF = {
    "oracle": "oracle", "process": "process", "montecarlo": "montecarlo",
    "bounds": "bounds", "_binom": "binom", "core": "core_ratefun",
    "ratefun": "core_ratefun",
}
LIBRARY_LAYERS = ("oracle", "process", "montecarlo", "bounds", "binom",
                  "core_ratefun")

# (module the name is looked up in, attribute, module that defines it)
TARGETS = [
    # entry points the benchmark calls
    ("oracle", "exact_pmf", "oracle"),
    ("oracle", "exact_stop_cdf", "oracle"),
    ("oracle", "brute_force_pmf", "oracle"),
    ("process", "final_sizes_activation", "process"),
    ("process", "final_sizes_markchain", "process"),
    ("process", "final_sizes_graph", "process"),
    ("process", "low_degree_counts", "process"),
    ("montecarlo", "estimate_tail", "montecarlo"),
    ("montecarlo", "estimate_tail_splitting", "montecarlo"),
    ("montecarlo", "rate_convergence_study", "montecarlo"),
    ("montecarlo", "poisson_distance", "montecarlo"),
    ("montecarlo", "default_stop_horizon", "montecarlo"),
    ("montecarlo", "wilson_interval", "montecarlo"),
    ("bounds", "penrose_grid_violations", "bounds"),
    ("bounds", "chernoff_lower", "bounds"),
    ("core", "critical_quantities", "core"),
    ("core", "classify_regime", "core"),
    ("ratefun", "minimize_rate", "ratefun"),
    ("ratefun", "tail_exponent", "ratefun"),
    ("ratefun", "family_from_string", "ratefun"),
    # names other modules bound at import (or look up at call time)
    ("montecarlo", "final_sizes_activation", "process"),
    ("montecarlo", "exact_stop_cdf", "oracle"),
    ("montecarlo", "_log_q_schedule", "oracle"),
    ("montecarlo", "critical_quantities", "core"),
    ("montecarlo", "classify_regime", "core"),
    ("montecarlo", "minimize_rate", "ratefun"),
    ("montecarlo", "tail_exponent", "ratefun"),
    ("process", "_vector_cascade_sizes", "process"),
    ("bounds", "log_sf_array", "_binom"),
    ("bounds", "log_cdf_array", "_binom"),
    ("bounds", "log_binom_cdf", "_binom"),
    ("bounds", "log_binom_sf", "_binom"),
    ("bounds", "entropy_H", "ratefun"),
]


class Tracer:
    """Spans kept in memory as [name, layer, start, end, parent, pass_id]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.pass_id = None

    @contextmanager
    def span(self, name: str, layer: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, layer, time.perf_counter(), None, parent,
                           self.pass_id])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][3] = time.perf_counter()

    def wrap(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def installed(self):
        """Patch every TARGETS attribute with a span-recording wrapper."""
        saved = []
        try:
            for where, attr, owner in TARGETS:
                module = importlib.import_module(f"bootperc.{where}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(
                    original, f"{owner.lstrip('_')}.{attr}", LAYER_OF[owner]))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self, pass_id) -> dict:
        """Per-layer self time of one pass: each span's duration minus the
        part its direct children cover, summed by layer."""
        child = defaultdict(float)
        for name, layer, start, end, parent, pid in self.spans:
            if pid == pass_id and parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for idx, (name, layer, start, end, parent, pid) in enumerate(self.spans):
            if pid == pass_id:
                out[layer] += (end - start) - child[idx]
        return dict(out)

    def calls(self, pass_id) -> dict:
        out = defaultdict(int)
        for name, layer, start, end, parent, pid in self.spans:
            if pid == pass_id:
                out[layer] += 1
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, layer, start, end, parent, pid in self.spans:
                fh.write(json.dumps({"name": name, "layer": layer,
                                     "start": start, "end": end,
                                     "parent": parent, "pass": pid}) + "\n")
