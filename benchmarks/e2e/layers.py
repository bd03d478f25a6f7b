"""Outside-in per-layer tracer.

The program is not instrumented for this benchmark.  Instead, a traced
run wraps the public functions listed in :data:`TARGETS` and times every
call into them.  A wrapper is installed three ways:

- on the defining module (``repro.synthesis.pipeline.pipeline_sweep``);
- on every other module in ``sys.modules`` that holds the same function
  object under any name, which catches ``from x import f`` aliases such
  as ``repro.analysis.figures.pipeline_sweep``;
- on the class, for methods (``ResultCache.get``).

Aliases are found by identity, so an unrelated object that happens to
share a name is never touched.  This module's own globals are skipped.

Each call pushes a frame on a span stack.  When it returns, its duration
is charged to its parent's child time, and its self time is its duration
minus its child time.  Spans are kept in memory and written as Chrome
trace events (chrome://tracing, ui.perfetto.dev) by :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable

#: (layer, module, qualified function name) of every wrapped function.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("pipeline", "repro.synthesis.pipeline", "pipeline_sweep"),
    ("pipeline", "repro.synthesis.pipeline", "min_period_for_stages"),
    ("pipeline", "repro.synthesis.pipeline", "stages_needed"),
    ("pipeline", "repro.synthesis.pipeline", "count_registers"),
    ("spice", "repro.spice.ensemble", "EnsembleTransient.run"),
    ("spice", "repro.spice.ensemble", "ensemble_dc_sweep"),
    ("spice", "repro.spice.ensemble", "ensemble_operating_point"),
    ("characterization", "repro.characterization.harness",
     "characterize_library"),
    ("characterization", "repro.characterization.harness",
     "characterize_cell"),
    ("characterization", "repro.characterization.harness",
     "characterize_dff"),
    ("synthesis", "repro.synthesis.generators", "complex_alu_slice"),
    ("synthesis", "repro.synthesis.generators", "simple_alu"),
    ("synthesis", "repro.synthesis.generators", "carry_select_adder"),
    ("synthesis", "repro.synthesis.generators", "extend_carry_select_adder"),
    ("mapping", "repro.synthesis.mapping", "map_cached"),
    ("mapping", "repro.synthesis.mapping", "mapped_cell_counts"),
    ("sta", "repro.synthesis.sta", "static_timing"),
    ("physical", "repro.core.physical", "core_physical"),
    ("physical", "repro.core.physical", "block_netlist"),
    ("ipc", "repro.core.superscalar", "simulate"),
    ("ipc", "repro.core.superscalar", "simulate_cached"),
    ("tradeoffs", "repro.core.tradeoffs", "make_traces"),
    ("tradeoffs", "repro.core.tradeoffs", "deepen_pipeline"),
    ("devices", "repro.devices.extraction", "fit_level1"),
    ("devices", "repro.devices.extraction", "fit_level61"),
    ("devices", "repro.devices.extraction", "characterize_curve"),
    ("cells", "repro.cells.vtc", "analyze_inverter"),
    ("cells", "repro.cells.vtc", "compute_vtc"),
    ("cache", "repro.runtime.cache", "ResultCache.get"),
    ("cache", "repro.runtime.cache", "ResultCache.put"),
    ("executor", "repro.runtime.executor", "parallel_map"),
)


def layer_names(targets=TARGETS) -> list[str]:
    return list(dict.fromkeys(layer for layer, _, _ in targets))


class Tracer:
    """Wraps the target functions and accumulates calls and self time."""

    def __init__(self, targets=TARGETS,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.targets = targets
        self.clock = clock
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        #: (name, start, end, depth) of every finished call.
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- span accounting ------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        end = self.clock()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        self.spans.append((name, start, end, len(self._stack)))

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()
        return traced

    # -- installation ---------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target and rebind every alias of it."""
        wrappers: dict[int, tuple[Callable, Callable]] = {}
        for layer, module, qual in self.targets:
            owner = importlib.import_module(module)
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            if not callable(original):
                raise TypeError(f"{module}.{qual} is not a function")
            wrapper = self.wrap(f"{layer}.{qual}", original)
            self._set(owner, attr, wrapper)
            if not path:
                wrappers[id(original)] = (original, wrapper)
        own = sys.modules[__name__]
        for module in list(sys.modules.values()):
            if module is None or module is own:
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-function and per-layer metrics over *wall_s* seconds.

        Self time is reported as a share of the wall time, so a layer a
        workload never calls reads 0 %.
        """
        out: dict[str, tuple[float, str]] = {}
        layer_s: defaultdict[str, float] = defaultdict(float)
        for layer, _, qual in self.targets:
            name = f"{layer}.{qual}"
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_pct"] = (100.0 * self.self_s[name] / wall_s, "%")
            layer_s[layer] += self.self_s[name]
        for layer in layer_names(self.targets):
            out[f"{layer}.self_pct"] = (100.0 * layer_s[layer] / wall_s, "%")
        out["other.self_pct"] = (
            100.0 * (wall_s - sum(layer_s.values())) / wall_s, "%")
        return out

    def write(self, path: Path) -> Path:
        """Write the spans as Chrome trace events (microseconds)."""
        origin = min((s for _, s, _, _ in self.spans), default=0.0)
        events = [{"name": name, "cat": name.split(".", 1)[0], "ph": "X",
                   "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                   "pid": 1, "tid": 1, "args": {"depth": depth}}
                  for name, start, end, depth in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))
        return path
