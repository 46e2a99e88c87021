"""Span tracing of errant's layers from outside the package.

The tracer replaces public functions of the ``errant`` modules with wrappers
that record one span per call: name, start, end, parent span and run id.
Nothing inside the package is edited; wrappers are installed for the traced
part of a run and removed afterwards. Spans stay in memory, in flat arrays,
and are written out once at the end.

A span's layer is the module that defines the wrapped function. A layer's
self time is its spans' durations minus the time their child spans cover.
Work that a wrapped function does through code that is not wrapped, such as
``kde.sample`` building ``EmulationParams`` or the CLI building a
``SimulatedLink`` per download, counts as self time of the caller's layer.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

LAYERS = ("ingest", "profiles", "kde", "model_store", "backends", "emulator", "validation", "cli")


def _rows_and_rejects(args, result):
    return (len(result[0]) + len(result[1]), len(result[1]))


# (span name, module, class or None, attribute, counter or None). A counter
# maps a call's (args, result) to a tuple of counts kept with its span.
TARGETS = (
    ("cli.main", "errant.cli", None, "main", None),
    ("ingest.parse_speedtests", "errant.ingest", None, "parse_speedtests", _rows_and_rejects),
    ("profiles.build_profiles", "errant.profiles", None, "build_profiles",
     lambda args, result: (len(result),)),
    ("profiles.filter_profiles", "errant.profiles", None, "filter_profiles", None),
    ("profiles.dimension_stats", "errant.profiles", None, "dimension_stats", None),
    ("kde.fit", "errant.kde", None, "fit", None),
    ("kde.sample", "errant.kde", None, "sample", None),
    ("kde.sample_points", "errant.kde", None, "sample_points", None),
    ("model_store.save", "errant.model_store", None, "save",
     lambda args, result: (Path(args[1]).stat().st_size,)),
    ("model_store.load", "errant.model_store", None, "load", None),
    ("backends.render_commands", "errant.backends", None, "render_commands", None),
    ("backends.render_clear_commands", "errant.backends", None, "render_clear_commands", None),
    ("backends.apply", "errant.backends", "_CommandBackend", "apply", None),
    ("backends.clear", "errant.backends", "_CommandBackend", "clear", None),
    ("backends.execute", "errant.backends", "TcBackend", "_execute",
     lambda args, result: (len(args[1]),)),
    ("backends.execute", "errant.backends", "DryRunBackend", "_execute",
     lambda args, result: (len(args[1]),)),
    ("backends.simulate_download", "errant.backends", None, "simulate_download", None),
    ("emulator.run_fixed", "errant.emulator", None, "run_fixed", None),
    ("emulator.run_periodic", "errant.emulator", None, "run_periodic", None),
    ("emulator.run_trace", "errant.emulator", None, "run_trace", None),
    ("emulator.sample_params", "errant.emulator", None, "sample_params", None),
    ("emulator.report_text", "errant.emulator", "RunReport", "to_text", None),
    ("validation.compare_distributions", "errant.validation", None, "compare_distributions", None),
    ("validation.subsample_experiment", "errant.validation", None, "subsample_experiment", None),
    ("validation.ks_two_sample", "errant.validation", None, "ks_two_sample", None),
)


class Tracer:
    """Records spans around errant's public functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        # one entry per finished span, in the order spans end
        self.ids = array("q")
        self.parents = array("q")
        self.name_of = array("i")
        self.runs = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: dict[int, tuple] = {}  # span id -> counter output
        self.run_id = 0
        self._next_id = 0
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    def _wrap(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        stack = self._stack
        clock = time.perf_counter
        ids, parents, name_of = self.ids.append, self.parents.append, self.name_of.append
        runs, starts, ends = self.runs.append, self.starts.append, self.ends.append

        def traced(*args, **kwargs):
            span = self._next_id
            self._next_id = span + 1
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                ids(span)
                parents(parent)
                name_of(name_id)
                runs(self.run_id)
                starts(start)
                ends(end)
            if counter is not None:
                self.counts[span] = counter(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target wherever errant's modules refer to it."""
        for name, module_name, class_name, attribute, counter in TARGETS:
            module = sys.modules[module_name]
            if class_name is not None:
                owner = getattr(module, class_name)
                self._set(owner, attribute, self._wrap(name, vars(owner)[attribute], counter))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(name, original, counter)
            # modules that did ``from .x import name`` hold their own binding
            for other_name, other in list(sys.modules.items()):
                if other_name == "errant" or other_name.startswith("errant."):
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._set(other, key, wrapper)

    def _set(self, owner, attribute: str, value) -> None:
        original = vars(owner)[attribute]
        setattr(owner, attribute, value)
        self._undo.append(lambda: setattr(owner, attribute, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def write(self, path: Path) -> None:
        """Write every span as gzipped CSV, ordered by span id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        order = sorted(range(len(self.ids)), key=self.ids.__getitem__)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("span,parent,run,name,start_s,end_s,counts\n")
            for i in order:
                span = self.ids[i]
                counts = " ".join(map(str, self.counts.get(span, ())))
                handle.write(
                    f"{span},{self.parents[i]},{self.runs[i]},{self.names[self.name_of[i]]},"
                    f"{self.starts[i]!r},{self.ends[i]!r},{counts}\n"
                )


class SpanSummary:
    """Totals per span name and self time per layer, over the given runs."""

    def __init__(self, tracer: Tracer, runs: Optional[set] = None) -> None:
        self.inclusive: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, list] = {}
        # counts of child spans summed per (child name, parent name)
        self.counts_under: dict[tuple[str, str], list] = {}
        self.layer_self: dict[str, float] = defaultdict(float)
        self.spans = 0
        name_by_span = {}
        child_time: dict[int, float] = defaultdict(float)
        for i, span in enumerate(tracer.ids):
            name_by_span[span] = tracer.names[tracer.name_of[i]]
            if tracer.parents[i] >= 0:
                child_time[tracer.parents[i]] += tracer.ends[i] - tracer.starts[i]
        for i, span in enumerate(tracer.ids):
            if runs is not None and tracer.runs[i] not in runs:
                continue
            name = name_by_span[span]
            duration = tracer.ends[i] - tracer.starts[i]
            self.spans += 1
            self.inclusive[name] += duration
            self.calls[name] += 1
            self.layer_self[name.split(".", 1)[0]] += duration - child_time[span]
            if span in tracer.counts:
                _add(self.counts, name, tracer.counts[span])
                parent = name_by_span.get(tracer.parents[i])
                if parent is not None:
                    _add(self.counts_under, (name, parent), tracer.counts[span])

    def count(self, name: str, index: int = 0) -> float:
        return self.counts[name][index] if name in self.counts else 0.0


def _add(totals: dict, key, values: tuple) -> None:
    current = totals.setdefault(key, [0.0] * len(values))
    for index, value in enumerate(values):
        current[index] += value
