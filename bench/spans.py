"""In-memory span tracer installed on the grushin modules from outside.

`Tracer.install` replaces every public function of each layer module with a
wrapper that records one span per call, on every `grushin.*` module attribute
bound to that function.  Re-imports such as `grushin.minimizer.solve_radial`
are rebound too, so calls between layers are seen as long as the caller looks
the function up through a module attribute at call time.

A span holds its name (`<layer>.<function>`), start and end, the index of the
span that was open when it began, the pass it belongs to, and a work count for
the few functions whose work has a natural size (radial nodes, report rows,
emitted characters).  Spans stay in memory until `write` dumps them as JSON
lines.  Spans recorded inside worker processes (the `--jobs 2` sweep) stay in
those processes and are not collected.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

LAYERS = ("radial", "minimizer", "asymptotics", "planar", "tables", "cli")


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    pass_id: int
    count: int


def _emitted_chars(args, kwargs):
    """Characters an emit_csv/emit_svg call writes, to stdout or to a file."""
    path = args[1] if len(args) > 1 else kwargs.get("path")
    if path in (None, "-"):
        start = sys.stdout.tell()
        return lambda result: sys.stdout.tell() - start
    return lambda result: os.path.getsize(path)


#: Work counters: called with the call's arguments before it runs, they return
#: a function of the result that gives the span's count.
COUNTERS = {
    "radial.solve_radial": lambda args, kwargs: lambda result: args[0].n,
    "asymptotics.convergence_report": lambda args, kwargs: lambda result: len(result.rows),
    "tables.emit_csv": _emitted_chars,
    "tables.emit_svg": _emitted_chars,
}


class Tracer:
    """Collects spans while `active`; `pass_id` tags each span with its pass."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.active = False
        self.pass_id = -1
        self._open: list[int] = []
        self._bound: list[tuple] = []

    def install(self) -> None:
        """Wrap each layer's public functions wherever a grushin module binds them."""
        self.uninstall()
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"grushin.{layer}"]
            for name, fn in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for module_name, module in list(sys.modules.items()):
            if module_name != "grushin" and not module_name.startswith("grushin."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._bound.append((module, attr, value))

    def uninstall(self) -> None:
        """Put the original functions back."""
        for module, attr, original in self._bound:
            setattr(module, attr, original)
        self._bound = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append(None)
            self._open.append(index)
            count_of = counter(args, kwargs) if counter else None
            result, done = None, False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                self._open.pop()
                count = count_of(result) if count_of and done else 0
                self.spans[index] = Span(name, start, end, parent, self.pass_id, count)

        return traced

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


@dataclass
class PassSummary:
    """Per-pass totals of the spans: calls, self seconds and work counts by name.

    `nested[(outer, inner)]` counts spans named inner that ran inside a span
    named outer.
    """

    calls: Counter
    self_s: defaultdict
    count: Counter
    nested: Counter


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list[Span], pass_ids) -> list[PassSummary]:
    """Totals of each listed pass, in order; a pass without spans reads zero.

    Self time is a span's duration minus the time covered by its children in
    other layers: a call that stays inside its own layer (emit_csv rendering
    through render_csv, minimize reaching whole_space_energy through
    lower_bounds) is that layer's own work.  A child of another layer is
    subtracted from its parent and from every enclosing span of the parent's
    layer up to the next layer boundary.  Children of one span never overlap
    (one thread records them), so the sums are exactly the covered time.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        layer = layer_of(span.name)
        parent = span.parent
        if parent < 0 or layer_of(spans[parent].name) == layer:
            continue
        outer = layer_of(spans[parent].name)
        while parent >= 0 and layer_of(spans[parent].name) == outer:
            covered[parent] += span.end - span.start
            parent = spans[parent].parent
    passes = {
        pass_id: PassSummary(Counter(), defaultdict(float), Counter(), Counter())
        for pass_id in pass_ids
    }
    for index, span in enumerate(spans):
        summary = passes.get(span.pass_id)
        if summary is None:
            continue
        summary.calls[span.name] += 1
        summary.self_s[span.name] += span.end - span.start - covered[index]
        summary.count[span.name] += span.count
        outer_names = set()
        parent = span.parent
        while parent >= 0:
            outer_names.add(spans[parent].name)
            parent = spans[parent].parent
        for outer in outer_names:
            summary.nested[(outer, span.name)] += 1
    return [passes[pass_id] for pass_id in pass_ids]
