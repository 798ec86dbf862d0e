"""Timing spans around the public functions of graphreact's modules.

``Tracer.installed()`` replaces every public function of the traced
modules with a wrapper that records one span per call: name, start, end,
the span that was open when it was called (its parent), the operation id
the benchmark set, and for the linear-algebra entry points the order of
the system.  A function that another module imported by name is wrapped
at that binding too, so ``kac.green_matrix`` and ``harmonic.green_matrix``
record the same span.  Leaving the context restores the originals.
Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("cli", "document", "graph", "algebra", "harmonic", "kac",
          "feynman_kac", "diffuse", "mc")

# functions whose first argument is a square matrix: record its order
_SIZED = {"algebra.solve_many", "algebra.solve_linear", "algebra.det", "algebra.det_poly"}


@dataclass
class Span:
    id: int
    parent: int
    op: int
    name: str
    start: float
    end: float
    size: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        sized = name in _SIZED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else -1, self.op, name, 0.0, 0.0)
            if sized:
                span.size = len(args[0])
            spans.append(span)
            stack.append(span.id)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap the public functions of every layer for the duration."""
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"graphreact.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        restore = []
        for modname, module in list(sys.modules.items()):
            if modname != "graphreact" and not modname.startswith("graphreact."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    restore.append((module, attr, obj))
                    setattr(module, attr, wrapped[obj])
        try:
            yield self
        finally:
            for module, attr, obj in restore:
                setattr(module, attr, obj)

    def self_seconds(self) -> dict[int, float]:
        """Span duration minus the time its direct children cover."""
        own = {s.id: s.seconds for s in self.spans}
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.seconds
        return own

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.id, s.parent, s.op, s.name, s.start, s.end, s.size]))
                fh.write("\n")
