"""Spans recorded around the program's public callables, from outside it.

A :class:`Tracer` keeps spans in memory as ``(name, start, end, parent,
op)`` tuples: ``parent`` is the index of the enclosing span (``None`` for
an operation's root) and ``op`` the identifier every span of one benchmark
operation shares. :func:`install` replaces a callable at every module or
class attribute through which the program reaches it, so calls between the
program's own modules are recorded too. A callable that no longer exists
is reported absent instead of failing the run.
"""

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None
        self.counters: dict[str, float] = {}

    def enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    @contextmanager
    def op(self, op_id):
        """Root span ``op`` of one benchmark operation."""
        previous, self._op = self._op, op_id
        index = self.enter("op")
        try:
            yield
        finally:
            self.exit(index)
            self._op = previous

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                handle.write(json.dumps(record) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, op in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent, op) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_totals(spans) -> dict[str, tuple[int, float]]:
    """``name -> (calls, self seconds)`` over all spans."""
    totals: dict[str, tuple[int, float]] = {}
    for span, self_s in zip(spans, self_times(spans)):
        calls, seconds = totals.get(span[0], (0, 0.0))
        totals[span[0]] = (calls + 1, seconds + self_s)
    return totals


@dataclass(frozen=True)
class Layer:
    """One traced callable.

    ``attr`` is a function name in ``module`` or ``Class.method``.
    ``label`` turns the call's arguments into a span-name suffix;
    ``observe`` sees the arguments and result after the span closes and
    updates counters.
    """

    metric: str
    module: str
    attr: str
    label: Callable | None = None
    observe: Callable | None = None


def _wrap(tracer: Tracer, layer: Layer, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        name = layer.metric if layer.label is None else f"{layer.metric}.{layer.label(args, kwargs)}"
        index = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(index)
        if layer.observe is not None:
            layer.observe(tracer, args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer, layers, package: str):
    """Wrap every layer; return ``(undo, absent metric names)``."""
    patches: list[tuple[object, str, object]] = []
    absent: list[str] = []
    # Import every layer's module first: a module imported later would
    # bind the wrappers and keep them after undo.
    for layer in layers:
        try:
            importlib.import_module(layer.module)
        except ImportError:
            pass
    modules = [m for name, m in list(sys.modules.items()) if name == package or name.startswith(package + ".")]
    for layer in layers:
        owner = sys.modules.get(layer.module)
        *path, attr = layer.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            absent.append(layer.metric)
            continue
        wrapper = _wrap(tracer, layer, original)
        if path:  # a method: the class attribute is the only binding
            patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, name, original))
                    setattr(module, name, wrapper)

    def undo() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return undo, absent
